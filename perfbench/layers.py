"""The per-layer metric set, assembled from a traced run.

Every workload reports every name here (a layer a workload does not load
reads 0, which is itself the prediction "no change" for that pairing).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, Tuple

from common import Report, stats_delta, tree_bytes
from host import HostClock
from spans import Tracer, required_spans

#: Spans that must fire on each workload's traced run, per the layers the
#: workload is chosen to load.  A traced run fails if one never fires.
REQUIRED_SPANS: Dict[str, Tuple[str, ...]] = {
    "matrix-cold": (
        "core.distance_dp",
        "core.script_dp",
        "matching.assign",
        "sptree.annotate",
        "io.load_run",
        "corpus.flush",
        "backends.map",
    ),
    "serve-mixed": (
        "core.script_dp",
        "io.load_run",
        "io.atomic_write",
        "corpus.flush",
        "query.select",
        "service.request",
    ),
    "ingest": (
        "core.distance_dp",
        "sptree.annotate",
        "io.load_run",
        "io.save_run",
        "io.atomic_write",
        "corpus.flush",
        "interchange.import",
        "interchange.normalize",
        "stream.apply",
        "stream.snapshot",
        "stream.close",
    ),
}

#: Spans reported as ``<span>.calls`` and ``<span>.self_s``.
SPAN_METRICS = (
    "core.distance_dp",
    "core.script_dp",
    "matching.assign",
    "sptree.annotate",
    "io.load_run",
    "io.save_run",
    "corpus.flush",
    "query.select",
    "interchange.import",
)


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    corpus: Dict[str, float],
    extra: Dict[str, float],
) -> Iterable[Tuple[str, float]]:
    """``(name, value)`` for every per-layer metric.

    ``summary``/``counters`` come from the tracer(s), ``corpus`` from
    :func:`common.stats_delta` plus ``corpus.derived_bytes``, and
    ``extra`` carries what only the workload knows (service deltas,
    client overhead, stream events, host readings, tracing overhead).
    """
    for name in SPAN_METRICS:
        yield f"{name}.calls", summary[name]["calls"]
        yield f"{name}.self_s", summary[name]["self_s"]
    assign_calls = summary["matching.assign"]["calls"]
    yield "matching.assign.mean_n", (
        counters.get("matching.assign.n_sum", 0.0) / assign_calls
        if assign_calls else 0.0
    )
    yield "io.atomic_write.calls", summary["io.atomic_write"]["calls"]
    yield "io.atomic_write.bytes", counters.get("io.atomic_write.bytes", 0.0)
    for key in (
        "corpus.computed_pairs",
        "corpus.computed_scripts",
        "corpus.cache_hit_ratio",
        "corpus.dp_skipped_by_bound",
        "corpus.lock_wait_s",
        "corpus.derived_bytes",
    ):
        yield key, corpus.get(key, 0.0)
    yield "query.docs_returned", counters.get("query.docs_returned", 0.0)
    yield "interchange.normalize.self_s", (
        summary["interchange.normalize"]["self_s"]
    )
    yield "interchange.forced_serializations", counters.get(
        "interchange.forced_serializations", 0.0
    )
    yield "stream.apply.self_s", summary["stream.apply"]["self_s"]
    yield "stream.snapshot.calls", summary["stream.snapshot"]["calls"]
    yield "stream.snapshot.self_s", summary["stream.snapshot"]["self_s"]
    events = extra.get("stream.events", 0.0)
    yield "stream.snapshots_per_event", (
        summary["stream.snapshot"]["calls"] / events if events else 0.0
    )
    yield "stream.close.self_s", summary["stream.close"]["self_s"]
    yield "backends.busy_s", summary["backends.map"]["total_s"]
    yield "backends.tasks", counters.get("backends.tasks", 0.0)
    for key in (
        "service.request_s.diff",
        "service.request_s.query",
        "service.not_modified",
        "client.overhead_ms_p50",
        "host.ref_ms",
        "host.raw.throughput_per_s",
        "host.raw.latency_p50_ms",
        "host.raw.latency_p95_ms",
        "trace.overhead_pct",
    ):
        yield key, extra.get(key, 0.0)


def traced_in_process(
    workload: str,
    setup: Callable,
    measure: Callable,
    report: Report,
    work: Path,
) -> None:
    """Run an in-process workload untraced, then traced, over identical
    fresh inputs; fill ``report.layers`` from the traced pass.

    ``setup(root)`` returns ``(workspace, inputs)``; ``measure(workspace,
    inputs, clock)`` returns the workload's output dict, which carries
    ``corrected_s`` (all units, host-corrected), ``events`` and ``host``
    (the raw values of the corrected end-to-end metrics).  The tracing
    overhead compares corrected totals, so host drift between the two
    passes does not read as overhead.
    """
    tracer = Tracer()
    passes = []
    for index, traced in enumerate((False, True)):
        workspace, inputs = setup(work / f"store{index}")
        clock = HostClock()
        before = dict(workspace.stats)
        if traced:
            tracer.install()
            tracer.mark()
        try:
            passes.append((measure(workspace, inputs, clock), clock))
        finally:
            tracer.uninstall()
    (untraced, untraced_clock), (traced_out, _clock) = passes
    summary = tracer.summary()
    for name in required_spans(summary, REQUIRED_SPANS[workload]):
        report.fail(f"span {name} never fired")
    corpus = stats_delta(before, dict(workspace.stats))
    corpus["corpus.derived_bytes"] = tree_bytes(workspace.store.index_dir)
    extra = dict(untraced["host"])
    extra["host.ref_ms"] = untraced_clock.median_ref_ms()
    extra["stream.events"] = traced_out["events"]
    extra["trace.overhead_pct"] = 100.0 * (
        traced_out["corrected_s"] - untraced["corrected_s"]
    ) / untraced["corrected_s"]
    report.layers = dict(
        layer_metrics(summary, tracer.counters, corpus, extra)
    )
    tracer.dump(work.parent / f"trace-{workload}.json")
