"""``ingest``: PROV imports and event streams into a fresh store.

The store's write path and the stream hub.  Imports mix three
scale-harness families: ``pipeline`` (embedded plan), ``adversarial``
(foreign and non-SP, so it goes through the SP-izer) and ``evolving``.
Streamed runs are SAXPF-shaped Table-I runs sent event by event through
``Workspace.stream`` into a spec that already holds 30 runs; the hub
rebuilds a normalised snapshot on nearly every event, and ``run_close``
prices the newcomer against the stored corpus.

* ``throughput_per_s`` — runs ingested (imported or streamed through
  ``run_close``) per host-corrected second.
* ``latency_p50_ms`` / ``latency_p95_ms`` — per-run ingest latency: one
  ``import_prov`` call, or one stream from ``run_open`` to the closing
  ack.  Exactly one run in ten is streamed, so the median is an import
  and the p95 is a streamed run.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from pathlib import Path
from typing import Dict, List

from common import (
    Report,
    repeat_setup,
    digest,
    latency_summary,
    p50,
    percentile,
    vm_hwm_mb,
)
from host import HostClock
from inputs import pipeline_documents, rng, spec_runs
from layers import traced_in_process

from repro import ReproConfig, Workspace
from repro.interchange.convert import export_run_json
from repro.scale.workloads import make_workload
from repro.workflow.real_workflows import saxpf

STREAM_SPEC = "SAXPF"
BASE_RUNS = 30
#: Timings are this process's alone, so they are host-corrected.
IN_PROCESS = True
#: Runs ingested per run second.
RUNS_PER_SECOND = 12
#: Tenths of the runs per kind.  Imports of the fixed-spec pipeline
#: family are the majority, so the median is one of them and does not
#: move with the seed; the streamed tenth carries the p95.
MIX = (("pipeline", 6), ("adversarial", 2), ("evolving", 1), ("stream", 1))
#: Streamed runs re-imported in a reference store to check close results.
CROSS_CHECK_STREAMS = 3


def _plan(seed: int, total: int) -> List[tuple]:
    """Exactly ``MIX`` proportions at seeded positions."""
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * (total * share // 10)
    kinds += ["pipeline"] * (total - len(kinds))
    rng(seed, "ingest-plan").shuffle(kinds)
    counters = {kind: 0 for kind, _share in MIX}
    plan = []
    for kind in kinds:
        plan.append((kind, counters[kind]))
        counters[kind] += 1
    return plan


def _inputs(seed: int, plan) -> Dict[str, list]:
    counts = {kind: 0 for kind, _share in MIX}
    for kind, _index in plan:
        counts[kind] += 1
    inputs = {
        family: list(
            make_workload(
                family, f"in-{family}", seed=seed, runs=counts[family]
            ).documents()
        )
        for family in ("adversarial", "evolving")
    }
    inputs["pipeline"] = pipeline_documents(seed, counts["pipeline"])
    inputs["stream"] = spec_runs(saxpf(), seed, "s", counts["stream"])
    inputs["base"] = spec_runs(saxpf(), seed, "r", BASE_RUNS)
    return inputs


def _setup(seed: int, plan, root: Path):
    workspace = Workspace(root, ReproConfig())
    inputs = _inputs(seed, plan)
    workspace.register(saxpf())
    for run in inputs["base"]:
        workspace.import_run(run)
    return workspace, inputs


def _import(workspace, document):
    return workspace.import_prov(
        document.document,
        name=document.run_name,
        spec_name=document.spec_name if document.kind == "foreign" else None,
        diff=False,
    )


def _stream(workspace, run) -> tuple:
    """Stream one run; returns (events, close distances as rows)."""
    labels = run.graph.labels()
    with workspace.stream(STREAM_SPEC, run.name) as session:
        for node in run.graph.nodes():
            session.activity(node, labels[node])
        for src, dst, _key in run.graph.edges():
            session.edge(src, dst)
        ack = session.close_run()
    events = 2 + run.graph.num_nodes + run.graph.num_edges
    rows = sorted(
        (a, b, distance) for (a, b), distance in ack.result.new_pairs.items()
    )
    return events, rows


def _measure(workspace, inputs, plan, report: Report, clock: HostClock):
    units = []
    stream_units = []
    events = 0
    import_rows = []
    close_rows: List[list] = []
    with clock:
        for kind, index in plan:
            started = perf_counter()
            try:
                if kind == "stream":
                    count, rows = _stream(workspace, inputs["stream"][index])
                else:
                    result = _import(workspace, inputs[kind][index])
            except Exception as exc:  # counted, run marked incorrect
                report.fail(f"{kind} #{index}: {exc!r}")
                continue
            unit = (started, perf_counter())
            units.append(unit)
            report.ok()
            if kind == "stream":
                stream_units.append(unit)
                events += count
                close_rows.append(rows)
            else:
                import_rows.append(
                    (
                        result.spec.name,
                        result.run.name,
                        result.origin,
                        len(result.report.forced_serializations),
                    )
                )
    raw_ms = [clock.raw_s(*unit) * 1000.0 for unit in units]
    corrected = [clock.corrected_s(*unit) for unit in units]
    return {
        "corrected_ms": [value * 1000.0 for value in corrected],
        "corrected_s": sum(corrected),
        "host": {
            "host.raw.throughput_per_s": len(units) * 1000.0 / sum(raw_ms),
            "host.raw.latency_p50_ms": p50(raw_ms),
            "host.raw.latency_p95_ms": percentile(raw_ms, 0.95),
        },
        "events": events,
        "stream_corrected_s": sum(
            clock.corrected_s(*unit) for unit in stream_units
        ),
        "import_rows": import_rows,
        "close_rows": close_rows,
    }


def _cross_check(seed: int, inputs, out, work: Path, report: Report) -> None:
    """A streamed run's close distances equal importing the same run."""
    reference = Workspace(work / "reference", ReproConfig(persistent=False))
    reference.register(saxpf())
    for run in inputs["base"]:
        reference.import_run(run)
    for run, streamed in zip(
        inputs["stream"][:CROSS_CHECK_STREAMS], out["close_rows"]
    ):
        _result, distances = reference.import_prov(
            export_run_json(run), name=run.name, diff=True
        )
        imported = sorted((a, b, d) for (a, b), d in distances.items())
        report.check(
            imported == streamed,
            f"streamed {run.name}: close distances differ from import",
        )


def run(seed: int, seconds: int, trace: bool, work: Path) -> Report:
    report = Report()
    plan = _plan(seed, max(200, RUNS_PER_SECOND * seconds))
    if trace:
        traced_in_process(
            "ingest",
            lambda root: _setup(seed, plan, root),
            lambda workspace, inputs, clock: _measure(
                workspace, inputs, plan, report, clock
            ),
            report,
            work,
        )
        return report

    (workspace, inputs), setup_times = repeat_setup(
        lambda root: _setup(seed, plan, root), work
    )

    clock = HostClock()
    out = _measure(workspace, inputs, plan, report, clock)
    _cross_check(seed, inputs, out, work, report)

    runs = len(out["corrected_ms"])
    report.metric("setup_s", statistics.median(setup_times), "s")
    report.metric("peak_rss_mb", vm_hwm_mb(), "MB")
    report.metric("throughput_per_s", runs / out["corrected_s"], "1/s")
    latency_summary(report, out["corrected_ms"])
    report.detail.update(out["host"])
    report.detail.update(
        {
            "setup_samples": setup_times,
            "runs": runs,
            "stream_events_per_s": out["events"] / out["stream_corrected_s"],
            "host.ref_ms": clock.median_ref_ms(),
        }
    )
    report.digests = {
        "imports": digest(out["import_rows"]),
        "stream_close_distances": digest(
            tuple(row) for rows in out["close_rows"] for row in rows
        ),
    }
    return report
