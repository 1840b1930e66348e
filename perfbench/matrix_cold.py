"""``matrix-cold``: cold diffs, then cold all-pairs matrices, in process.

Loads the DP (``core`` + ``matching`` + ``sptree``) and run loading.
There is no HTTP and no cache read; the derived-state files stay small
(fresh store) and each matrix flushes once, so flush cost stays minor.

* ``throughput_per_s`` — pairs of every cold ``Workspace.matrix`` (six
  Table-I workflows x 40 runs, plus one 200-run scale-harness pipeline
  family) per host-corrected second.
* ``latency_p50_ms`` / ``latency_p95_ms`` — one cold ``Workspace.diff``
  (with its edit script) of a Table-I run pair no matrix prices.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from pathlib import Path
from typing import List, Tuple

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
from inputs import pipeline_documents, rng, table_one, unordered_pairs
from layers import traced_in_process

from repro import ReproConfig, Workspace
from repro.core.api import distance_only
from repro.workflow.real_workflows import all_real_workflows

MATRIX_RUNS = 40
EXTRA_RUNS = 14
PIPELINE_RUNS = 200
#: Timings are this process's alone, so they are host-corrected.
IN_PROCESS = True
#: Cold diffs per run second (>= 200 in any run).
DIFFS_PER_SECOND = 18
#: Matrix pairs re-priced by the pure-Python oracle as a spot check.
ORACLE_SAMPLE = 6


def _setup(seed: int, root: Path):
    """Generate and persist the corpus; returns the workspace and the
    spec -> matrix run names map."""
    workspace = Workspace(root, ReproConfig())
    matrix_runs = {}
    for name, (spec, runs, extras) in table_one(
        seed, MATRIX_RUNS, EXTRA_RUNS
    ).items():
        workspace.register(spec)
        for run in runs + extras:
            workspace.import_run(run)
        matrix_runs[name] = [run.name for run in runs]
    for document in pipeline_documents(seed, PIPELINE_RUNS):
        workspace.import_prov(document.document, name=document.run_name)
    matrix_runs["pipe"] = workspace.runs("pipe")
    return workspace, matrix_runs


def _cold_pairs(seed: int, count: int) -> List[Tuple[str, str, str]]:
    extras = [f"x{index:03d}" for index in range(EXTRA_RUNS)]
    pool = [
        (spec, a, b)
        for spec in sorted(all_real_workflows())
        for a, b in unordered_pairs(extras)
    ]
    chooser = rng(seed, "cold-pairs")
    chooser.shuffle(pool)
    picked = pool[:count]
    return [
        (spec, b, a) if chooser.random() < 0.5 else (spec, a, b)
        for spec, a, b in picked
    ]


def _measure(workspace, matrix_runs, pairs, report: Report, clock: HostClock):
    """The timed phase; returns raw/corrected samples and result rows."""
    diff_units = []
    diff_rows = []
    matrix_units = []
    matrix_rows = []
    matrices = {}
    with clock:
        for spec, a, b in pairs:
            started = perf_counter()
            try:
                outcome = workspace.diff(a, b, spec=spec)
            except Exception as exc:  # counted, run marked incorrect
                report.fail(f"diff {spec} {a} {b}: {exc!r}")
                continue
            diff_units.append((started, perf_counter()))
            report.ok()
            diff_rows.append(
                (spec, a, b, outcome.distance, len(outcome.operations))
            )
        for spec, names in matrix_runs.items():
            started = perf_counter()
            try:
                result = workspace.matrix(spec=spec, runs=names)
            except Exception as exc:
                report.fail(f"matrix {spec}: {exc!r}")
                continue
            matrix_units.append((started, perf_counter()))
            report.ok()
            expected = len(names) * (len(names) - 1) // 2
            report.check(
                len(result.distances) == expected,
                f"matrix {spec}: {len(result.distances)} pairs, "
                f"not {expected}",
            )
            matrices[spec] = result.distances
            matrix_rows.extend(
                (spec, a, b, d) for (a, b), d in result.distances.items()
            )
    diff_raw_ms = [clock.raw_s(*unit) * 1000.0 for unit in diff_units]
    diff_corrected_ms = [
        clock.corrected_s(*unit) * 1000.0 for unit in diff_units
    ]
    pairs_done = sum(len(distances) for distances in matrices.values())
    matrix_raw_s = sum(clock.raw_s(*unit) for unit in matrix_units)
    matrix_corrected_s = sum(
        clock.corrected_s(*unit) for unit in matrix_units
    )
    return {
        "diff_raw_ms": diff_raw_ms,
        "diff_corrected_ms": diff_corrected_ms,
        "diff_rows": diff_rows,
        "pairs": pairs_done,
        "matrix_corrected_s": matrix_corrected_s,
        "matrix_rows": matrix_rows,
        "matrices": matrices,
        "corrected_s": matrix_corrected_s + sum(diff_corrected_ms) / 1000.0,
        "events": 0,
        "host": {
            "host.raw.throughput_per_s": pairs_done / matrix_raw_s,
            "host.raw.latency_p50_ms": p50(diff_raw_ms),
            "host.raw.latency_p95_ms": percentile(diff_raw_ms, 0.95),
        },
    }


def _oracle_check(workspace, matrices, seed: int, report: Report) -> None:
    """A sample of matrix entries re-priced by the pure-Python oracle."""
    chooser = rng(seed, "oracle")
    for _ in range(ORACLE_SAMPLE):
        spec = chooser.choice(sorted(matrices))
        (a, b), expected = chooser.choice(sorted(matrices[spec].items()))
        got = distance_only(
            workspace.run(a, spec=spec), workspace.run(b, spec=spec)
        )
        report.check(
            got == expected,
            f"oracle {spec} {a} {b}: matrix {expected!r} != oracle {got!r}",
        )


def run(seed: int, seconds: int, trace: bool, work: Path) -> Report:
    report = Report()
    pairs = _cold_pairs(seed, max(200, DIFFS_PER_SECOND * seconds))
    if trace:
        traced_in_process(
            "matrix-cold",
            lambda root: _setup(seed, root),
            lambda workspace, runs, clock: _measure(
                workspace, runs, pairs, report, clock
            ),
            report,
            work,
        )
        return report

    (workspace, matrix_runs), setup_times = repeat_setup(
        lambda root: _setup(seed, root), work
    )

    clock = HostClock()
    out = _measure(workspace, matrix_runs, pairs, report, clock)
    _oracle_check(workspace, out["matrices"], seed, report)

    report.metric("setup_s", statistics.median(setup_times), "s")
    report.metric("peak_rss_mb", vm_hwm_mb(), "MB")
    report.metric(
        "throughput_per_s", out["pairs"] / out["matrix_corrected_s"], "1/s"
    )
    latency_summary(report, out["diff_corrected_ms"])
    report.detail.update(out["host"])
    report.detail.update(
        {
            "setup_samples": setup_times,
            "matrix_pairs": out["pairs"],
            "host.ref_ms": clock.median_ref_ms(),
        }
    )
    report.digests = {
        "matrix_distances": digest(out["matrix_rows"]),
        "cold_diffs": digest(out["diff_rows"]),
    }
    return report
