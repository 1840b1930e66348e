"""Shared plumbing: work directories, percentiles, reports, digests."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch stores (removed when their run ends) and trace dumps; ignored
#: by git.
WORK_ROOT = CHECKOUT / ".perfbench"
DIGESTS_FILE = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1

#: Fewest samples a reported p95 may rest on (ten beyond the p95).
MIN_PERCENTILE_SAMPLES = 200
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def p50(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def make_work_dir(workload: str) -> Path:
    path = WORK_ROOT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat_setup(setup: Callable, work: Path):
    """Run ``setup(root)`` ``SETUP_REPEATS`` times on fresh roots and keep
    the last result; returns ``(result, seconds per set-up)``.

    Earlier results are dropped, their stores deleted and the garbage
    collected (untimed) before the next set-up, so a run's peak memory
    does not depend on when the collector happened to run.
    """
    times = []
    for index in range(SETUP_REPEATS):
        root = work / f"store{index}"
        gc.collect()
        started = perf_counter()
        result = setup(root)
        times.append(perf_counter() - started)
        if index < SETUP_REPEATS - 1:
            result = None
            shutil.rmtree(root, ignore_errors=True)
    gc.collect()
    return result, times


def digest(rows: Iterable[Tuple]) -> str:
    """Order-independent SHA-256 of result rows (floats by ``repr``)."""
    text = "\n".join(
        sorted(
            "|".join(repr(value) for value in row) for row in rows
        )
    )
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf8"))


class Report:
    """One workload run's account: operations, failures, metrics.

    ``fail`` records a failed operation (an exception, a bad HTTP
    status, a wrong output); any failure makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: Sample counts, raw values and other context for the log line.
        self.detail: Dict[str, object] = {}
        self.digests: Dict[str, str] = {}
        #: Per-layer values of a traced run (units from BENCHMARK.json).
        self.layers: Dict[str, float] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        """A correctness check, counted as one operation."""
        if condition:
            self.ok()
        else:
            self.fail(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check_digests(self, workload: str, seed: int, seconds: int) -> None:
        """Compare against the committed default-seed digests (recorded
        for one ``--seconds``, which sizes the work)."""
        expected = load_digests().get(workload, {})
        if seed != DEFAULT_SEED or expected.get("seconds") != seconds:
            return
        for key, value in self.digests.items():
            if key in expected:
                self.check(
                    expected[key] == value,
                    f"digest {key}: {value} != committed {expected[key]}",
                )

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def latency_summary(report: Report, samples: List[float]) -> None:
    """Report p50/p95 (ms) of a latency sample and its size."""
    if len(samples) < MIN_PERCENTILE_SAMPLES:
        report.fail(
            f"only {len(samples)} latency samples "
            f"(< {MIN_PERCENTILE_SAMPLES}) for a p95"
        )
    report.metric("latency_p50_ms", p50(samples), "ms")
    report.metric("latency_p95_ms", percentile(samples, 0.95), "ms")
    report.detail["latency_samples"] = len(samples)


def stats_delta(before: Dict[str, float], after: Dict[str, float]) -> dict:
    """Corpus-layer counters between two ``stats`` snapshots.

    ``corpus.cache_hit_ratio`` covers the distance and the script cache.
    """

    def delta(key: str) -> float:
        return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)

    hits = sum(
        delta(prefix + key)
        for prefix in ("", "script_")
        for key in ("memory_hits", "disk_hits")
    )
    lookups = hits + delta("misses") + delta("script_misses")
    return {
        "corpus.computed_pairs": delta("computed_pairs"),
        "corpus.computed_scripts": delta("computed_scripts"),
        "corpus.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "corpus.dp_skipped_by_bound": delta("dp_skipped_by_bound"),
        "corpus.lock_wait_s": delta("lock_wait_seconds"),
    }
