"""``serve-mixed``: a closed-loop request mix against ``repro serve``.

The read path users hit, with derived-state writes beside it.  The
server (one process, default configuration) holds >= 10^4 cached
distances, so each cold diff's whole-file flushes re-read, merge and
encode large index files; the DP itself is small (protein-annotation
runs).  One client connection, no think time.

* ``throughput_per_s`` — completed requests per second of traffic.
* ``latency_p50_ms`` / ``latency_p95_ms`` — client-observed latency over
  the whole mix.  With ~60 % warm diffs and ~20 % revalidations the
  median is a cache read; the slowest ~10 % are the cold diffs, so the
  p95 sits on them.

Every timing here includes the server process, so all are raw: the
host correction samples only this process's core.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    Report,
    digest,
    latency_summary,
    p50,
    percentile,
    stats_delta,
    tree_bytes,
    vm_hwm_mb,
)
from host import spot_reading_ms
from inputs import rng, spec_runs, unordered_pairs
from layers import REQUIRED_SPANS, layer_metrics
from spans import required_spans

from repro import ReproConfig, Workspace
from repro.scale.drivers import DEFAULT_QUERY_SHAPES
from repro.workflow.real_workflows import mb, protein_annotation

PA_RUNS = 40
#: The first WORKING_RUNS PA runs: their 120 pairs get cached scripts.
WORKING_RUNS = 16
MB_RUNS = 150
#: Timings are this process's alone, so they are host-corrected.
IN_PROCESS = False
#: Requests per run second (closed loop; sized to the reference host).
REQUESTS_PER_SECOND = 150
MIX = (("warm", 0.6), ("revalidate", 0.2), ("query", 0.1), ("cold", 0.1))
#: Cold diffs that enter the default-seed digest (always reached).
DIGESTED_COLD = 100
#: Served diffs re-computed in process for the bit-identity check.
CROSS_CHECK_SAMPLE = 10
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class Server:
    """A ``repro serve`` subprocess started through the launcher."""

    def __init__(self, store: Path, work: Path, trace_out: Optional[Path]):
        self.log = open(work / f"server-{store.name}.log", "wb")
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", str(store), "--port", "0"]
        env = dict(os.environ, PERFBENCH_PARENT=str(os.getpid()))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(BENCH_DIR), env.get("PYTHONPATH", "")]
        )
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        line = self.process.stdout.readline().decode("utf8", "replace")
        if "serving" not in line or time.monotonic() > deadline:
            raise RuntimeError(f"server failed to boot: {line!r}")
        return int(line.split(" at ", 1)[1].split()[0].rsplit(":", 1)[1])

    def request(self, method: str, path: str, body=None, headers=None):
        """(status, headers, body bytes) of one request.

        One connection per request, closed after the response, as the
        library's own HTTP client (``urllib``) and ``curl`` use it.  A
        kept-alive connection would also measure a ~40 ms delayed-ACK
        stall: the server writes headers and body in two segments.
        """
        payload = None if body is None else json.dumps(body).encode("utf8")
        all_headers = dict(headers or {}, Connection="close")
        if payload is not None:
            all_headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=all_headers)
            response = conn.getresponse()
            return response.status, response.headers, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, _headers, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(body)

    def stats(self) -> dict:
        """``/stats`` counters and derived values as one flat dict."""
        payload = self.get_json("/stats")
        return dict(payload["counters"], **payload["derived"])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def mark(self) -> None:
        """Start the traced server's measured window."""
        self.process.send_signal(signal.SIGUSR1)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always waits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def _corpus(seed: int, root: Path) -> None:
    workspace = Workspace(root, ReproConfig())
    for spec, count in ((protein_annotation(), PA_RUNS), (mb(), MB_RUNS)):
        workspace.register(spec)
        for run in spec_runs(spec, seed, "r", count):
            workspace.import_run(run)


def _diff_path(a: str, b: str) -> str:
    return f"/diff/{a}/{b}?spec=PA"


class Session:
    """One booted, prewarmed server and what the prewarm learned."""

    def __init__(self, seed: int, work: Path, index: int, trace_out=None):
        self.store = work / f"store{index}"
        _corpus(seed, self.store)
        self.server = Server(self.store, work, trace_out)
        try:
            self._prewarm()
        except BaseException:
            self.server.stop()
            raise

    def _prewarm(self) -> None:
        names = [f"r{index:03d}" for index in range(PA_RUNS)]
        self.working_runs = names[:WORKING_RUNS]
        self.working = unordered_pairs(self.working_runs)
        self.cold_pool = [
            pair for pair in unordered_pairs(names)
            if not set(pair) <= set(self.working_runs)
        ]
        status, _h, body = self.server.request(
            "POST", "/matrix", {"spec": "MB"}
        )
        if status != 200:
            raise RuntimeError(f"prewarm matrix: HTTP {status}")
        self.matrix = json.loads(body)
        status, _h, _body = self.server.request(
            "POST", "/query", {"spec": "PA", "runs": self.working_runs}
        )
        if status != 200:
            raise RuntimeError(f"prewarm query: HTTP {status}")
        self.etags: Dict[Tuple[str, str], str] = {}
        self.bodies: Dict[Tuple[str, str], bytes] = {}
        for a, b in self.working:
            status, headers, body = self.server.request(
                "GET", _diff_path(a, b)
            )
            if status != 200:
                raise RuntimeError(f"prewarm diff {a} {b}: HTTP {status}")
            self.etags[(a, b)] = headers["ETag"]
            self.bodies[(a, b)] = body


def _plan(seed: int, session: Session, count: int) -> List[tuple]:
    """The seeded request sequence: exact ``MIX`` shares at seeded
    positions, as ``(kind, pair-or-shape)``."""
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * round(count * share)
    kinds += ["warm"] * (count - len(kinds))
    chooser = rng(seed, "serve-mix")
    chooser.shuffle(kinds)
    cold = list(session.cold_pool)
    rng(seed, "serve-cold").shuffle(cold)
    plan = []
    for kind in kinds:
        if kind == "cold":
            plan.append(("cold", cold.pop()))
        elif kind == "query":
            plan.append(("query", chooser.choice(DEFAULT_QUERY_SHAPES)))
        else:
            plan.append((kind, chooser.choice(session.working)))
    return plan


def _traffic(session: Session, plan, report: Report) -> dict:
    """Closed loop over ``plan``; returns per-request samples."""
    server = session.server
    latencies: List[float] = []
    by_kind: Dict[str, List[float]] = {kind: [] for kind, _ in MIX}
    request_ms: Dict[str, float] = {}
    cold_bodies: Dict[Tuple[str, str], bytes] = {}
    started = time.perf_counter()
    for number, (kind, item) in enumerate(plan):
        request_id = f"pb{number}"
        headers = {"X-Request-Id": request_id}
        if kind == "query":
            _label, shape = item
            method, path = "POST", "/query"
            body = {
                "spec": "PA",
                "runs": session.working_runs,
                "filter": shape.to_dict(),
            }
            expect = 200
        else:
            method, path, body, expect = "GET", _diff_path(*item), None, 200
            if kind == "revalidate":
                headers["If-None-Match"] = session.etags[item]
                expect = 304
        sent = time.perf_counter()
        try:
            status, _h, payload = server.request(method, path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            report.fail(f"{kind} {item}: {exc!r}")
            continue
        elapsed_ms = (time.perf_counter() - sent) * 1000.0
        if status != expect:
            report.fail(f"{kind} {path}: HTTP {status}, expected {expect}")
            continue
        if kind == "warm" and payload != session.bodies[item]:
            report.fail(f"warm diff {item} differs from its first answer")
            continue
        if kind == "cold":
            cold_bodies[item] = payload
        report.ok()
        latencies.append(elapsed_ms)
        by_kind[kind].append(elapsed_ms)
        request_ms[request_id] = elapsed_ms
    seconds = time.perf_counter() - started
    return {
        "latencies": latencies,
        "by_kind": by_kind,
        "request_ms": request_ms,
        "cold_bodies": cold_bodies,
        "seconds": seconds,
    }


def _verify(seed: int, session: Session, out: dict, work: Path,
            report: Report) -> None:
    """warm = cold, and served diffs = in-process ``Workspace.diff``."""
    server = session.server
    for pair, cold_body in out["cold_bodies"].items():
        status, _h, warm_body = server.request("GET", _diff_path(*pair))
        report.check(
            status == 200 and warm_body == cold_body,
            f"warm re-read of cold diff {pair} differs (HTTP {status})",
        )
    reference = Workspace(work / "reference", ReproConfig(persistent=False))
    _corpus(seed, reference.store.root)
    chooser = rng(seed, "serve-cross-check")
    served = dict(session.bodies)
    served.update(out["cold_bodies"])
    sample = chooser.sample(sorted(served), min(CROSS_CHECK_SAMPLE, len(served)))
    for a, b in sample:
        local = json.loads(json.dumps(reference.diff(a, b, spec="PA").to_dict()))
        report.check(
            json.loads(served[(a, b)]) == local,
            f"served diff {a} {b} differs from in-process Workspace.diff",
        )


def _digests(session: Session, plan, out: dict) -> Dict[str, str]:
    matrix_rows = [tuple(row) for row in session.matrix["distances"]]
    working_rows = [
        (a, b, json.loads(body)["distance"])
        for (a, b), body in session.bodies.items()
    ]
    cold_pairs = [item for kind, item in plan if kind == "cold"]
    cold_rows = [
        (a, b, json.loads(out["cold_bodies"][(a, b)])["distance"])
        for a, b in cold_pairs[:DIGESTED_COLD]
        if (a, b) in out["cold_bodies"]
    ]
    return {
        "prewarm_matrix": digest(matrix_rows),
        "working_set_diffs": digest(working_rows),
        "cold_diffs": digest(cold_rows),
    }


def _route_seconds(metrics: dict) -> Dict[str, float]:
    """Summed server-side handling seconds per route from /metrics JSON."""
    family = metrics["metrics"].get("server_request_seconds", {})
    totals: Dict[str, float] = {}
    for sample in family.get("samples", []):
        route = sample["labels"].get("route", "")
        totals[route] = totals.get(route, 0.0) + float(sample["sum"])
    return totals


def run(seed: int, seconds: int, trace: bool, work: Path) -> Report:
    report = Report()
    count = REQUESTS_PER_SECOND * seconds
    if trace:
        return _run_traced(seed, count, work, report)

    setup_times = []
    session = None
    try:
        for index in range(SETUP_REPEATS):
            if session is not None:
                session.server.stop()
            started = time.perf_counter()
            session = Session(seed, work, index)
            setup_times.append(time.perf_counter() - started)
        plan = _plan(seed, session, count)
        out = _traffic(session, plan, report)
        rss = session.server.peak_rss_mb()
        _verify(seed, session, out, work, report)
        report.digests = _digests(session, plan, out)
    finally:
        if session is not None:
            session.server.stop()

    report.metric("setup_s", statistics.median(setup_times), "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric(
        "throughput_per_s", len(out["latencies"]) / out["seconds"], "1/s"
    )
    latency_summary(report, out["latencies"])
    report.detail["setup_samples"] = setup_times
    report.detail["host.ref_ms"] = spot_reading_ms()
    for kind, samples in out["by_kind"].items():
        report.detail[f"{kind}_p50_ms"] = p50(samples)
        report.detail[f"{kind}_samples"] = len(samples)
    return report


def _run_traced(seed: int, count: int, work: Path, report: Report) -> Report:
    """Untraced then traced server over identical fresh stores."""
    walls = []
    trace_file = work / "server-trace.json"
    for index, traced in enumerate((False, True)):
        session = Session(
            seed, work, index, trace_out=trace_file if traced else None
        )
        try:
            plan = _plan(seed, session, count)
            stats_before = session.server.stats()
            metrics_before = _route_seconds(
                session.server.get_json("/metrics?format=json")
            )
            if traced:
                session.server.mark()
                time.sleep(0.2)  # the handler runs between requests
            out = _traffic(session, plan, report)
            walls.append(out["seconds"])
            stats_after = session.server.stats()
            metrics_after = _route_seconds(
                session.server.get_json("/metrics?format=json")
            )
        finally:
            session.server.stop()
        if not traced:
            untraced = out
    dump = json.loads(trace_file.read_text(encoding="utf8"))
    summary = dump["summary"]
    for name in required_spans(summary, REQUIRED_SPANS["serve-mixed"]):
        report.fail(f"span {name} never fired")
    corpus = stats_delta(stats_before, stats_after)
    corpus["corpus.derived_bytes"] = tree_bytes(session.store / "index")
    overhead = [
        out["request_ms"][rid] - server_s * 1000.0
        for rid, server_s in dump["requests"].items()
        if rid in out["request_ms"]
    ]
    raw = untraced["latencies"]
    extra = {
        "service.request_s.diff": metrics_after.get("/diff/{a}/{b}", 0.0)
        - metrics_before.get("/diff/{a}/{b}", 0.0),
        "service.request_s.query": metrics_after.get("/query", 0.0)
        - metrics_before.get("/query", 0.0),
        "service.not_modified": stats_after["server_not_modified"]
        - stats_before["server_not_modified"],
        "client.overhead_ms_p50": p50(overhead) if overhead else 0.0,
        "host.ref_ms": spot_reading_ms(),
        "host.raw.throughput_per_s": len(raw) / untraced["seconds"],
        "host.raw.latency_p50_ms": p50(raw),
        "host.raw.latency_p95_ms": percentile(raw, 0.95),
        "trace.overhead_pct": 100.0 * (walls[1] - walls[0]) / walls[0],
    }
    report.layers = dict(
        layer_metrics(summary, dump["counters"], corpus, extra)
    )
    report.detail["trace_walls_s"] = walls
    report.detail["overhead_samples"] = len(overhead)
    return report
