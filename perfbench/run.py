"""End-to-end benchmark of the provenance-differencing library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced over identical inputs and prints the
per-layer metrics (spans timed around calls into each module) plus the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries sample counts, raw (uncorrected) values and digests.

``--record-digests`` (default seed only) rewrites the committed digests
of the workload's outputs instead of checking them.

See ``perfbench/NOTES.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

from common import (
    CHECKOUT,
    DEFAULT_SEED,
    DIGESTS_FILE,
    SRC,
    load_digests,
    make_work_dir,
)

WORKLOADS = {
    "matrix-cold": "matrix_cold",
    "serve-mixed": "serve_mixed",
    "ingest": "ingest",
}

#: Command-line marker of the benchmark's server launcher.
LAUNCHER_MARK = "perfbench/serve_launcher.py"


def stale_servers() -> list:
    """PIDs of benchmark-launched servers still alive (not our children)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if LAUNCHER_MARK.encode() in cmdline:
            found.append(int(entry.name))
    return found


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    config_path = CHECKOUT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    config = json.loads(config_path.read_text(encoding="utf8"))
    stale = stale_servers()
    if stale:
        print(
            "perfbench: refusing to start while an earlier benchmark "
            f"server is alive (pids {stale}); stop it first",
            file=sys.stderr,
        )
        return 3

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    signal.signal(signal.SIGTERM, _interrupt)
    module = __import__(WORKLOADS[args.workload])
    if module.IN_PROCESS:
        # One CPU for every thread, so the host-speed sampler reads the
        # CPU that does the work (see host.py).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = make_work_dir(args.workload)
    try:
        report = module.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            parser.error("--record-digests needs the default seed")
        digests = load_digests()
        digests[args.workload] = dict(report.digests, seconds=args.seconds)
        DIGESTS_FILE.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf8",
        )
    else:
        report.check_digests(args.workload, args.seed, args.seconds)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in config[section]}
    if args.trace:
        for name, value in report.layers.items():
            if name in wanted:
                report.metric(name, value, wanted[name])
    if set(report.metrics) != set(wanted):
        print(
            "perfbench: metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(report.metrics))}, "
            f"extra {sorted(set(report.metrics) - set(wanted))}",
            file=sys.stderr,
        )
        return 4
    for name, (_value, unit) in report.metrics.items():
        if unit != wanted[name]:
            print(f"perfbench: unit of {name} is {unit}", file=sys.stderr)
            return 4
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "detail": report.detail,
                "digests": report.digests,
                "failures": report.failures,
            },
            default=float,
        )
    )
    print(report.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
