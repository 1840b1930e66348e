"""Start ``repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- SERVE-ARGS...

With ``--trace-out`` the launcher installs the benchmark's span wrappers
(:mod:`spans`) before handing over to ``repro.cli.main(["serve", ...])``;
SIGUSR1 marks the start of the measured window, and the spans are
written to FILE when the server exits.  The server dies with its parent
(``PR_SET_PDEATHSIG``, plus a watchdog on the parent pid), so a killed
benchmark never leaves an orphan holding a core.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import threading
import time

PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:
        os._exit(1)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    _die_with_parent(int(os.environ["PERFBENCH_PARENT"]))

    from repro.cli import main as repro_main

    tracer = None
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.mark())
    try:
        return repro_main(["serve"] + argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
