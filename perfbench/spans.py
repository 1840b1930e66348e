"""Outside-in layer tracing: spans recorded around calls into each module.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces a
fixed set of functions with timing wrappers, each at the binding its
caller looks up: ``repro.backends.work`` binds ``distance_only`` and
``diff_runs`` with ``from ... import``, so the wrapper goes into that
module's namespace as well as into ``repro.core.api``.

Each span is ``(id, parent, name, start, end, cpu)``, kept in memory and
written out when the benchmark ends.  A span's self time is its length
minus the time its direct children (same thread, nested) cover.  Self
time is counted in thread CPU seconds: the default thread backend runs
several DP threads under one interpreter lock, and their wall-clock
spans would each include the time the others held it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from time import perf_counter, thread_time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: span name -> the (module, attribute) bindings it is installed at.
#: ``Class.method`` attributes patch the class.
SPAN_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.distance_dp": (
        ("repro.core.api", "distance_only"),
        ("repro.backends.work", "distance_only"),
    ),
    "core.script_dp": (
        ("repro.core.api", "diff_runs"),
        ("repro.backends.work", "diff_runs"),
        ("repro.workspace", "diff_runs"),
        ("repro.query.engine", "diff_runs"),
    ),
    "matching.assign": (
        ("repro.matching.hungarian", "solve_assignment"),
    ),
    "sptree.annotate": (
        ("repro.sptree.annotate_run", "annotate_run_tree"),
        ("repro.workflow.run", "annotate_run_tree"),
    ),
    "io.load_run": (("repro.io.store", "WorkflowStore.load_run"),),
    "io.save_run": (("repro.io.store", "WorkflowStore.save_run"),),
    "io.atomic_write": (
        ("repro.io.store", "atomic_write"),
        ("repro.corpus.cache", "atomic_write"),
    ),
    "corpus.flush": (("repro.corpus.service", "DiffService._flush"),),
    "query.select": (("repro.query.engine", "QueryEngine.select"),),
    "interchange.import": (
        ("repro.interchange.convert", "import_document"),
    ),
    "interchange.normalize": (
        ("repro.interchange.convert", "normalize_document"),
    ),
    "stream.apply": (("repro.stream.hub", "StreamHub.apply_batch"),),
    "stream.snapshot": (("repro.stream.incremental", "_assemble"),),
    "stream.close": (("repro.stream.hub", "StreamHub._close"),),
    "backends.map": (
        ("repro.backends.base", "SerialBackend.map"),
        ("repro.backends.base", "ThreadBackend.map"),
        ("repro.backends.base", "ProcessBackend.map"),
    ),
    "service.request": (("repro.service.app", "WorkspaceApp.handle"),),
}


def _note_assign(tracer, args, kwargs, result):
    tracer.counters["matching.assign.n_sum"] += len(args[0])


def _note_atomic_write(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counters["io.atomic_write.bytes"] += len(text.encode("utf8"))


def _note_import(tracer, args, kwargs, result):
    tracer.counters["interchange.forced_serializations"] += len(
        result.report.forced_serializations
    )


def _note_backend(tracer, args, kwargs, result):
    tracer.counters["backends.tasks"] += len(result)


def _note_select(tracer, args, kwargs, result):
    tracer.counters["query.docs_returned"] += len(result)


#: Post-call hooks that turn a call's arguments or result into counts.
NOTES: Dict[str, Callable] = {
    "matching.assign": _note_assign,
    "io.atomic_write": _note_atomic_write,
    "interchange.import": _note_import,
    "backends.map": _note_backend,
    "query.select": _note_select,
}


class Tracer:
    """In-memory span recorder.  ``mark()`` starts the measured window:
    spans that begin before it are left out of :meth:`summary`."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: request id -> server-side seconds (``service.request`` spans).
        self.requests: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        self.window_start = 0.0

    def mark(self) -> None:
        self.window_start = perf_counter()
        self.counters.clear()
        self.requests.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str):
        note = NOTES.get(name)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            cpu = thread_time()
            started = perf_counter()
            try:
                result = func(*args, **kwargs)
                if name == "query.select":
                    result = list(result)
            finally:
                ended = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
                spans.append((span_id, parent, name, started, ended, cpu))
            if started >= tracer.window_start:
                if note is not None:
                    note(tracer, args, kwargs, result)
                if name == "service.request":
                    request_id = result.headers.get("X-Request-Id", "")
                    tracer.requests[request_id] = ended - started
            if name == "query.select":
                return iter(result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Patch every binding in :data:`SPAN_TARGETS`; :meth:`uninstall`
        restores the originals."""
        for name, bindings in SPAN_TARGETS.items():
            for module_name, attribute in bindings:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(
                    owner, type
                ) else getattr(owner, leaf)
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` (CPU) and inclusive
        wall-clock ``total_s`` over the spans inside the measured window."""
        children: Dict[int, float] = defaultdict(float)
        for _id, parent, _name, _started, _ended, cpu in self.spans:
            if parent:
                children[parent] += cpu
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for name in SPAN_TARGETS
        }
        for span_id, _parent, name, started, ended, cpu in self.spans:
            if started < self.window_start:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += ended - started
            entry["self_s"] += cpu - children[span_id]
        return out

    def dump(self, path) -> None:
        """Write spans, counters and the summary as one JSON document."""
        payload = {
            "window_start": self.window_start,
            "spans": [
                list(span) for span in self.spans
                if span[3] >= self.window_start
            ],
            "counters": dict(self.counters),
            "requests": self.requests,
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf8") as handle:
            json.dump(payload, handle)


def required_spans(summary: Dict[str, Dict[str, float]], names) -> List[str]:
    """The names in ``names`` that never fired (empty list = all did)."""
    return [name for name in names if summary[name]["calls"] == 0]
