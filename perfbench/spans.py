"""In-memory span recorder and the wrappers that feed it.

A span is (id, parent id, name, start, end) on the perf_counter clock.
Spans nest per thread: a span opened while another is open on the same
thread records that one as its parent.  Nothing is written until the
caller asks for `records()` at the end of a run.

The wrappers replace public gee functions in the module namespaces where
their callers look them up (for example `gee.cli.sweep`, which
`gee.cli` imported from `gee.montecarlo`), so the program itself is
unchanged and untraced runs call the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time

# (module, attribute, span name, span attributes from the bound call
# arguments).  Each entry is where a caller looks the function up, not
# where it is defined.
_PLAN = lambda a: {"n": a["plan"].n, "trials": a["plan"].trials}
WRAPPED = [
    ("gee.cli", "main", "cli.main", lambda a: {"command": a["argv"][0]}),
    ("gee.cli", "sweep", "montecarlo.sweep", None),
    ("gee.montecarlo", "estimate_pf", "montecarlo.estimate_pf", _PLAN),
    ("gee.montecarlo", "estimate_pm", "montecarlo.estimate_pm", _PLAN),
    ("gee.montecarlo", "simulate_statistics", "montecarlo.simulate_statistics",
     lambda a: {"n": a["n"], "m": a["source"].m, "trials": a["trials"]}),
    ("gee.montecarlo", "make_threshold", "statistics.make_threshold", None),
    ("gee.cli", "make_threshold", "statistics.make_threshold", None),
    ("gee.cli", "exact_error_probs", "oracle.exact_error_probs",
     lambda a: {"stat": a["stat"].name, "n": a["n"], "m": a["p_null"].m}),
    ("gee.cli", "worst_case_bruteforce", "oracle.worst_case_bruteforce",
     lambda a: {"m": a["m"], "mesh": a["mesh"]}),
    ("gee.montecarlo", "uniform", "pmf.uniform", None),
    ("gee.montecarlo", "biuniform_worst_case", "pmf.biuniform_worst_case", None),
    ("gee.cli", "uniform", "pmf.uniform", None),
    ("gee.cli", "biuniform_worst_case", "pmf.biuniform_worst_case", None),
    ("gee.cli", "chi_square_functional", "pmf.chi_square_functional", None),
    ("gee.cli", "equalizing_tau", "exponents.equalizing_tau", None),
    ("gee.statistics", "kappa_bar", "exponents.kappa_bar", None),
]


class SpanRecorder:
    """Collects spans in memory.

    `span()` is a context manager that yields the live record
    [id, parent id, name, start, end, attributes]; end is set on exit.
    """

    def __init__(self) -> None:
        self._spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        with self._lock:
            sid = len(self._spans)
            record = [sid, stack[-1] if stack else None, name, time.perf_counter(), None, attrs]
            self._spans.append(record)
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record[4] = time.perf_counter()

    def records(self) -> list[dict]:
        """Finished spans as dicts with their self time (duration minus children)."""
        child_time = [0.0] * len(self._spans)
        for sid, parent, _, start, end, _ in self._spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out = []
        for sid, parent, name, start, end, attrs in self._spans:
            if end is None:
                continue
            out.append({
                "id": sid, "parent": parent, "name": name,
                "start": start, "end": end,
                "self_s": (end - start) - child_time[sid], **attrs,
            })
        return out


@contextlib.contextmanager
def wrapped(recorder: SpanRecorder):
    """Install span wrappers on every WRAPPED entry; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, attrs in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(recorder, original, span_name, attrs))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _traced(recorder: SpanRecorder, fn, name: str, attrs):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        extra = attrs(signature.bind(*args, **kwargs).arguments) if attrs else {}
        with recorder.span(name, **extra):
            return fn(*args, **kwargs)

    return call
