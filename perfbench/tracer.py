"""Outside-in span recorder for the surfcert benchmark.

The recorder wraps library functions from outside the package. A module that
did ``from .geometry import clip_areas_total`` holds its own reference, so a
function is replaced at *every* ``surfcert`` module (and class) that binds the
same object, and every binding is put back by ``uninstall``.

Spans are kept in memory as ``(name, start, end, parent, op)`` rows and
written out when the run ends. Counters sit next to them. Self time of a span
is its duration minus the durations of its direct child spans; spans nest
strictly because the benchmark is single-threaded.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PACKAGE = "surfcert"


class Tracer:
    """Span and counter recorder; ``wrap_*`` patch bindings, ``uninstall`` restores them."""

    def __init__(self):
        # [name, start, end, parent index or -1, op id, hook seconds inside]
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.hook_s = 0.0  # time spent in before/after hooks, kept out of every duration
        self.op = None  # operation id stamped on new spans ("setup" or an int)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original value)

    # ------------------------------------------------------------------
    # patching

    def wrap_function(self, func, name: str, before=None, after=None):
        """Replace ``func`` wherever a module of the package binds it.

        before(args, kwargs) runs outside the span and returns a state value;
        after(state, result, args, kwargs) runs after the span closes. Both
        may add to ``self.counters``; their time is kept in ``hook_s`` and
        taken out of the enclosing spans. Returns the owners that were patched.
        """
        wrapper = self._make_wrapper(func, name, before, after)
        owners = []
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._patch(mod, attr, wrapper)
                    owners.append(f"{mod.__name__}.{attr}")
        if not owners:
            raise LookupError(f"no module of {PACKAGE!r} binds {name}")
        return owners

    def wrap_classmethod(self, cls, attr: str, name: str, before=None, after=None):
        """Replace a classmethod on ``cls`` with a traced one."""
        original = vars(cls)[attr]
        if not isinstance(original, classmethod):
            raise TypeError(f"{cls.__name__}.{attr} is not a classmethod")
        wrapper = self._make_wrapper(original.__func__, name, before, after)
        self._patch(cls, attr, classmethod(wrapper))
        return [f"{cls.__module__}.{cls.__name__}.{attr}"]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _make_wrapper(self, func, name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                h0 = clock()
                state = before(args, kwargs)
                self.hook_s += clock() - h0
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op, self.hook_s])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                row = spans[idx]
                row[2] = clock()
                row[5] = self.hook_s - row[5]
                stack.pop()
            if after is not None:
                h0 = clock()
                after(state, result, args, kwargs)
                self.hook_s += clock() - h0
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # derived numbers

    def self_times(self, ops=None) -> dict:
        """Per span name: [calls, total seconds, self seconds] over spans of ``ops``."""
        dur = [t1 - t0 - hook for _n, t0, t1, _p, _o, hook in self.spans]
        child = [0.0] * len(self.spans)
        for i, row in enumerate(self.spans):
            if row[3] >= 0:
                child[row[3]] += dur[i]
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, row in enumerate(self.spans):
            if ops is not None and row[4] not in ops:
                continue
            acc = out[row[0]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return dict(out)

    def covered_time(self, op) -> float:
        """Seconds of operation ``op`` spent inside some top-level span."""
        return sum(t1 - t0 - hook for _n, t0, t1, parent, o, hook in self.spans if o == op and parent < 0)

    def dump(self, path: str) -> None:
        doc = {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "op": o, "hook_s": h}
                for n, t0, t1, p, o, h in self.spans
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _package_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def bindings_snapshot() -> dict:
    """Identity of every attribute of every loaded module and class of the package."""
    snap = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = id(cvalue)
    return snap
