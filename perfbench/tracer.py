"""In-memory span tracer that wraps a package's public functions and methods.

A span is one call of a wrapped function. Its self time is its duration minus
the part of that interval covered by its direct child spans. Spans are folded
into per-(scope, name) aggregates as they close, so memory stays flat however
many calls a run makes. A scope names the entry point a span runs under (for
example the training loop or a rollout); it is set by the spans listed in
`scopes` and inherited by everything they call.

Wrapping replaces attributes on the modules and classes themselves, so every
caller that looks the name up at call time is traced; `installed()` restores
the originals on exit. Nothing in the traced package changes on disk.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span stack plus aggregates.

    before maps a span name to `fn(args, kwargs)`, called as the span opens;
    hooks maps a span name to `fn(args, kwargs, result, duration_ns)`, called
    after it closes. samples names the spans whose individual durations are
    kept for percentiles. scopes maps a span name to the scope it opens.
    """

    def __init__(self, clock=time.perf_counter_ns, before=None, hooks=None, samples=(),
                 scopes=None):
        self.clock = clock
        self.before = dict(before or {})
        self.hooks = dict(hooks or {})
        self.samples = {name: [] for name in samples}
        self.scopes = dict(scopes or {})
        self.scope = "other"
        self.stats = {}  # (scope, name) -> SpanStats
        self._stack = []  # open frames: [name, start_ns, child_ns]
        self._restore = []

    # --- span bookkeeping ---

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> int:
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.scope, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = SpanStats()
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child
        kept = self.samples.get(name)
        if kept is not None:
            kept.append(dur)
        return dur

    def get(self, name: str, scopes=None) -> SpanStats:
        """Aggregate of one span name over the given scopes (all if None)."""
        out = SpanStats()
        for (scope, n), st in self.stats.items():
            if n == name and (scopes is None or scope in scopes):
                out.calls += st.calls
                out.total_ns += st.total_ns
                out.self_ns += st.self_ns
        return out

    # --- wrapping ---

    def wrap(self, name: str, fn):
        pre = self.before.get(name)
        hook = self.hooks.get(name)
        scope = self.scopes.get(name)
        enter, exit_ = self.enter, self.exit
        if pre is None and hook is None and scope is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            return traced

        @functools.wraps(fn)
        def traced_with_hook(*args, **kwargs):
            outer = self.scope
            if scope is not None:
                self.scope = scope
            try:
                if pre is not None:
                    pre(args, kwargs)
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = exit_()
                if hook is not None:
                    hook(args, kwargs, result, dur)
                return result
            finally:
                self.scope = outer

        return traced_with_hook

    @contextlib.contextmanager
    def installed(self, modules, prefix: str = ""):
        """Trace the public functions and methods defined in `modules`.

        Span names are `<module name without prefix>.<qualname>`. Functions
        are replaced wherever one of the modules binds them, so names
        imported from a sibling module are traced too.
        """
        wrappers = {}
        try:
            for mod in modules:
                short = mod.__name__[len(prefix):] if mod.__name__.startswith(prefix) else mod.__name__
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isclass(value) and value.__module__ == mod.__name__:
                        self._wrap_class(value, f"{short}.{value.__qualname__}")
                    elif inspect.isfunction(value) and value.__module__ == mod.__name__:
                        wrappers[value] = self.wrap(f"{short}.{value.__qualname__}", value)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrappers[value])
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _wrap_class(self, cls, qualname: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue  # properties and data
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return float(ordered[rank - 1])
