"""In-memory span tracer that wraps package functions from outside.

`Tracer` replaces module-level functions and class methods of the package
with timing wrappers for the duration of a `with` block and restores them
afterwards.  Every call becomes a span (name, start, end, parent span, op id);
spans stay in memory until the benchmark writes them out.  A wrapped
attribute that no longer exists raises at once, so a rename in the package
breaks the traced run instead of silently zeroing a layer.
"""

import functools
import time
from collections import Counter


class MissingTraceTarget(RuntimeError):
    """A function or method the tracer must wrap is not defined."""


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.counts = Counter()  # event counters recorded by the hooks
        self.op_id = -1  # set by the caller before each op
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace `owner.attr` by a span-recording wrapper.

        `owner` is a module or a class; the attribute must be defined on it
        directly (an inherited method would silently trace the base class).
        `before(args, kwargs)` runs before the call and `after(args, result)`
        after a call that returned, both for event counts.
        """
        fn = vars(owner).get(attr)
        if fn is None or not callable(fn):
            raise MissingTraceTarget(
                f"{getattr(owner, '__name__', owner)}.{attr} is not defined; "
                f"the traced layer '{name}' cannot be measured"
            )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            if before is not None:
                before(args, kwargs)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
        return False

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Spans nest strictly (one thread, stack discipline), so a span's self
        time is its duration minus the durations of its direct children.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, name in enumerate(self.names):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + dur[i], own + dur[i] - child[i])
        return out

    def root_seconds(self):
        """Summed duration of the spans that have no parent."""
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0
        )

    def columns(self):
        """The spans as parallel lists, for writing out."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = min(self.start, default=0.0)
        return {
            "names": names,
            "name": [index[n] for n in self.names],
            "start_s": [round(s - t0, 7) for s in self.start],
            "end_s": [round(e - t0, 7) for e in self.end],
            "parent": self.parent,
            "op": self.op,
        }
