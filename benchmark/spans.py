"""In-memory span tracing of a package's functions, installed from outside it.

A Tracer replaces a function at every binding its callers use (each
module attribute that holds the same object, or a method on its class)
with a wrapper that records one Span per call: name, start, end, parent
span and operation id.  Spans stay in memory until the run writes them
out; `restore` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import astuple, dataclass, fields
from time import perf_counter

PACKAGE = "vaxsel"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    attrs: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


SPAN_FIELDS = tuple(f.name for f in fields(Span))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """Records spans for the functions passed to `install`.

    `op` is the operation id stamped on new spans; the caller advances it
    and calls `take_op` between operations.  Single-threaded: one call
    stack.
    """

    def __init__(self):
        self.op = 0
        self._current = []  # Span objects of the operation in progress
        self._done = []  # finished spans as tuples of plain values
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original), in install order

    def _wrap(self, name, fn, before=None, after=None):
        current, stack = self._current, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self._next_id, name, stack[-1].id if stack else None, self.op)
            self._next_id += 1
            current.append(span)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        return traced

    def install(self, name, original, before=None, after=None, owner=None):
        """Wrap `original` wherever the package binds it.

        With `owner` (a class) the method is replaced on that class only;
        otherwise every attribute of every loaded module under PACKAGE
        that holds `original` is replaced.
        """
        wrapper = self._wrap(name, original, before, after)
        if owner is not None:
            targets = [(owner, original.__name__)]
        else:
            targets = [
                (module, attr)
                for mod_name, module in sorted(sys.modules.items())
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                for attr, value in list(vars(module).items())
                if value is original
            ]
        if not targets:
            raise LookupError(f"no binding of {name} found under {PACKAGE}")
        for owner_obj, attr in targets:
            setattr(owner_obj, attr, wrapper)
            self._patches.append((owner_obj, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_op(self) -> list:
        """Spans recorded since the last call; they are kept for `write_jsonl`.

        Kept spans become tuples of plain values, which the garbage
        collector stops scanning, so a long run's spans do not slow the
        operations traced after them.
        """
        spans = list(self._current)
        self._current.clear()
        for s in spans:
            attrs = tuple(sorted(s.attrs.items())) if s.attrs else ()
            self._done.append(astuple(s)[:-1] + (attrs,))
        return spans

    def write_jsonl(self, handle):
        for rec in self._done:
            span = dict(zip(SPAN_FIELDS, rec))
            span["attrs"] = dict(span["attrs"])
            handle.write(json.dumps(span) + "\n")
