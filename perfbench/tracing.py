"""In-memory spans recorded by wrappers patched in from outside the program.

A span is a dict with ``id``, ``parent`` (id or None), ``name``, ``start`` and
``end`` (``time.perf_counter`` seconds) plus optional attributes; every span of
one traced iteration carries the tracer's ``run_id``.  Spans stay in memory
until the caller writes them out.

Wrappers are bound into every namespace that holds the wrapped object, because
the program imports functions by name (``from .connection import fill_in``) as
well as through module attributes.  ``Tracer.installed`` removes them on exit,
so code outside that block runs the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, describe=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``describe(args,
        kwargs, result)`` returns attributes added after the span has ended, so
        its cost is not timed.  A call that raises gets an ``error`` attribute.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name(args, kwargs) if callable(name) else name,
                "run_id": self.run_id,
            }
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                rec.update(describe(args, kwargs, result))
            return result

        return wrapper

    def patch(self, owner, attr, name, describe=None, package="fockbench"):
        """Replace ``owner.attr`` by a traced wrapper.

        For a class the attribute is replaced on the class.  For a module every
        module of ``package`` that binds the same function object is patched.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, describe)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
                for key, val in list(vars(mod).items())
                if val is original
            ]
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def remove(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attr, name, describe)`` target for the block."""
        try:
            for owner, attr, name, describe in targets:
                self.patch(owner, attr, name, describe)
            yield self
        finally:
            self.remove()


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def ancestors(by_id, span):
    """Names of the spans above ``span``, innermost first; ``by_id`` maps span
    ids to spans."""
    out = []
    parent = span["parent"]
    while parent is not None:
        out.append(by_id[parent]["name"])
        parent = by_id[parent]["parent"]
    return out
