"""Per-layer tracing of ``collapsing`` by rebinding its public functions.

The package's modules import functions from each other by name (``from
.spaces import norm_eval`` in ``family``, ``matrixform`` and
``graphtools``; ``from .linalg import solve_square`` in ``lp`` and
``simplexopt``), so patching one module would miss most calls.  The tracer
instead wraps every public function of the layer modules once and replaces
each attribute, in every loaded ``collapsing`` module, that is bound to the
original function object.  ``uninstall`` puts the originals back.

A call records one span (name, start, end, parent) in flat arrays; a call
that returns a generator records one span per ``next`` on it, with the
consumer as parent.  ``aggregate`` turns the spans into per-function call
counts, inclusive time and self time (inclusive minus direct children).
Helpers in ``scalars`` and private functions are not wrapped: their time is
the caller's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from array import array

import numpy as np

# The measured layers; bounds, graphtools and gf are deliberately left out.
LAYERS = ("cli", "family", "subsets", "spaces", "lp", "linalg", "simplexopt", "matrixform",
          "constructions")


def _norm_kind(args, result):
    space = args[0]
    if space.kind == "lp":
        return "linf" if space.p == math.inf else f"lp{space.p}"
    return space.kind


def _singular(args, result):
    return "singular" if result is None else "regular"


# Functions whose spans carry a tag derived from the call and its result.
TAGGERS = {"spaces.norm_eval": _norm_kind, "linalg.solve_square": _singular}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.stack = [-1]
        self._saved: list = []

    def _id(self, table: list, value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.tag.append(-1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _traced_items(self, gen, nid: int):
        while True:
            idx = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def _wrap(self, fn, name: str):
        nid = self._id(self.names, name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tagger is not None:
                self.tag[idx] = self._id(self.tags, tagger(args, result))
            if isinstance(result, types.GeneratorType):
                return self._traced_items(result, nid)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"collapsing.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "collapsing" and not modname.startswith("collapsing."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._saved.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def aggregate(self) -> dict:
        """{name: {"calls", "total_s", "self_s", "by_tag": {tag: (calls, total_s)},
        "by_parent": {parent name: calls}}} over all recorded spans."""
        n = len(self.start)
        out: dict = {}
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        tag = np.frombuffer(self.tag, dtype=np.int32)
        dur = end - start
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_time = dur - children
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        for nid, fname in enumerate(self.names):
            sel = name == nid
            calls = int(sel.sum())
            if not calls:
                continue
            entry = {
                "calls": calls,
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "by_tag": {},
                "by_parent": {},
            }
            for tid, tname in enumerate(self.tags):
                tsel = sel & (tag == tid)
                if tsel.any():
                    entry["by_tag"][tname] = (int(tsel.sum()), float(dur[tsel].sum()))
            pids, counts = np.unique(parent_name[sel], return_counts=True)
            for pid, count in zip(pids.tolist(), counts.tolist()):
                entry["by_parent"][self.names[pid] if pid >= 0 else "-"] = count
            out[fname] = entry
        return out
