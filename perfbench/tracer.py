"""Outside-in span tracer for the trijunction modules.

The tracer never edits the package.  It replaces each listed function, in
every ``trijunction.*`` namespace that binds it, with a wrapper that records
a span (name, start, end, parent span, op id, tag).  Modules import names
directly (``picard`` binds ``F_eval``), so patching the defining module alone
would miss most calls.  Spans stay in memory; :meth:`Tracer.dump` writes
them once, at the end of a run.

A span's self time is its duration minus the time its direct children cover.
Spans recorded while ``tag`` is ``"check"`` belong to correctness checks and
never count toward an op's per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "trijunction"


def targets(metric_names) -> tuple[list[tuple], list[tuple]]:
    """The (module, function) pairs to time and (module, class) pairs to count.

    They are read off the per-layer metric names: ``<module>.<function>.calls``
    names a traced function and ``<module>.<class>.count`` a class whose
    constructions are counted; other names are not the tracer's.
    """
    traced, counted = [], []
    for name in metric_names:
        parts = tuple(name.split("."))
        if len(parts) == 3 and parts[2] == "calls":
            traced.append(parts[:2])
        elif len(parts) == 3 and parts[2] == "count":
            counted.append(parts[:2])
    return traced, counted


class Tracer:
    """Span recorder; one per process, single-threaded."""

    def __init__(self, traced, counted=()):
        self.traced, self.counted = list(traced), list(counted)
        self.spans: list[tuple | None] = []   # (name, start, end, parent, op, tag)
        self.counts: dict[tuple, int] = defaultdict(int)    # (name, op, tag) -> n
        self.op = None
        self.tag = "op"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op, self.tag)

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, self.op, self.tag)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict | None = None):
        """Patch every namespace that binds a listed object; return self.

        ``modules`` maps short module names to module objects and defaults to
        the loaded ``trijunction`` package.  A listed name that no longer
        exists is recorded in ``absent`` and skipped.
        """
        if modules is None:
            modules = loaded_package_modules()
        self.absent = []
        for mod_name, fn_name in self.traced:
            name = f"{mod_name}.{fn_name}"
            home = modules.get(mod_name)
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name in self.counted:
            name = f"{mod_name}.{cls_name}"
            cls = getattr(modules.get(mod_name), cls_name, None)
            init = getattr(cls, "__post_init__", None) if cls is not None else None
            if init is None:
                self.absent.append(name)
                continue
            self._undo.append((cls, "__post_init__", init))
            setattr(cls, "__post_init__", self._count(name, init))
        return self

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def records(self) -> list[dict]:
        """Finished spans as dicts with ids; unfinished ones are dropped."""
        return [{"id": sid, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "tag": s[5]}
                for sid, s in enumerate(self.spans) if s is not None]

    def count_records(self) -> list[dict]:
        return [{"name": name, "op": op, "tag": tag, "count": n}
                for (name, op, tag), n in self.counts.items()]

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.records(), "counts": self.count_records(),
                       "absent": self.absent}, fh)


def loaded_package_modules() -> dict:
    """Short name -> module for every loaded ``trijunction`` module."""
    out = {}
    for full, module in list(sys.modules.items()):
        if module is None:
            continue
        if full == PACKAGE:
            out[PACKAGE] = module
        elif full.startswith(PACKAGE + "."):
            out[full[len(PACKAGE) + 1:]] = module
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other; their durations add up to the covered time.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def per_op_layers(spans: list[dict], counts: list[dict]) -> dict[object, dict]:
    """op -> {metric: value} with calls, self_ms and construction counts.

    Spans and counts tagged as checks are left out.
    """
    selfs = self_times(spans)
    ops: dict[object, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["tag"] != "op" or s["op"] is None:
            continue
        m = ops[s["op"]]
        m[f"{s['name']}.calls"] += 1
        m[f"{s['name']}.self_ms"] += 1e3 * selfs[s["id"]]
    for c in counts:
        if c["tag"] == "op" and c["op"] is not None:
            ops[c["op"]][f"{c['name']}.count"] += c["count"]
    return ops


def layer_medians(ops: dict, op_ids: list, traced, counted) -> dict[str, float]:
    """Median over ``op_ids`` of each layer metric; an op without a span reads 0."""
    names = [f"{m}.{f}.{kind}" for m, f in traced for kind in ("calls", "self_ms")]
    names += [f"{m}.{c}.count" for m, c in counted]
    return {name: statistics.median(ops.get(op, {}).get(name, 0.0) for op in op_ids)
            for name in names}
