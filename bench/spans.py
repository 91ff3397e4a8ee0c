"""Spans and counters around frobsplit's public names, installed from outside.

`Tracer.install()` rebinds every public function of the span modules in
every frobsplit namespace that binds it (so `cli.is_kgfr_legendre`,
`fibration.gfr_p1_bounded` and `frobsplit.gfs_p1` all reach one wrapper),
plus the MPoly arithmetic methods.  The constructors of P1Divisor and the
two field-element classes are counted, not spanned: they run millions of
times, and a span each would swamp what it measures.

Private kernels (`_pruned_times`, `_boundary_poly`, ...) are never
wrapped: later changes rewrite or delete them, and a span that vanishes
cannot back a claim.  arith functions are not spanned either; their time
counts as self time of the layer that calls them.

Spans stay in memory as (id, parent id, query index, name, start, end) and
are written out once, after the last query.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

SPAN_MODULES = ["cli", "fibration", "gsplit", "elliptic", "mpoly", "fedder", "kappa"]
MPOLY_METHODS = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__pow__", "coeff", "degree", "degree_on", "constant_term",
                 "is_homogeneous_on", "frobenius_twist", "power_qm1", "eval_univariate"]
COUNTED_INITS = [("gsplit", "P1Divisor", "gsplit.P1Divisor.new"),
                 ("arith", "FieldElement", "arith.elem_new"),
                 ("arith", "ExtFieldElement", "arith.elem_new")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = -1

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.query, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
        return wrapper

    def counted_init(self, key: str, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {name: sys.modules[f"frobsplit.{name}"] for name in SPAN_MODULES + ["arith"]}
        namespaces = list(mods.values()) + [sys.modules["frobsplit"]]
        wrappers = {}
        for short in SPAN_MODULES:
            for attr, obj in vars(mods[short]).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != f"frobsplit.{short}"):
                    continue
                wrappers[id(obj)] = (obj, self.span(f"{short}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(ns, attr, wrappers[id(obj)][1])
        mpoly_cls = mods["mpoly"].MPoly
        for meth in MPOLY_METHODS:
            setattr(mpoly_cls, meth, self.span(f"mpoly.MPoly.{meth}", vars(mpoly_cls)[meth]))
        for mod, cls_name, key in COUNTED_INITS:
            cls = getattr(mods[mod], cls_name)
            cls.__init__ = self.counted_init(key, cls.__init__)

    def summary(self) -> dict:
        """Per-name calls and self time, per-module self time, and the counters."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            own = end - start - child_time[sid]
            self_s[name] += own
            self_s[name.split(".")[0]] += own
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
