"""In-memory spans around the program's layer boundaries, installed from the
benchmark's side by rebinding module-level names; nothing under ``src/`` is
edited.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation id.  Self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Sequence

# module -> public functions that get a span each
TRACED = {
    "cli": ["main", "load_spec", "run_spec", "run_mass"],
    "poly": ["parse_polynomial", "classify_structure", "determinant"],
    "tower": ["tower_residue", "pushforward_cycle"],
    "cycles": ["wedge", "multiplicity_at", "fixed_moving_split"],
    "engine": ["compute_Mg", "ring_M_Galpha", "segre_numbers", "compute_Ma",
               "singular_metric_forms"],
    "numeric": ["epsilon_mass", "mass_balance_check", "contour_root_count",
                "perturbation_root_count", "confirm_origin_only_zero",
                "crofton_moving_multiplicity"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
QMC, RESULTANT = "numeric.qmc", "numeric.resultant"


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores
    every binding it replaced."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, points: bool = False):
        spans, stack, errors, counts = (self.spans, self.stack, self.errors,
                                        self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if points:
                counts[f"{name}.points"] += len(result)
            return result

        return wrapper

    def _counting_init(self, name: str, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, orig, wrapper):
        """Point every segre_kit module-level name bound to ``orig`` at the
        wrapper, so calls through any import path are seen."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "segre_kit"
                                   or modname.startswith("segre_kit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def _patch(self, target, attr, value):
        if attr in vars(target):
            old = vars(target)[attr]
            self._undo.append(lambda: setattr(target, attr, old))
        else:
            self._undo.append(lambda: delattr(target, attr))
        setattr(target, attr, value)

    def install(self):
        import sympy
        from scipy.stats import qmc

        for mod, fns in TRACED.items():
            module = importlib.import_module(f"segre_kit.{mod}")
            for fn in fns:
                orig = getattr(module, fn)
                self._rebind(orig, self._span(f"{mod}.{fn}", orig))
        from segre_kit.poly import Polynomial
        from segre_kit.scalars import Scalar

        for cls, name in ((Polynomial, "poly.Polynomial.inits"),
                          (Scalar, "scalars.Scalar.inits")):
            self._patch(cls, "__init__", self._counting_init(name, cls.__init__))
        self._patch(qmc.Halton, "random",
                    self._span(QMC, qmc.Halton.random, points=True))
        self._patch(sympy, "resultant", self._span(RESULTANT, sympy.resultant))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def per_name(self) -> Dict[str, dict]:
        """calls, self seconds and errors per span name."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in
               SPAN_NAMES + [QMC, RESULTANT]}
        for span, own in zip(self.spans, self_times(self.spans)):
            rec = out[span[0]]
            rec["calls"] += 1
            rec["self_s"] += own
        for name, rec in out.items():
            rec["errors"] = self.errors[name]
        return out

    def write(self, path):
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
