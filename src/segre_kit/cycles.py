"""Generalized cycles: signed sums of varieties wedged with fiber Kaehler
powers and log-potential moving factors.

A term is ``coeff * [fixed variety] ^ omega_alpha^e ^ prod <dd^c log sum w_i|f_i|^2>^p``.
Cycles live either on the base polydisk (BASE) or on the projectivized bundle
X x P^{r-1} (PROJ); in the latter case polynomials use the ambient variable
list (x_1..x_n, a_1..a_r).

Multiplicity evaluation is one loop over the terms: pure Lelong terms count
by point membership, any positive smooth-form power contributes zero, and
moving terms go through a rule chosen by the caller (the generic-slice order
rule for single first-power monomial factors, else the numeric oracle).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from segre_kit.errors import InputError, UndecidedError, UnsupportedTermError
from segre_kit.poly import (
    Polynomial,
    format_polynomial,
    strip_common_factor,
)
from segre_kit.scalars import Scalar

EXACT = "EXACT"
ORACLE = "ORACLE"


def _built_once(method):
    """A method of no arguments whose value is built on the first call and
    then returned from the instance dict, where the frozen dataclasses'
    equality, hash and repr do not look."""
    name = "_" + method.__name__

    @functools.wraps(method)
    def stored(self):
        try:
            return self.__dict__[name]
        except KeyError:
            value = self.__dict__[name] = method(self)
            return value

    return stored


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """BASE = polydisk in C^n; PROJ = X x P^{r-1} with fiber coordinates."""

    kind: str  # "BASE" | "PROJ"
    n: int
    r: int = 0

    def __post_init__(self):
        if self.kind not in ("BASE", "PROJ"):
            raise InputError(f"unknown space kind {self.kind}")
        if self.kind == "PROJ" and self.r < 1:
            raise InputError("projectivization needs fiber rank >= 1")

    @property
    def total_vars(self) -> int:
        return self.n + (self.r if self.kind == "PROJ" else 0)

    @property
    def dim(self) -> int:
        return self.n + (self.r - 1 if self.kind == "PROJ" else 0)

    def var_names(self):
        names = [f"x{i + 1}" for i in range(self.n)]
        if self.kind == "PROJ":
            names += [f"a{j + 1}" for j in range(self.r)]
        return names

    def to_record(self):
        if self.kind == "BASE":
            return {"kind": "BASE", "n": self.n}
        return {"kind": "PROJECTIVIZATION", "n": self.n, "r": self.r}


def base_space(n: int) -> Space:
    return Space("BASE", n)


def proj_space(n: int, r: int) -> Space:
    return Space("PROJ", n, r)


# ---------------------------------------------------------------------------
# varieties
# ---------------------------------------------------------------------------

class VarietyKind(Enum):
    COORDINATE_SUBSPACE = "COORDINATE_SUBSPACE"
    POINT = "POINT"
    WHOLE_SPACE = "WHOLE_SPACE"
    FIBER_HYPERSURFACE = "FIBER_HYPERSURFACE"


@dataclass(frozen=True)
class VarietyRef:
    """A supported irreducible variety.

    COORDINATE_SUBSPACE: base_zeros / fiber_zeros are the vanishing coordinates.
    POINT: an explicit base point.
    FIBER_HYPERSURFACE: {sum_i f_i(x) a_i = 0} on PROJ, args = (f_1..f_r).
    """

    kind: VarietyKind
    base_zeros: frozenset = frozenset()
    fiber_zeros: frozenset = frozenset()
    point: Optional[tuple] = None
    hypersurface: Optional[tuple] = None  # tuple of base-ambient Polynomials

    # -- constructors ------------------------------------------------------

    @staticmethod
    def whole_space() -> "VarietyRef":
        return VarietyRef(VarietyKind.WHOLE_SPACE)

    @staticmethod
    def coordinate_subspace(base_zeros=(), fiber_zeros=()) -> "VarietyRef":
        if not base_zeros and not fiber_zeros:
            return VarietyRef.whole_space()
        return VarietyRef(VarietyKind.COORDINATE_SUBSPACE,
                          base_zeros=frozenset(base_zeros),
                          fiber_zeros=frozenset(fiber_zeros))

    @staticmethod
    def point_at(coords) -> "VarietyRef":
        return VarietyRef(VarietyKind.POINT,
                          point=tuple(Scalar.from_value(c) for c in coords))

    @staticmethod
    def fiber_hypersurface(args: Sequence[Polynomial]) -> "VarietyRef":
        if all(p.is_zero() for p in args):
            raise InputError("zero fiber hypersurface")
        return VarietyRef(VarietyKind.FIBER_HYPERSURFACE, hypersurface=tuple(args))

    # -- geometry ------------------------------------------------------------

    def codim(self, space: Space) -> int:
        k = self.kind
        if k == VarietyKind.WHOLE_SPACE:
            return 0
        if k == VarietyKind.COORDINATE_SUBSPACE:
            return len(self.base_zeros) + len(self.fiber_zeros)
        if k == VarietyKind.FIBER_HYPERSURFACE:
            return 1
        if k == VarietyKind.POINT:
            return space.n
        raise InputError(f"codim of {k}")

    def is_empty(self, space: Space) -> bool:
        # all fiber coordinates cannot vanish simultaneously on P^{r-1}
        return (self.kind == VarietyKind.COORDINATE_SUBSPACE
                and space.kind == "PROJ"
                and len(self.fiber_zeros) >= space.r)

    def fiber_dimension(self, space: Space) -> int:
        """Dimension of the generic fiber of the support over the base."""
        if space.kind != "PROJ":
            return 0
        if self.kind in (VarietyKind.WHOLE_SPACE, VarietyKind.POINT):
            return space.r - 1
        if self.kind == VarietyKind.COORDINATE_SUBSPACE:
            return space.r - 1 - len(self.fiber_zeros)
        if self.kind == VarietyKind.FIBER_HYPERSURFACE:
            return space.r - 2
        raise InputError("fiber dimension")

    def contains_point(self, point) -> bool:
        """Point membership for BASE varieties (exact coordinates)."""
        pt = [Scalar.from_value(c) for c in point]
        k = self.kind
        if k == VarietyKind.WHOLE_SPACE:
            return True
        if k == VarietyKind.COORDINATE_SUBSPACE:
            return all(pt[v].is_zero() for v in self.base_zeros)
        if k == VarietyKind.POINT:
            return all((a - b).is_zero() for a, b in zip(self.point, pt))
        raise InputError(f"point membership undefined for {k}")

    # -- bookkeeping -----------------------------------------------------------

    @_built_once
    def key(self):
        k = self.kind
        if k == VarietyKind.WHOLE_SPACE:
            return ("whole",)
        if k == VarietyKind.COORDINATE_SUBSPACE:
            return ("coord", tuple(sorted(self.base_zeros)),
                    tuple(sorted(self.fiber_zeros)))
        if k == VarietyKind.POINT:
            return ("point", tuple((c.re, c.im) for c in self.point))
        if k == VarietyKind.FIBER_HYPERSURFACE:
            return ("fhyp", tuple(p.key() for p in self.hypersurface))
        raise InputError("key")

    def equations(self, space: Space, names=None) -> list:
        """Defining equations as text in the ambient variable ``names``
        (default ``space.var_names()``); a coordinate subspace's equations
        are its vanishing variables' names."""
        if names is None:
            names = space.var_names()
        k = self.kind
        if k == VarietyKind.WHOLE_SPACE:
            return []
        if k == VarietyKind.COORDINATE_SUBSPACE:
            return [names[v] for v in sorted(self.base_zeros)] \
                + [names[space.n + j] for j in sorted(self.fiber_zeros)]
        nv = space.total_vars
        if k == VarietyKind.POINT:
            eqs = [Polynomial.variable(nv, v) - Polynomial.constant(nv, c)
                   for v, c in enumerate(self.point)]
        elif k == VarietyKind.FIBER_HYPERSURFACE:
            acc = Polynomial.zero(nv)
            for j, f in enumerate(self.hypersurface):
                acc = acc + f.map_variables(range(space.n), nv) \
                    * Polynomial.variable(nv, space.n + j)
            eqs = [acc]
        else:
            raise InputError("equations")
        return [format_polynomial(q, names) for q in eqs]

    def describe(self, space: Space) -> str:
        k = self.kind
        if k == VarietyKind.WHOLE_SPACE:
            return "X"
        if k == VarietyKind.COORDINATE_SUBSPACE:
            return "[" + "=".join(self.equations(space)) + "=0]"
        if k == VarietyKind.POINT:
            return "[point (" + ", ".join(str(c) for c in self.point) + ")]"
        if k == VarietyKind.FIBER_HYPERSURFACE:
            names = space.var_names()
            parts = []
            base_names = names[:space.n]
            for j, f in enumerate(self.hypersurface):
                if f.is_zero():
                    continue
                parts.append(f"({format_polynomial(f, base_names)})*{names[space.n + j]}")
            return "[" + " + ".join(parts) + " = 0]"
        raise InputError("describe")


# ---------------------------------------------------------------------------
# moving factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingFactor:
    """<(dd^c log sum_i w_i |f_i|^2)^power> taken outside the common zero set.

    ``weights`` realizes alternate trivial metrics (default all 1);
    ``averaged`` marks Fubini-Study-averaged pushforward representatives whose
    value-level potential differs but whose multiplicities are those of the
    stated arguments.
    """

    args: tuple  # tuple of Polynomials in the ambient of the cycle's space
    power: int = 1
    weights: tuple = ()
    averaged: bool = False

    def __post_init__(self):
        if not self.args:
            raise InputError("moving factor needs at least one argument")
        if self.power < 1:
            raise InputError("moving factor power must be >= 1")
        if self.weights and len(self.weights) != len(self.args):
            raise InputError("weights length mismatch")

    @_built_once
    def key(self):
        w = tuple(Fraction(x) for x in self.weights) if self.weights else ()
        return (tuple(p.key() for p in self.args), self.power, w, self.averaged)

    def is_zero_current(self) -> bool:
        """All arguments constant: the potential is pluriharmonic, the factor is 0."""
        return all(p.is_constant() for p in self.args)

    def has_constant_arg(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.args)

    def reduced(self) -> "MovingFactor":
        """The factor with the arguments' common monomial factor h stripped:
        <h f'>^p = <f'>^p outside the zero set of h."""
        _, args = strip_common_factor(self.args)
        return MovingFactor(tuple(args), self.power, self.weights, self.averaged)

    def describe(self, space: Space) -> str:
        names = space.var_names()
        inner = " + ".join(
            (f"{w}*" if self.weights and self.weights[i] != 1 else "")
            + f"|{format_polynomial(p, names)}|^2"
            for i, (p, w) in enumerate(
                zip(self.args, self.weights or (1,) * len(self.args))))
        s = f"<dd^c log({inner})>"
        if self.power != 1:
            s += f"^{self.power}"
        if self.averaged:
            s += " (averaged)"
        return s

    def to_record(self, names):
        rec = {"args": [format_polynomial(p, names) for p in self.args],
               "power": self.power}
        if self.weights:
            rec["weights"] = [str(Fraction(w)) for w in self.weights]
        if self.averaged:
            rec["averaged"] = True
        return rec


# ---------------------------------------------------------------------------
# cycle terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleTerm:
    coefficient: Fraction
    fixed: VarietyRef
    omega_power: int = 0
    moving: tuple = ()  # tuple of MovingFactor

    def bidegree(self, space: Space) -> int:
        return (self.fixed.codim(space) + self.omega_power
                + sum(f.power for f in self.moving))

    @_built_once
    def key(self):
        return (self.fixed.key(), self.omega_power,
                tuple(sorted(f.key() for f in self.moving)))

    def is_pure_fixed(self) -> bool:
        return self.omega_power == 0 and not self.moving

    def describe(self, space: Space) -> str:
        parts = [self.fixed.describe(space)]
        if self.omega_power:
            parts.append(f"omega^{self.omega_power}")
        parts += [f.describe(space) for f in self.moving]
        coeff = "" if self.coefficient == 1 else f"{self.coefficient}*"
        return coeff + " ^ ".join(parts)

    def to_record(self, space: Space, names):
        """The term's record, with ``names`` = ``space.var_names()``."""
        return {
            "coefficient": str(self.coefficient),
            "fixed": {
                "kind": self.fixed.kind.value,
                "equations": self.fixed.equations(space, names),
            },
            "omega_power": self.omega_power,
            "moving": [f.to_record(names) for f in self.moving],
            "bidegree": self.bidegree(space),
            "provenance": EXACT,
        }


def term(coefficient, fixed: VarietyRef, omega_power=0, moving=()) -> CycleTerm:
    return CycleTerm(Fraction(coefficient), fixed, omega_power, tuple(moving))


# ---------------------------------------------------------------------------
# generalized cycles
# ---------------------------------------------------------------------------

class GeneralizedCycle:
    """A homogeneous-bidegree element of GZ(space), canonicalized."""

    __slots__ = ("space", "degree", "terms")

    def __init__(self, space: Space, degree: int, terms: Sequence[CycleTerm]):
        if degree < 0 or degree > space.dim:
            raise InputError(f"bidegree {degree} outside 0..{space.dim}")
        live = []
        for t in _expand_terms(space, terms):
            if t.coefficient == 0 or t.fixed.is_empty(space):
                continue
            if t.bidegree(space) != degree:
                raise InputError(
                    f"term {t.describe(space)} has bidegree {t.bidegree(space)}, "
                    f"cycle declares {degree}")
            live.append(t)
        # the stable sort puts equal keys side by side in their given order;
        # each key keeps its first term, with the group's coefficient sum
        live.sort(key=lambda t: (t.fixed.codim(space), t.key()))
        kept = []
        for _, group in itertools.groupby(live, CycleTerm.key):
            t, *same = group
            if same:
                t = CycleTerm(sum((s.coefficient for s in same), t.coefficient),
                              t.fixed, t.omega_power, t.moving)
            if t.coefficient:
                kept.append(t)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, *a):
        raise AttributeError("GeneralizedCycle is immutable")

    @staticmethod
    def zero(space: Space, degree: int) -> "GeneralizedCycle":
        return GeneralizedCycle(space, degree, [])

    @staticmethod
    def one(space: Space) -> "GeneralizedCycle":
        return GeneralizedCycle(space, 0, [term(1, VarietyRef.whole_space())])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GeneralizedCycle") -> "GeneralizedCycle":
        if other.space != self.space or other.degree != self.degree:
            raise InputError("cannot add cycles of different space or degree")
        return GeneralizedCycle(self.space, self.degree,
                                list(self.terms) + list(other.terms))

    def scale(self, c) -> "GeneralizedCycle":
        c = Fraction(c)
        return GeneralizedCycle(self.space, self.degree,
                                [CycleTerm(t.coefficient * c, t.fixed,
                                           t.omega_power, t.moving)
                                 for t in self.terms])

    def __eq__(self, other):
        return (isinstance(other, GeneralizedCycle) and self.space == other.space
                and self.degree == other.degree
                and [(t.key(), t.coefficient) for t in self.terms]
                == [(t.key(), t.coefficient) for t in other.terms])

    def __hash__(self):
        return hash((self.space, self.degree,
                     tuple((t.key(), t.coefficient) for t in self.terms)))

    def describe(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(t.describe(self.space) for t in self.terms)

    def __repr__(self):
        return f"<Cycle deg {self.degree} on {self.space.kind}: {self.describe()}>"

    def to_record(self):
        names = self.space.var_names()
        return {"space": self.space.to_record(), "degree": self.degree,
                "terms": [t.to_record(self.space, names) for t in self.terms]}


def _expand_terms(space: Space, terms):
    """Canonical rewrites: all-constant moving factors kill the term, and
    omega powers beyond the fiber dimension of the support vanish
    identically."""
    for t in terms:
        if not isinstance(t.coefficient, Fraction):
            t = CycleTerm(Fraction(t.coefficient), t.fixed, t.omega_power,
                          t.moving)
        if any(f.is_zero_current() for f in t.moving):
            continue
        if space.kind == "PROJ" and t.omega_power > 0:
            cap = t.fixed.fiber_dimension(space) \
                if t.fixed.kind == VarietyKind.COORDINATE_SUBSPACE else space.r - 1
            if t.omega_power > cap:
                continue
        yield t


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def meet(a: VarietyRef, b: VarietyRef) -> VarietyRef:
    """The proper intersection of two supported varieties: the whole space is
    the unit and coordinate subspaces meet when their zero sets are disjoint;
    anything else raises UnsupportedTermError."""
    if a.kind == VarietyKind.WHOLE_SPACE:
        return b
    if b.kind == VarietyKind.WHOLE_SPACE:
        return a
    ka, kb = a.kind, b.kind
    if ka == kb == VarietyKind.COORDINATE_SUBSPACE:
        if a.base_zeros & b.base_zeros or a.fiber_zeros & b.fiber_zeros:
            raise UnsupportedTermError(
                "improper intersection of coordinate subspaces")
        return VarietyRef.coordinate_subspace(a.base_zeros | b.base_zeros,
                                              a.fiber_zeros | b.fiber_zeros)
    raise UnsupportedTermError(f"wedge of {ka.value} with {kb.value} unsupported")


def wedge(c: GeneralizedCycle, factor) -> GeneralizedCycle:
    """Wedge with omega_alpha^j (pass ("omega", j)) or a MovingFactor.
    Distributes over terms and re-canonicalizes."""
    if isinstance(factor, tuple) and len(factor) == 2 and factor[0] == "omega":
        j = factor[1]
        if c.space.kind != "PROJ":
            raise InputError("omega_alpha lives on the projectivization")
        new_deg = c.degree + j
        if new_deg > c.space.dim:
            raise InputError("bidegree overflow in wedge")
        return GeneralizedCycle(
            c.space, new_deg,
            [CycleTerm(t.coefficient, t.fixed, t.omega_power + j, t.moving)
             for t in c.terms])
    if isinstance(factor, MovingFactor):
        new_deg = c.degree + factor.power
        if new_deg > c.space.dim:
            raise InputError("bidegree overflow in wedge")
        return GeneralizedCycle(
            c.space, new_deg,
            [CycleTerm(t.coefficient, t.fixed, t.omega_power,
                       t.moving + (factor,)) for t in c.terms])
    raise InputError(f"cannot wedge with {factor!r}")


# ---------------------------------------------------------------------------
# fixed / moving decomposition
# ---------------------------------------------------------------------------

def fixed_moving_split(c: GeneralizedCycle):
    """Siu-type decomposition: the fixed part collects the pure Lelong terms
    whose variety has codimension exactly the cycle bidegree; the moving part
    is the remainder."""
    fixed, moving = [], []
    for t in c.terms:
        if t.is_pure_fixed() and t.fixed.codim(c.space) == c.degree:
            fixed.append(t)
        else:
            moving.append(t)
    return (GeneralizedCycle(c.space, c.degree, fixed),
            GeneralizedCycle(c.space, c.degree, moving))


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------

def localize(factors, fixed: VarietyRef, point):
    """The moving factors of [fixed] ^ prod <f>^p at ``point``, on the fixed
    part: each factor reduced, its arguments restricted to ``fixed`` (the
    whole space or a coordinate subspace) and renumbered on the kept
    coordinates.  Returns (factors, point on the kept coordinates), or None
    when the multiplicity there is 0: the point is off the fixed part, or a
    factor's restricted arguments are all constant (a pluriharmonic
    potential) or fewer than its power (a residue-free power above the top
    level)."""
    if fixed.kind not in (VarietyKind.WHOLE_SPACE,
                          VarietyKind.COORDINATE_SUBSPACE):
        raise UndecidedError("moving factor against unsupported fixed part")
    if any(p.nvars != len(point) for f in factors for p in f.args):
        raise InputError("point dimension mismatch")
    if not fixed.contains_point(point):
        return None
    keep = [v for v in range(len(point)) if v not in fixed.base_zeros]
    mapping = {v: j for j, v in enumerate(keep)}
    local = []
    for f in factors:
        f = f.reduced()
        args = []
        for p in f.args:
            for v in fixed.base_zeros:
                p = p.restrict_zero(v)
            if not p.is_zero():
                args.append(p.map_variables(mapping, len(keep))
                            if fixed.base_zeros else p)
        if not args:
            raise UndecidedError("fixed part sits inside a factor's zero set")
        if all(p.is_constant() for p in args) or f.power > len(args):
            return None
        local.append(MovingFactor(tuple(args), f.power, f.weights, f.averaged))
    return local, [Scalar.from_value(point[v]) for v in keep]


def _exact_moving_multiplicity(t: CycleTerm, point):
    """Exact rule for a single moving factor of monomial arguments; returns
    an int or raises UndecidedError when no rule applies."""
    if len(t.moving) != 1:
        raise UndecidedError("no exact rule for products of distinct moving factors",
                             term=t)
    factor = t.moving[0]
    if factor.has_constant_arg():
        # smooth potential: positive-bidegree smooth factor has multiplicity 0
        return 0
    if any(p.as_monomial() is None for p in factor.args):
        raise UndecidedError("moving factor with non-monomial arguments", term=t)
    reduced = factor.reduced()
    if reduced.has_constant_arg() or reduced.power >= len(reduced.args):
        # the residue-free power at or above the top level is the zero current
        return 0
    local = localize([reduced], t.fixed, point)
    if local is None:
        return 0
    (factor,), pt = local
    if factor.power != 1:
        raise UndecidedError("no exact rule for this moving power", term=t)
    # the generic-slice order: the least order at the point of an argument
    return min(sum(e for e, c in zip(p.as_monomial()[1], pt) if c.is_zero())
               for p in factor.args)


def _term_sum(c: GeneralizedCycle, point,
              moving_rule: Callable[[CycleTerm], int]) -> int:
    """Sum of coefficient times multiplicity over the terms at a base point.

    Pure fixed terms count 1 when the point lies on the variety; any term
    carrying a positive smooth-form power contributes 0; moving terms count
    ``moving_rule(term)``.
    """
    if c.space.kind != "BASE":
        raise InputError("multiplicities are evaluated on the base space")
    if len(point) != c.space.n:
        raise InputError("point dimension mismatch")
    total = Fraction(0)
    for t in c.terms:
        if t.omega_power > 0:
            continue
        m = moving_rule(t) if t.moving else int(t.fixed.contains_point(point))
        total += t.coefficient * m
    if total.denominator != 1:
        raise InputError(f"non-integer multiplicity {total}")
    return int(total)


def multiplicity_at(c: GeneralizedCycle, point,
                    oracle: Optional[Callable] = None) -> int:
    """The integer multiplicity of the cycle at a base point; moving terms go
    through the exact order rule, else the supplied oracle."""

    def rule(t: CycleTerm) -> int:
        try:
            return _exact_moving_multiplicity(t, point)
        except UndecidedError:
            if oracle is None:
                raise
            return oracle(list(t.moving), t.fixed, point)

    return _term_sum(c, point, rule)

