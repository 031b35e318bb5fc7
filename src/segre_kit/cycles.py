"""Generalized cycles: signed sums of varieties wedged with fiber Kaehler
powers and log-potential moving factors.

A term is ``coeff * [fixed variety] ^ omega_alpha^e ^ prod <dd^c log sum w_i|f_i|^2>^p``.
Cycles live either on the base polydisk (BASE) or on the projectivized bundle
X x P^{r-1} (PROJ); in the latter case polynomials use the ambient variable
list (x_1..x_n, a_1..a_r), a layout that only ``Space`` reads and writes.

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

from segre_kit.errors import (
    InputError,
    UndecidedError,
    UnsupportedInputError,
    UnsupportedTermError,
)
from segre_kit.poly import (
    MAX_VARS,
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
    """BASE = polydisk in C^n (fiber rank r = 0); PROJ = X x P^{r-1} with
    fiber coordinates a_1..a_r."""

    n: int
    r: int = 0

    @property
    def kind(self) -> str:
        return "PROJ" if self.r else "BASE"

    @property
    def total_vars(self) -> int:
        return self.n + self.r

    @property
    def dim(self) -> int:
        return self.n + (self.r - 1 if self.r else 0)

    def var_names(self):
        return ([f"x{i + 1}" for i in range(self.n)]
                + [f"a{j + 1}" for j in range(self.r)])

    def to_record(self):
        if self.kind == "BASE":
            return {"kind": "BASE", "n": self.n}
        return {"kind": "PROJECTIVIZATION", "n": self.n, "r": self.r}

    # -- the ambient (x, a) of PROJ: the n base exponents, then a_1..a_r -----

    def lift(self, fs) -> Polynomial:
        """sum_j f_j a_j from f_j given as a sequence (f_1..f_r) or a {j: f_j}
        dict, each on the base or on the ambient free of the a (its first n
        exponents are read): an exponent shift, terms in the given order."""
        n, r = self.n, self.r
        pairs = list(fs.items() if isinstance(fs, dict) else enumerate(fs))
        if self.kind != "PROJ" or any(not 0 <= j < r for j, _ in pairs):
            raise InputError("lift needs one polynomial per fiber coordinate")
        unit = [(0,) * j + (1,) + (0,) * (r - 1 - j) for j in range(r)]
        return Polynomial(n + r, ((m[:n] + unit[j], c) for j, f in pairs
                                  for m, c in f.terms.items()))

    def split(self, p: Polynomial) -> dict:
        """{fiber exponents e: terms {base exponents: coefficient} of p_e}
        with p = sum_e p_e(x) a^e, both in the order of p's terms."""
        parts = {}
        for m, c in p.terms.items():
            parts.setdefault(m[self.n:], {})[m[:self.n]] = c
        return parts

    def chart(self, p: Polynomial, c: int) -> Polynomial:
        """p on the affine chart a_c = 1 in its coordinates: x, then the a_j
        with j != c in order."""
        k = self.n + c
        return Polynomial(self.total_vars - 1, ((m[:k] + m[k + 1:], v)
                                                for m, v in p.terms.items()))

    def hyperplane(self, var: int) -> VarietyRef:
        """[z_var = 0] for an ambient variable index."""
        zeros = ([var], []) if var < self.n else ([], [var - self.n])
        return VarietyRef.coordinate_subspace(*zeros)

    def dehomogenize(self, p: Polynomial, c: int) -> Polynomial:
        """p at a_c = 1 on the ambient itself, where the chart's terms are
        compared with global ones."""
        return p.substitute_one(self.n + c)


def proj_space(n: int, r: int) -> Space:
    """P(E) over C^n for E of rank r; its n + r ambient variables must fit
    in MAX_VARS (the one check of this, for exact runs and mass balances)."""
    if r < 1:
        raise InputError("projectivization needs fiber rank >= 1")
    if n + r > MAX_VARS:
        raise UnsupportedInputError(
            f"P(E) needs n + r = {n} + {r} variables, more than {MAX_VARS}")
    return Space(n, r)


# ---------------------------------------------------------------------------
# varieties
# ---------------------------------------------------------------------------

class VarietyKind(Enum):
    COORDINATE_SUBSPACE = "COORDINATE_SUBSPACE"
    POINT = "POINT"
    FIBER_HYPERSURFACE = "FIBER_HYPERSURFACE"


@dataclass(frozen=True)
class VarietyRef:
    """A supported irreducible variety.

    COORDINATE_SUBSPACE: base_zeros / fiber_zeros are the vanishing
        coordinates; with none it is the whole space ("X" in text).
    POINT: an explicit base point.
    FIBER_HYPERSURFACE: {sum_i f_i(x) a_i = 0} on PROJ, args = (f_1..f_r).
    """

    kind: VarietyKind
    base_zeros: frozenset = frozenset()
    fiber_zeros: frozenset = frozenset()
    point: Optional[tuple] = None
    hypersurface: Optional[tuple] = None  # (f_1..f_r), Polynomials on the base

    # -- constructors ------------------------------------------------------

    @staticmethod
    def whole_space() -> "VarietyRef":
        return VarietyRef(VarietyKind.COORDINATE_SUBSPACE)

    @staticmethod
    def coordinate_subspace(base_zeros=(), fiber_zeros=()) -> "VarietyRef":
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
        if self.kind == VarietyKind.POINT:
            return space.n
        if self.kind == VarietyKind.FIBER_HYPERSURFACE:
            return 1
        return len(self.base_zeros) + len(self.fiber_zeros)

    def fiber_dimension(self, space: Space) -> int:
        """r - 1 less the fiber zeros: the largest fiber of the support over
        the base (a fiber hypersurface holds whole fibers where its
        coefficients vanish); negative when the support is empty."""
        return space.r - 1 - len(self.fiber_zeros)

    def contains_point(self, point) -> bool:
        """Point membership for BASE varieties (exact coordinates)."""
        pt = [Scalar.from_value(c) for c in point]
        if self.kind == VarietyKind.POINT:
            return all((a - b).is_zero() for a, b in zip(self.point, pt))
        if self.kind == VarietyKind.FIBER_HYPERSURFACE:
            raise InputError(f"point membership undefined for {self.kind}")
        return all(pt[v].is_zero() for v in self.base_zeros)

    # -- bookkeeping -----------------------------------------------------------

    @_built_once
    def key(self):
        k = self.kind
        if k == VarietyKind.POINT:
            return ("point", tuple(c.parts() for c in self.point))
        if k == VarietyKind.FIBER_HYPERSURFACE:
            return ("fhyp", tuple(p.key() for p in self.hypersurface))
        return ("coord", tuple(sorted(self.base_zeros)),
                tuple(sorted(self.fiber_zeros)))

    def equations(self, space: Space, names=None) -> list:
        """Defining equations as text in the ambient variable ``names``
        (default ``space.var_names()``); a coordinate subspace's equations
        are its vanishing variables' names, none for the whole space."""
        if names is None:
            names = space.var_names()
        if self.kind == VarietyKind.POINT:
            nv = space.total_vars
            eqs = [Polynomial.variable(nv, v) - Polynomial.constant(nv, c)
                   for v, c in enumerate(self.point)]
        elif self.kind == VarietyKind.FIBER_HYPERSURFACE:
            eqs = [space.lift(self.hypersurface)]
        else:
            return [names[v] for v in sorted(self.base_zeros)] \
                + [names[space.n + j] for j in sorted(self.fiber_zeros)]
        return [format_polynomial(q, names) for q in eqs]

    def describe(self, space: Space) -> str:
        k = self.kind
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
        equations = self.equations(space)
        return "[" + "=".join(equations) + "=0]" if equations else "X"


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
        w = tuple(map(_rational, self.weights))
        return (tuple(p.key() for p in self.args), self.power, w, self.averaged)

    def is_zero_current(self) -> bool:
        """All arguments constant: the potential is pluriharmonic, the factor is 0."""
        return all(p.is_constant() for p in self.args)

    def has_constant_arg(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.args)

    @_built_once
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
    coefficient: int | Fraction  # an int when integral (see _rational)
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
        """The term's record, with ``names`` = ``space.var_names()``; the
        coordinate subspace without zeros is recorded as the whole space."""
        kind = self.fixed.kind.value
        equations = self.fixed.equations(space, names)
        if kind == "COORDINATE_SUBSPACE" and not equations:
            kind = "WHOLE_SPACE"
        return {
            "coefficient": str(self.coefficient),
            "fixed": {"kind": kind, "equations": equations},
            "omega_power": self.omega_power,
            "moving": [f.to_record(names) for f in self.moving],
            "bidegree": self.bidegree(space),
            "provenance": EXACT,
        }


def _rational(x):
    """x as an int when it is integral, else as a Fraction: the one form of a
    cycle coefficient and of a moving-factor weight in a key."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def term(coefficient, fixed: VarietyRef, omega_power=0, moving=()) -> CycleTerm:
    return CycleTerm(_rational(coefficient), fixed, omega_power, tuple(moving))


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
            if t.coefficient == 0:
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
                total = sum((s.coefficient for s in same), t.coefficient)
                t = CycleTerm(_rational(total), t.fixed, t.omega_power,
                              t.moving)
            if t.coefficient:
                kept.append(t)
        _fill(self, space, degree, tuple(kept))

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
        c = _rational(c)
        if not c:
            return GeneralizedCycle.zero(self.space, self.degree)
        # a nonzero factor keeps the keys, their order and every coefficient
        # nonzero
        return _canonical(self.space, self.degree, tuple(
            CycleTerm(_rational(t.coefficient * c), t.fixed, t.omega_power,
                      t.moving) for t in self.terms))

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


def _fill(c: GeneralizedCycle, space: Space, degree: int,
          terms: tuple) -> GeneralizedCycle:
    """Store the parts of ``c``: the only writer of a cycle's slots."""
    object.__setattr__(c, "space", space)
    object.__setattr__(c, "degree", degree)
    object.__setattr__(c, "terms", terms)
    return c


def _canonical(space: Space, degree: int, terms: tuple) -> GeneralizedCycle:
    """A cycle of terms that are already canonical: live, of bidegree
    ``degree``, with distinct keys in the constructor's order and normalized
    coefficients.  Nothing is re-expanded, sorted or merged."""
    return _fill(object.__new__(GeneralizedCycle), space, degree, terms)


def _expand_terms(space: Space, terms):
    """Canonical rewrites: coefficients normalized by ``_rational``,
    all-constant moving factors kill the term, and on PROJ omega powers
    beyond the fiber dimension of the support vanish identically (at power 0
    that drops the empty supports, all fiber coordinates zero)."""
    for t in terms:
        if type(t.coefficient) is not int:
            c = _rational(t.coefficient)
            if c is not t.coefficient:
                t = CycleTerm(c, t.fixed, t.omega_power, t.moving)
        if any(f.is_zero_current() for f in t.moving):
            continue
        if space.kind == "PROJ" and \
                t.omega_power > t.fixed.fiber_dimension(space):
            continue
        yield t


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def meet(a: VarietyRef, b: VarietyRef) -> VarietyRef:
    """The proper intersection of two supported varieties: coordinate
    subspaces (the whole space among them) meet when their zero sets are
    disjoint; anything else raises UnsupportedTermError."""
    ka, kb = a.kind, b.kind
    if ka == kb == VarietyKind.COORDINATE_SUBSPACE:
        if a.base_zeros & b.base_zeros or a.fiber_zeros & b.fiber_zeros:
            raise UnsupportedTermError(
                "improper intersection of coordinate subspaces")
        return VarietyRef.coordinate_subspace(a.base_zeros | b.base_zeros,
                                              a.fiber_zeros | b.fiber_zeros)
    raise UnsupportedTermError(f"wedge of {ka.value} with {kb.value} unsupported")


def wedge(c: GeneralizedCycle, j: int) -> GeneralizedCycle:
    """Wedge with omega_alpha^j, the one factor M^g's levels take before the
    pushforward.  Raising every omega power by j keeps the terms' order, so
    only the fiber-dimension cap of ``_expand_terms`` can change the terms."""
    if c.space.kind != "PROJ":
        raise InputError("omega_alpha lives on the projectivization")
    if j < 0:
        raise InputError("omega power must be >= 0")
    new_deg = c.degree + j
    if new_deg > c.space.dim:
        raise InputError("bidegree overflow in wedge")
    return _canonical(c.space, new_deg, tuple(_expand_terms(c.space, (
        CycleTerm(t.coefficient, t.fixed, t.omega_power + j, t.moving)
        for t in c.terms))))


# ---------------------------------------------------------------------------
# fixed / moving decomposition
# ---------------------------------------------------------------------------

def _in_fixed_part(t: CycleTerm, c: GeneralizedCycle) -> bool:
    """Whether a term of c is a pure Lelong term whose variety has
    codimension exactly c's bidegree."""
    return t.is_pure_fixed() and t.fixed.codim(c.space) == c.degree


def fixed_moving_split(c: GeneralizedCycle):
    """Siu-type decomposition: the fixed part collects the terms
    ``_in_fixed_part`` picks, the moving part the remainder."""
    fixed, moving = [], []
    for t in c.terms:
        (fixed if _in_fixed_part(t, c) else moving).append(t)
    return (GeneralizedCycle(c.space, c.degree, fixed),
            GeneralizedCycle(c.space, c.degree, moving))


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------

def localize(factors, fixed: VarietyRef, point):
    """The moving factors of [fixed] ^ prod <f>^p at ``point``, on the fixed
    part: each factor reduced, its arguments restricted to ``fixed`` (a
    coordinate subspace, the whole space among them) and renumbered on the kept
    coordinates.  Returns (factors, point on the kept coordinates), or None
    when the multiplicity there is 0: the point is off the fixed part, or a
    factor's restricted arguments are all constant (a pluriharmonic
    potential) or fewer than its power (a residue-free power above the top
    level)."""
    if fixed.kind != VarietyKind.COORDINATE_SUBSPACE:
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
    reduced = factor.reduced()  # stored: localize reads the same strip
    if reduced.has_constant_arg() or reduced.power >= len(reduced.args):
        # the residue-free power at or above the top level is the zero current
        return 0
    local = localize([factor], t.fixed, point)
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
    total = 0
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

