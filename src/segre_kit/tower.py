"""The symbolic Monge-Ampere tower for monomial tuples, and the fiber pushforward.

Everything here manipulates closed positive currents through three exact
devices:

* common-factor extraction: dd^c log|h T'|^2 = [div h] + dd^c log|T'|^2 for a
  monomial h, so each recursion level splits into a divisor wedge against the
  residue-free lower power and the power of the reduced tuple;
* proper-intersection products: for a reduced tuple of pairwise-coprime
  monomial entries the top power is the classical intersection cycle
  [div T'_1] ^ ... ^ [div T'_s], lower powers are locally integrable (kept
  symbolic), higher powers vanish;
* generic-slice restriction: wedging a coordinate divisor against a
  residue-free power restricts the tuple to the divisor and re-runs the
  recursion there.

The fiber pushforward uses that every slice of a fiber-linear factor cuts a
projective hyperplane out of each fiber: j slice factors together with
omega^e integrate to 1 when j + e equals the fiber dimension, vanish below
it, and produce the (j+e-fiberdim)-th power of the base-argument potential
above it (a Fubini-Study-averaged representative; multiplicities are exact).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from segre_kit.cycles import (
    CycleTerm,
    GeneralizedCycle,
    MovingFactor,
    Space,
    VarietyKind,
    VarietyRef,
    base_space,
    meet,
    term,
)
from segre_kit.errors import InputError, UnsupportedInputError, UnsupportedTermError
from segre_kit.poly import (
    Polynomial,
    _pairwise_coprime,
    monomial_degree,
    strip_common_factor,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _hyperplane(space: Space, var: int) -> VarietyRef:
    """[z_var = 0] for an ambient variable index (base, then fiber)."""
    zeros = ([var], []) if var < space.n else ([], [var - space.n])
    return VarietyRef.coordinate_subspace(*zeros)


def _divisor_terms(space: Space, p: Polynomial) -> List[CycleTerm]:
    """[div p] for a single entry: expand the monomial content into weighted
    coordinate hyperplanes; a non-monomial remainder must be fiber-linear and
    becomes a FIBER_HYPERSURFACE."""
    if p.is_zero():
        raise InputError("divisor of the zero polynomial")
    h = p.content_monomial()
    out = [term(e, _hyperplane(space, v)) for v, e in enumerate(h) if e]
    q = p.divide_monomial(h)
    if q.is_constant():
        return out
    cm = q.as_monomial()
    if cm is not None:
        raise InputError("monomial content extraction left a monomial remainder")
    if space.kind != "PROJ":
        raise UnsupportedInputError(
            "divisor of a non-monomial base polynomial is outside the exact tower")
    args = _fiber_linear_args(space, q)
    out.append(term(1, VarietyRef.fiber_hypersurface(args)))
    return out


def _fiber_linear_args(space: Space, q: Polynomial):
    """Decompose q = sum_j f_j(x) * a_j; error when q is not fiber-linear."""
    args = [Polynomial.zero(space.total_vars) for _ in range(space.r)]
    for m, c in q.terms.items():
        fiber_part = [(j, e) for j, e in enumerate(m[space.n:]) if e]
        if len(fiber_part) != 1 or fiber_part[0][1] != 1:
            raise UnsupportedInputError(
                "exact tower supports divisors linear in the fiber variables")
        j = fiber_part[0][0]
        base_m = m[:space.n] + (0,) * space.r
        args[j] = args[j] + Polynomial(space.total_vars, {base_m: c})
    return tuple(args)


def _attach_factor(space: Space, terms: List[CycleTerm],
                   args: Sequence[Polynomial], power: int) -> List[CycleTerm]:
    """Wedge <dd^c log sum|args|^2>^power onto each term, recognizing the
    full-fiber equal-weight tuple as the Fubini-Study form omega^power."""
    omega = _recognize_omega(space, args)
    out = []
    for t in terms:
        if omega:
            out.append(CycleTerm(t.coefficient, t.fixed, t.omega_power + power,
                                 t.moving))
        else:
            out.append(CycleTerm(t.coefficient, t.fixed, t.omega_power,
                                 t.moving + (MovingFactor(tuple(args), power),)))
    return out


def _is_full_fiber_frame(space: Space, args) -> bool:
    """True when args are c_j * a_j, one for each fiber coordinate a_j: a
    smooth variant Fubini-Study frame whatever the coefficient moduli."""
    if space.kind != "PROJ" or len(args) != space.r:
        return False
    seen = set()
    for p in args:
        cm = p.as_monomial()
        if cm is None or any(cm[1][:space.n]) or sum(cm[1][space.n:]) != 1:
            return False
        seen.add(cm[1][space.n:].index(1))
    return len(seen) == space.r


def _recognize_omega(space: Space, args) -> bool:
    """A full fiber frame with equal coefficient moduli is omega itself."""
    return _is_full_fiber_frame(space, args) and \
        len({p.as_monomial()[0].norm_sq() for p in args}) == 1


def _prefix_subspace(space: Space, var: int, coeff, terms) -> List[CycleTerm]:
    """Wedge [z_var = 0] (ambient index) with coefficient into each term."""
    div = _hyperplane(space, var)
    return [CycleTerm(t.coefficient * coeff, meet(t.fixed, div), t.omega_power,
                      t.moving) for t in terms]


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

def tower_full(entries: Sequence[Polynomial], space: Space,
               level: int) -> List[CycleTerm]:
    """[dd^c log|T|^2_o]^level as a sum of cycle terms."""
    return _power(entries, space, level, part="full")


def tower_residue(entries, space: Space, level: int) -> List[CycleTerm]:
    """1_{Z_T} [dd^c log|T|^2_o]^level."""
    return _power(entries, space, level, part="residue")


def _power(entries, space: Space, level: int, part: str) -> List[CycleTerm]:
    entries = [p for p in entries if not p.is_zero()]
    if not entries:
        raise InputError("tower applied to an identically zero tuple")
    if level < 0:
        raise InputError("negative tower level")
    if level > space.dim:
        return []
    if level == 0:
        one = [term(1, VarietyRef.whole_space())]
        return [] if part == "residue" else one

    if len(entries) == 1:
        return _single_entry_power(entries[0], space, level)

    if any(p.as_monomial() is None for p in entries):
        raise UnsupportedInputError(
            "exact tower needs scalar*monomial entries for tuples of length >= 2")
    h, reduced = strip_common_factor(entries)
    red_mons = [p.as_monomial()[1] for p in reduced]
    if not _pairwise_coprime(red_mons):
        raise UnsupportedInputError(
            "reduced tuple entries are not pairwise coprime; "
            "the proper-intersection product is unavailable")

    out: List[CycleTerm] = []
    if monomial_degree(h) > 0:
        # [div h] ^ <T'>^{level-1}: restrict the reduced tuple to each
        # hyperplane of the divisor and take its full power there
        for v, e in enumerate(h):
            if not e:
                continue
            restricted = [p for p in reduced if p.restrict_zero(v) == p]
            inner = _power(restricted, space, level - 1, part="full")
            out.extend(_prefix_subspace(space, v, Fraction(e), inner))
    out.extend(_reduced_power(reduced, red_mons, space, level, part))
    return out


def _single_entry_power(p: Polynomial, space: Space,
                        level: int) -> List[CycleTerm]:
    """A single section: the first power is its divisor, all higher powers
    vanish."""
    if level >= 2:
        return []
    if p.as_monomial() is not None and p.as_monomial()[0] and \
            monomial_degree(p.as_monomial()[1]) == 0:
        return []  # non-vanishing constant: empty divisor
    return _divisor_terms(space, p)


def _reduced_power(reduced, red_mons, space: Space, level: int,
                   part: str) -> List[CycleTerm]:
    s = len(reduced)
    if level < s:
        if part == "residue":
            return []
        return _attach_factor(space, [term(1, VarietyRef.whole_space())],
                              reduced, level)
    if level > s:
        return []
    # top level: the proper-intersection cycle, expanded distributively over
    # the hyperplanes of each entry's divisor
    out = [term(1, VarietyRef.whole_space())]
    for p, m in zip(reduced, red_mons):
        if monomial_degree(m) == 0:
            return []  # a unit entry has empty divisor
        step = []
        for t in out:
            for v, e in enumerate(m):
                if e:
                    step.extend(_prefix_subspace(space, v, Fraction(e), [t]))
        out = step
    return out


def full_power_base(args: Sequence[Polynomial], n: int,
                    level: int) -> List[CycleTerm]:
    """[dd^c log sum|args|^2]^level on the base polydisk in C^n."""
    space = base_space(n)
    clipped = [p for p in args if not p.is_zero()]
    if not clipped:
        raise InputError("base power of the zero tuple")
    if all(p.is_constant() for p in clipped):
        # pluriharmonic potential: the positive powers are the zero current
        return [] if level >= 1 else [term(1, VarietyRef.whole_space())]
    if level > n:
        return []
    return tower_full(clipped, space, level)


# ---------------------------------------------------------------------------
# fiber pushforward
# ---------------------------------------------------------------------------

def _strip_to_base(p: Polynomial, space: Space) -> Polynomial:
    """Base-ambient copy of an argument; drops the (linear) fiber coordinate."""
    terms = {}
    for m, c in p.terms.items():
        terms[m[:space.n]] = c
    return Polynomial(space.n, terms)


def _normalized_weights(weights):
    if not weights:
        return ()
    fr = [Fraction(w) for w in weights]
    if len(set(fr)) == 1:
        return ()
    from math import lcm

    scale = lcm(*[f.denominator for f in fr])
    ints = [f * scale for f in fr]
    from math import gcd
    g = 0
    for q in ints:
        g = gcd(g, q.numerator)
    return tuple(q / g for q in ints)


def pushforward_cycle(c: GeneralizedCycle,
                      fiber_metric_weights: Optional[Sequence] = None
                      ) -> GeneralizedCycle:
    """Proper pushforward along X x P^{r-1} -> X; lowers bidegree by r-1.

    Supported fiber content per term: a coordinate subspace with omega powers;
    a fiber hypersurface (one slice) with omega powers; a single
    fiber-involving moving factor (power = that many slices) with omega
    powers.  Anything else raises UnsupportedTermError naming the term.
    """
    space = c.space
    if space.kind != "PROJ":
        raise InputError("pushforward_cycle expects a cycle on the projectivization")
    r = space.r
    out_deg = c.degree - (r - 1)
    base = base_space(space.n)
    if out_deg < 0:
        return GeneralizedCycle.zero(base, 0)
    out_terms: List[CycleTerm] = []
    for t in c.terms:
        out_terms.extend(_push_term(t, space, base, fiber_metric_weights))
    return GeneralizedCycle(base, out_deg, out_terms)


def _push_term(t: CycleTerm, space: Space, base: Space,
               metric_weights) -> List[CycleTerm]:
    r = space.r
    e = t.omega_power
    base_factors = []
    slice_factor = None
    for f in t.moving:
        involves_fiber = any(any(m[space.n:]) for p in f.args for m in p.terms)
        if not involves_fiber:
            base_factors.append(MovingFactor(
                tuple(_strip_to_base(p, space) for p in f.args),
                f.power, f.weights, f.averaged))
        elif _is_full_fiber_frame(space, f.args):
            e += f.power  # a variant Fubini-Study form: integrates like omega
        elif slice_factor is None:
            slice_factor = f
        else:
            raise UnsupportedTermError(
                f"term has several fiber moving factors: {t.describe(space)}",
                term=t)

    fixed = t.fixed
    if fixed.kind == VarietyKind.FIBER_HYPERSURFACE:
        if slice_factor is not None:
            raise UnsupportedTermError(
                f"hypersurface term with extra fiber factor: {t.describe(space)}",
                term=t)
        args = [p for p in fixed.hypersurface if not p.is_zero()]
        return _push_slices(t, [_strip_to_base(p, space) for p in args], 1, e,
                            VarietyRef.whole_space(), base, base_factors, space,
                            metric_weights, exact_single_slice=True)

    if fixed.kind not in (VarietyKind.WHOLE_SPACE, VarietyKind.COORDINATE_SUBSPACE):
        raise UnsupportedTermError(f"unsupported fixed part: {t.describe(space)}",
                                   term=t)
    base_fixed = VarietyRef.coordinate_subspace(fixed.base_zeros)

    if slice_factor is not None:
        if fixed.fiber_zeros:
            raise UnsupportedTermError(
                f"moving factor against a fiber subspace: {t.describe(space)}",
                term=t)
        args = [_strip_to_base(p, space) for p in slice_factor.args]
        return _push_slices(t, args, slice_factor.power, e, base_fixed, base,
                            base_factors, space, metric_weights,
                            exact_single_slice=False)

    # pure subspace content: integrate omega^e over the fiber part
    d = fixed.fiber_dimension(space)
    if e != d:
        return []
    return [CycleTerm(t.coefficient, base_fixed, 0, tuple(base_factors))]


def _push_slices(t: CycleTerm, base_args, q: int, e: int,
                 base_fixed: VarietyRef, base: Space, base_factors,
                 space: Space, metric_weights, exact_single_slice: bool
                 ) -> List[CycleTerm]:
    """j fiber slices with omega^e: zero below fiber-filling degree, the
    constant 1 at it, and the (q+e-(r-1))-th base power above it."""
    r = space.r
    if e + q < r - 1:
        return []
    if e + q == r - 1:
        return [CycleTerm(t.coefficient, base_fixed, 0, tuple(base_factors))]
    jp = e + q - (r - 1)
    weights = ()
    if metric_weights is not None:
        weights = _normalized_weights([Fraction(1, 1) / Fraction(w)
                                       for w in metric_weights])
    expanded = full_power_base(base_args, base.n, jp)
    out = []
    averaged = not (exact_single_slice and jp == 1)
    for sub in expanded:
        moving = list(base_factors)
        for f in sub.moving:
            moving.append(MovingFactor(f.args, f.power,
                                       weights or f.weights, averaged))
        out.append(CycleTerm(t.coefficient * sub.coefficient,
                             meet(base_fixed, sub.fixed), 0, tuple(moving)))
    return out
