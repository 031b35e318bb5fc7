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

One walk of the recursion yields the full power at every level at once: each
hyperplane of the common factor restricts the tuple once, and the levels of
that inner walk shift up by one.  The residue of a level is read off its full
power by dropping the terms whose fixed part is the whole space.

The fiber pushforward has one rule per term.  Its fiber content is q slices
by base arguments f_j, each cutting a hyperplane out of every fiber: none for
a coordinate subspace, one for a fiber hypersurface sum f_j a_j = 0, q for a
fiber-linear factor of power q; f_j takes the metric weight of a_j.  With
omega^e the term pushes to zero while e + q is below d, the dimension of its
fibers (r - 1 less its fiber zeros), to its base part at d, and above it to
the (e+q-d)-th tower level of the f_j (a Fubini-Study-averaged
representative but for one hypersurface slice; multiplicities are exact).
"""

from __future__ import annotations

import math
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
    pairs = [[] for _ in range(space.r)]  # (monomial, coefficient) per a_j
    for m, c in q.terms.items():
        fiber_part = [(j, e) for j, e in enumerate(m[space.n:]) if e]
        if len(fiber_part) != 1 or fiber_part[0][1] != 1:
            raise UnsupportedInputError(
                "exact tower supports divisors linear in the fiber variables")
        pairs[fiber_part[0][0]].append((m[:space.n] + (0,) * space.r, c))
    return tuple(Polynomial(space.total_vars, ps) for ps in pairs)


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

def tower_residue(entries, space: Space) -> List[List[CycleTerm]]:
    """1_{Z_T} [dd^c log|T|^2_o]^l for every level l = 0..space.dim, from one
    walk: the residue of a level is the part of its full power supported on a
    proper subvariety, that is every term whose fixed part is not the whole
    space (the dropped terms are the 1 of level 0 and the locally integrable
    <T'>^l below the top level of the reduced tuple)."""
    return [[t for t in terms if t.fixed.kind != VarietyKind.WHOLE_SPACE]
            for terms in _levels(entries, space)]


def _levels(entries, space: Space) -> List[List[CycleTerm]]:
    """[dd^c log|T|^2_o]^l for every level l = 0..space.dim."""
    entries = [p for p in entries if not p.is_zero()]
    if not entries:
        raise InputError("tower applied to an identically zero tuple")
    out = [[term(1, VarietyRef.whole_space())]] + [[] for _ in range(space.dim)]

    if len(entries) == 1:
        # a single section: the first power is its divisor (empty for a
        # non-vanishing constant), all higher powers vanish
        if space.dim and not entries[0].is_constant():
            out[1] = _divisor_terms(space, entries[0])
        return out

    if any(p.as_monomial() is None for p in entries):
        raise UnsupportedInputError(
            "exact tower needs scalar*monomial entries for tuples of length >= 2")
    h, reduced = strip_common_factor(entries)
    red_mons = [p.as_monomial()[1] for p in reduced]
    if not _pairwise_coprime(red_mons):
        raise UnsupportedInputError(
            "reduced tuple entries are not pairwise coprime; "
            "the proper-intersection product is unavailable")

    # [div h] ^ <T'>^{l-1}: restrict the reduced tuple to each hyperplane of
    # the divisor, walk its tower there once and shift it up one level
    for v, e in enumerate(h):
        if not e:
            continue
        restricted = [p for p in reduced if p.restrict_zero(v) == p]
        for level, inner in enumerate(_levels(restricted, space)[:-1]):
            out[level + 1] += _prefix_subspace(space, v, Fraction(e), inner)

    # <T'>^l: locally integrable below the top level s, zero above it, and at
    # it the proper-intersection cycle [div T'_1] ^ ... ^ [div T'_s] expanded
    # over the hyperplanes of each entry's divisor (empty if an entry is a unit)
    s = len(reduced)
    whole = [term(1, VarietyRef.whole_space())]
    for level in range(1, min(s, space.dim + 1)):
        out[level] += _attach_factor(space, whole, reduced, level)
    if s <= space.dim and all(monomial_degree(m) for m in red_mons):
        top = whole
        for m in red_mons:
            top = [t for v, e in enumerate(m) if e
                   for t in _prefix_subspace(space, v, Fraction(e), top)]
        out[s] += top
    return out


# ---------------------------------------------------------------------------
# fiber pushforward
# ---------------------------------------------------------------------------

def _strip_to_base(p: Polynomial, space: Space) -> Polynomial:
    """Base-ambient copy of an argument; drops the (linear) fiber coordinate."""
    terms = {}
    for m, c in p.terms.items():
        terms[m[:space.n]] = c
    return Polynomial(space.n, terms)


def _fiber_coordinate(space: Space, p: Polynomial) -> Optional[int]:
    """j when every term of p carries exactly the fiber coordinate a_j."""
    js = {m[space.n:].index(1) if sum(m[space.n:]) == 1 else None
          for m in p.terms}
    return js.pop() if len(js) == 1 else None


def _normalized_weights(weights, r: int) -> tuple:
    """The base-argument weights of the fiber metric sum w_j |a_j|^2: the
    1/w_j as coprime integers, () when they are all equal.  Anything but r
    positive ints or Fractions raises InputError."""
    ws = tuple(weights) if isinstance(weights, (list, tuple)) else ()
    if len(ws) != r or not all(type(w) in (int, Fraction) and w > 0
                               for w in ws):
        raise InputError(
            f"fiber_metric_weights must be {r} positive ints or Fractions")
    fr = [1 / Fraction(w) for w in ws]
    if len(set(fr)) == 1:
        return ()
    scale = math.lcm(*(f.denominator for f in fr))
    ints = [f * scale for f in fr]
    g = math.gcd(*(q.numerator for q in ints))
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
    out_deg = c.degree - (space.r - 1)
    base = base_space(space.n)
    if out_deg < 0:
        return GeneralizedCycle.zero(base, 0)
    weights = () if fiber_metric_weights is None else \
        _normalized_weights(fiber_metric_weights, space.r)
    return GeneralizedCycle(base, out_deg, [
        p for t in c.terms for p in _push_term(t, space, base, weights)])


def _push_term(t: CycleTerm, space: Space, base: Space,
               weights: tuple) -> List[CycleTerm]:
    """One term's pushforward by the rule in the module docstring."""
    e = t.omega_power
    base_factors, slices = [], []
    for f in t.moving:
        involves_fiber = any(any(m[space.n:]) for p in f.args for m in p.terms)
        if not involves_fiber:
            base_factors.append(MovingFactor(
                tuple(_strip_to_base(p, space) for p in f.args),
                f.power, f.weights, f.averaged))
        elif _is_full_fiber_frame(space, f.args):
            e += f.power  # a variant Fubini-Study form: integrates like omega
        else:
            slices.append(f)
    fixed = t.fixed
    hypersurface = fixed.kind == VarietyKind.FIBER_HYPERSURFACE
    if fixed.kind == VarietyKind.POINT or len(slices) > 1 or \
            slices and (hypersurface or fixed.fiber_zeros):
        raise UnsupportedTermError(
            f"unsupported fiber content: {t.describe(space)}", term=t)
    if hypersurface:
        # entry j is the coefficient of a_j; zero entries drop out
        js = [j for j, p in enumerate(fixed.hypersurface) if not p.is_zero()]
        args, q = [fixed.hypersurface[j] for j in js], 1
    else:
        args = slices[0].args if slices else ()
        q = slices[0].power if slices else 0
        js = [_fiber_coordinate(space, p) for p in args] if weights else ()
    base_fixed = VarietyRef.coordinate_subspace(fixed.base_zeros)
    jp = e + q - (space.r - 1 - len(fixed.fiber_zeros))  # e + q - d
    if jp < 0:
        return []
    if jp == 0:
        return [CycleTerm(t.coefficient, base_fixed, 0, tuple(base_factors))]
    base_args = [_strip_to_base(p, space) for p in args]
    if jp > base.n or all(p.is_constant() for p in base_args):
        return []
    ws = tuple(weights[j] for j in js if j is not None) if weights else ()
    ws = ws if len(set(ws)) > 1 else ()
    averaged = not (hypersurface and jp == 1)
    out = []
    for sub in _levels(base_args, base)[jp]:
        moving = list(base_factors)
        for f in sub.moving:
            if weights and not len(f.args) == len(set(js) - {None}) == len(js):
                raise UnsupportedInputError(
                    "fiber metric weights do not match a factor's arguments")
            moving.append(MovingFactor(f.args, f.power, ws, averaged))
        out.append(CycleTerm(t.coefficient * sub.coefficient,
                             meet(base_fixed, sub.fixed), 0, tuple(moving)))
    return out
