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
    meet,
    term,
)
from segre_kit.errors import InputError, UnsupportedInputError, UnsupportedTermError
from segre_kit.poly import (
    Polynomial,
    _pairwise_coprime,
    monomial_degree,
    monomial_gcd,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _divisor_terms(space: Space, p: Polynomial) -> List[CycleTerm]:
    """[div p] for a single entry: expand the monomial content into weighted
    coordinate hyperplanes; a non-monomial remainder must be fiber-linear and
    becomes a FIBER_HYPERSURFACE."""
    if p.is_zero():
        raise InputError("divisor of the zero polynomial")
    h = p.content_monomial()
    out = [term(e, space.hyperplane(v)) for v, e in enumerate(h) if e]
    q = p.divide_monomial(h)
    if q.is_constant():
        return out
    if space.kind != "PROJ":
        raise UnsupportedInputError(
            "divisor of a non-monomial base polynomial is outside the exact tower")
    # q = sum_j f_j(x) a_j: each term carries one fiber coordinate, once
    parts = space.split(q)
    if any(sum(e) != 1 for e in parts):
        raise UnsupportedInputError(
            "exact tower supports divisors linear in the fiber variables")
    by_j = {e.index(1): base for e, base in parts.items()}
    out.append(term(1, VarietyRef.fiber_hypersurface(
        [Polynomial(space.n, by_j.get(j)) for j in range(space.r)])))
    return out


def _is_full_fiber_frame(space: Space, args) -> bool:
    """True when args are c_j * a_j, one for each fiber coordinate a_j: a
    smooth variant Fubini-Study frame whatever the coefficient moduli."""
    if space.kind != "PROJ" or len(args) != space.r:
        return False
    # single terms of degree 1 that involve the fiber, on distinct a_j
    fibers = {e for p in args if len(p.terms) == 1
              and monomial_degree(next(iter(p.terms))) == 1
              for e in space.split(p) if any(e)}
    return len(fibers) == space.r


def _recognize_omega(space: Space, args) -> bool:
    """A full fiber frame with equal coefficient moduli is omega itself: the
    moduli (a^2 + b^2)/d^2 of (a + b*i)/d compared in integers."""
    if not _is_full_fiber_frame(space, args):
        return False
    c0, *rest = (p.as_monomial()[0] for p in args)
    m0, d0 = c0.a * c0.a + c0.b * c0.b, c0.d * c0.d
    return all((c.a * c.a + c.b * c.b) * d0 == m0 * c.d * c.d for c in rest)


def _prefix_subspace(space: Space, var: int, coeff, terms) -> List[CycleTerm]:
    """Wedge [z_var = 0] (ambient index) with coefficient into each term."""
    div = space.hyperplane(var)
    return [CycleTerm(t.coefficient * coeff, meet(t.fixed, div), t.omega_power,
                      t.moving) for t in terms]


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

def tower_residue(entries, space: Space,
                  chart: Optional[int] = None) -> List[List[CycleTerm]]:
    """1_{Z_T} [dd^c log|T|^2_o]^l for every level l = 0..space.dim, from one
    walk: the residue of a level is the part of its full power supported on a
    proper subvariety, that is every term whose fixed part has positive
    codimension (the dropped terms, on the whole space, are the 1 of level 0
    and the locally integrable <T'>^l below the top level of the reduced
    tuple).  With ``chart`` = c the walk reads a_c as a unit, which it is on
    the affine chart a_c != 0 of P(E): the terms are that chart's tower, in
    global coordinates (the moving arguments keep a_c)."""
    return [[t for t in terms if t.fixed.codim(space)]
            for terms in _levels(entries, space, chart)]


def _levels(entries, space: Space,
            chart: Optional[int] = None) -> List[List[CycleTerm]]:
    """[dd^c log|T|^2_o]^l for every level l = 0..space.dim (in ``chart``,
    see ``tower_residue``)."""
    entries = [p for p in entries if not p.is_zero()]
    if not entries:
        raise InputError("tower applied to an identically zero tuple")
    if len(entries) > 1 and any(p.as_monomial() is None for p in entries):
        raise UnsupportedInputError(
            "exact tower needs scalar*monomial entries for tuples of length >= 2")
    mons = [p.content_monomial() for p in entries]
    if chart is not None:
        mons = [space.chart_exponents(m, chart) for m in mons]
    return _walk(list(zip(mons, entries)), space)


def _walk(mons, space: Space) -> List[List[CycleTerm]]:
    """``_levels`` of (exponents, entry) pairs: the common factor, coprimality,
    the restrictions and a single monomial's divisor read exponents; entries
    are built only to divide h."""
    out = [[term(1, VarietyRef.whole_space())]] + [[] for _ in range(space.dim)]
    if len(mons) == 1:
        # a single section: the first power is its divisor, a monomial's
        # read off its exponents (none for a unit), all higher powers vanish
        m, p = mons[0]
        if space.dim:
            out[1] = [term(e, space.hyperplane(v)) for v, e in enumerate(m)
                      if e] if len(p.terms) == 1 else _divisor_terms(space, p)
        return out

    h = monomial_gcd(*(m for m, _ in mons))
    if any(h):
        mons = [(tuple(a - b for a, b in zip(m, h)), p.divide_monomial(h))
                for m, p in mons]
    red_mons, reduced = zip(*mons)
    if not _pairwise_coprime(red_mons):
        raise UnsupportedInputError(
            "reduced tuple entries are not pairwise coprime; "
            "the proper-intersection product is unavailable")

    # [div h] ^ <T'>^{l-1}: restrict the reduced tuple to each hyperplane of
    # the divisor, walk its tower there once and shift it up one level
    for v, e in enumerate(h):
        if not e:
            continue
        restricted = [(m, p) for m, p in mons if not m[v]]
        for level, inner in enumerate(_walk(restricted, space)[:-1]):
            out[level + 1] += _prefix_subspace(space, v, e, inner)

    # <T'>^l: locally integrable below the top level s, zero above it, and at
    # it the proper-intersection cycle [div T'_1] ^ ... ^ [div T'_s] expanded
    # over the hyperplanes of each entry's divisor (empty if an entry is a
    # unit); a full-fiber equal-weight tuple is omega itself
    s = len(mons)
    whole = VarietyRef.whole_space()
    omega = _recognize_omega(space, reduced)
    for level in range(1, min(s, space.dim + 1)):
        out[level].append(term(1, whole, level) if omega else term(
            1, whole, moving=(MovingFactor(reduced, level),)))
    if s <= space.dim and all(map(any, red_mons)):
        top = [term(1, whole)]
        for m in red_mons:
            top = [t for v, e in enumerate(m) if e
                   for t in _prefix_subspace(space, v, e, top)]
        out[s] += top
    return out


# ---------------------------------------------------------------------------
# fiber pushforward
# ---------------------------------------------------------------------------

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
    fiber-involving moving factor (power = that many slices), each argument
    of one fiber monomial, with omega powers.  Anything else raises
    UnsupportedTermError naming the term.
    """
    space = c.space
    if space.kind != "PROJ":
        raise InputError("pushforward_cycle expects a cycle on the projectivization")
    out_deg = c.degree - (space.r - 1)
    base = Space(space.n)
    weights = () if fiber_metric_weights is None else \
        _normalized_weights(fiber_metric_weights, space.r)
    return GeneralizedCycle(base, out_deg, [
        p for t in c.terms for p in _push_term(t, space, base, weights, (0,))[0]])


def _push_term(t: CycleTerm, space: Space, base: Space, weights: tuple,
               powers) -> List[List[CycleTerm]]:
    """The pushforward of omega^e ^ t for each e of ``powers`` by the module
    docstring's rule, reading t's fiber content once and walking its base
    arguments' tower at most once; omega^e ^ t vanishes, and pushes nothing,
    where e takes t's omega power past the fiber dimension d of its support."""
    d = t.fixed.fiber_dimension(space)
    frame, slices = 0, []
    for f in t.moving:
        if _is_full_fiber_frame(space, f.args):
            frame += f.power  # a variant Fubini-Study form: integrates like omega
        else:
            # each argument as {fiber exponents: base terms}; the zero
            # polynomial splits into nothing
            slices.append((f.power, [space.split(p) for p in f.args]))
    fixed = t.fixed
    hypersurface = fixed.kind == VarietyKind.FIBER_HYPERSURFACE
    q, parts = slices[0] if slices else (0, [])
    # a slice argument whose terms carry different fiber monomials mixes
    # fiber coordinates: it has no base argument; a factor whose arguments
    # carry no fiber coordinate slices no fiber
    if fixed.kind == VarietyKind.POINT or len(slices) > 1 or \
            any(len(s) > 1 for s in parts) or \
            slices and (hypersurface or fixed.fiber_zeros
                        or not any(any(fe) for s in parts for fe in s)):
        raise UnsupportedTermError(
            f"unsupported fiber content: {t.describe(space)}", term=t)
    if hypersurface:
        # entry j is the coefficient of a_j; zero entries drop out
        js = [j for j, p in enumerate(fixed.hypersurface) if not p.is_zero()]
        q = 1
    else:  # the fiber coordinate a_j of each argument, if it has one
        js = [next((fe.index(1) for fe in s if sum(fe) == 1), None)
              for s in parts] if weights else ()
    base_fixed = VarietyRef.coordinate_subspace(fixed.base_zeros)
    # e + q - d (the frame counted in e) of each e; -1 where omega^e ^ t = 0
    jps = [t.omega_power + frame + e + q - d if t.omega_power + e <= d
           else -1 for e in powers]
    base_args = [fixed.hypersurface[j] for j in js] if hypersurface else \
        [Polynomial(space.n, *s.values()) for s in parts]
    levels = _levels(base_args, base) if any(0 < jp <= base.n for jp in jps) \
        and not all(p.is_constant() for p in base_args) else None
    ws = tuple(weights[j] for j in js if j is not None) if weights else ()
    ws = ws if len(set(ws)) > 1 else ()
    out = []
    for jp in jps:
        out.append([CycleTerm(t.coefficient, base_fixed)] if jp == 0 else [])
        averaged = not (hypersurface and jp == 1)
        for sub in levels[jp] if levels and 0 < jp <= base.n else ():
            moving = []
            for f in sub.moving:
                if weights and not len(f.args) == len(set(js) - {None}) == len(js):
                    raise UnsupportedInputError(
                        "fiber metric weights do not match a factor's arguments")
                moving.append(MovingFactor(f.args, f.power, ws, averaged))
            out[-1].append(CycleTerm(t.coefficient * sub.coefficient,
                                     meet(base_fixed, sub.fixed), 0,
                                     tuple(moving)))
    return out
