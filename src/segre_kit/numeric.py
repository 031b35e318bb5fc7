"""Numerical oracles: regularized Monge-Ampere masses, root counting, and
Crofton slice multiplicities.

Conventions fixed once: dd^c = (i/2pi) d del-bar, so dd^c log|z|^2 = [z=0]
with unit mass, and the (dd^c|G|^2)^k density against Lebesgue measure is
(k!/pi^k) * sum of squared k x k Jacobian minors (Cauchy-Binet).

Every routine is deterministic given its seed; sample accumulation is blocked
so the error estimate and the reduction order do not depend on chunking.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from segre_kit.cycles import MovingFactor, VarietyKind, VarietyRef
from segre_kit.errors import (
    ContourTooCloseError,
    InputError,
    NondeterministicError,
    NumericalFailureError,
    UndecidedError,
)
from segre_kit.poly import Polynomial, PolyMatrix, monomial_gcd
from segre_kit.scalars import Scalar


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_BLOCKS = 16  # sample blocks behind every error estimate


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_positive_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and math.isfinite(x) and x > 0


@dataclass(frozen=True)
class RegConfig:
    """Regularization and sampling knobs for all numeric oracles."""

    epsilon_schedule: tuple = DEFAULT_SCHEDULE
    samples: int = 40000
    seed: int = 20250809
    radius: float = 1.0
    extrapolation: str = "RICHARDSON"
    extrapolation_order: int = 1

    def __post_init__(self):
        try:
            sched = tuple(float(e) for e in self.epsilon_schedule)
        except (TypeError, ValueError):
            raise InputError("epsilon schedule must be a list of numbers")
        if not sched or not all(_is_positive_real(e) for e in sched):
            raise InputError("epsilon schedule must be positive and finite")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise InputError("epsilon schedule must be strictly decreasing")
        if self.extrapolation == "RICHARDSON" and len(sched) < 3:
            raise InputError("Richardson extrapolation needs >= 3 epsilons")
        if self.extrapolation not in ("NONE", "RICHARDSON"):
            raise InputError(f"unknown extrapolation {self.extrapolation!r}")
        if not _is_positive_real(self.radius):
            raise InputError("radius must be a positive finite number")
        if not _is_positive_real(self.extrapolation_order):
            raise InputError("extrapolation order must be a positive number")
        if not _is_int(self.samples) or self.samples < _BLOCKS:
            raise InputError(f"samples must be an integer >= {_BLOCKS}")
        if not _is_int(self.seed) or self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        object.__setattr__(self, "epsilon_schedule", sched)

    def replace(self, **kw) -> "RegConfig":
        from dataclasses import asdict

        d = asdict(self)
        d.update(kw)
        return RegConfig(**d)


@dataclass
class MassEstimate:
    value: float
    stderr: float
    per_epsilon: List[Tuple[float, float]]
    extrapolated: bool
    warnings: List[str] = field(default_factory=list)

    def to_record(self):
        return {"value": self.value, "stderr": self.stderr,
                "per_epsilon": [[e, v] for e, v in self.per_epsilon],
                "extrapolated": self.extrapolated,
                "warnings": list(self.warnings)}


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def _richardson(per_eps, stderrs, order: int):
    """Limit of V(eps) = V0 + c eps^order by weighted least squares.

    Each point is weighted by its statistical error plus a truncation model
    ~ eps^{2*order}, so noisy small-eps values and curved large-eps values
    both lose influence; returns (value, stderr, warnings)."""
    warnings = []
    vals = np.array([v for _, v in per_eps])
    eps = np.array([e ** order for e, _ in per_eps])
    sig = np.array(stderrs, dtype=float)
    scale = max(float(np.median(np.abs(vals))), 1e-12)
    model = scale * eps ** 2
    w = 1.0 / (sig ** 2 + model ** 2 + (1e-9 * scale) ** 2)
    W = np.sum(w)
    Wx, Wy = np.sum(w * eps), np.sum(w * vals)
    Wxx, Wxy = np.sum(w * eps * eps), np.sum(w * eps * vals)
    denom = W * Wxx - Wx * Wx
    if denom <= 0:
        return float(vals[-1]), float(sig[-1]), ["degenerate extrapolation fit"]
    v0 = (Wxx * Wy - Wx * Wxy) / denom
    var0 = Wxx / denom
    resid = vals - (v0 + ((W * Wxy - Wx * Wy) / denom) * eps)
    chi2 = float(np.sum(w * resid ** 2))
    dof = max(len(vals) - 2, 1)
    if chi2 / dof > 10:
        warnings.append("epsilon values inconsistent with first-order model")
    return float(v0), float(math.sqrt(max(var0, 0.0))), warnings


# ---------------------------------------------------------------------------
# contour root counting
# ---------------------------------------------------------------------------

def contour_root_count(p: Polynomial, radius: float) -> int:
    """Winding number of a univariate polynomial along |x| = radius."""
    if p.nvars != 1:
        raise InputError("contour_root_count expects a univariate polynomial")
    if p.is_zero():
        raise InputError("contour_root_count of the zero polynomial")
    dp = p.differentiate(0)
    n = 512
    prev = None
    while n <= 1 << 17:
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        z = radius * np.exp(1j * theta)
        pv = p.eval_array(z[:, None])
        if prev is None:
            scale = np.max(np.abs(pv))
            if scale == 0 or np.min(np.abs(pv)) < 1e-9 * scale:
                raise ContourTooCloseError(
                    f"polynomial nearly vanishes on |x| = {radius}")
        dv = dp.eval_array(z[:, None])
        # (1/2pi i) oint p'/p dz with dz = iz dtheta reduces to mean of (p'/p) z
        val = float(np.real(np.mean(dv / pv * z)))
        nearest = round(val)
        if abs(val - nearest) < 0.25 and prev is not None and \
                abs(val - prev) < 0.05:
            return int(nearest)
        prev = val
        n *= 2
    raise NumericalFailureError(
        f"contour integral did not certify on |x| = {radius}", location=radius)


# ---------------------------------------------------------------------------
# sympy bridge and resultants
# ---------------------------------------------------------------------------

def _to_sympy(p: Polynomial, syms):
    import sympy

    acc = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for s, e in zip(syms, m):
            if e:
                t *= s ** e
        acc += t
    return sympy.expand(acc)


def _resultant_coeffs(f1: Polynomial, f2: Polynomial, eliminate: int):
    """Res_{x_eliminate}(f1, f2) as complex numpy coefficients in the other
    variable (descending order); None when the resultant is identically 0."""
    import sympy

    x1, x2 = sympy.symbols("w1 w2")
    syms = [x1, x2]
    r = sympy.resultant(_to_sympy(f1, syms), _to_sympy(f2, syms),
                        syms[eliminate])
    other = syms[1 - eliminate]
    rp = sympy.Poly(sympy.expand(r), other)
    if rp.is_zero:
        return None
    return np.array([complex(c) for c in rp.all_coeffs()], dtype=complex)


def _univariate_in(p: Polynomial, var: int, other_value: complex):
    """Coefficients (descending) of p viewed in x_var with the other variable
    frozen at a complex value."""
    deg = p.degree_in(var)
    coeffs = np.zeros(deg + 1, dtype=complex)
    for m, c in p.terms.items():
        coeffs[deg - m[var]] += complex(c) * other_value ** m[1 - var]
    return coeffs


def _random_rational(rng, scale: Fraction) -> Scalar:
    den = 1 << 12
    a = int(rng.integers(den // 2, den)) * (1 if rng.random() < 0.5 else -1)
    b = int(rng.integers(den // 2, den)) * (1 if rng.random() < 0.5 else -1)
    return Scalar(scale * Fraction(a, den), scale * Fraction(b, den))


def perturbation_root_count(f, radius: float, trials: int = 5,
                            seed: int = 20250809) -> int:
    """Stabilized count of solutions of f1 = t1, f2 = t2 in the closed
    bidisk for random small exact right-hand sides t, via resultant
    elimination and root pairing.  Majority vote across trials."""
    f1, f2 = f
    if f1.nvars != 2 or f2.nvars != 2:
        raise InputError("perturbation_root_count works in two variables")
    scales = [max(_poly_scale(p, radius), 1e-6) for p in (f1, f2)]
    counts = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + 7919 * trial)
        mag = [Fraction(int(s * 1e9), 10 ** 9) * Fraction(1, 10 ** 4)
               for s in scales]
        t1 = _random_rational(rng, mag[0])
        t2 = _random_rational(rng, mag[1])
        F1 = f1 - Polynomial.constant(2, t1)
        F2 = f2 - Polynomial.constant(2, t2)
        counts.append(_count_solutions(F1, F2, radius))
    most = max(set(counts), key=counts.count)
    if counts.count(most) < max(trials - 1, 1):
        raise NondeterministicError(
            f"perturbation counts disagree: {counts} (radius likely too large)")
    return most


def _count_solutions(F1: Polynomial, F2: Polynomial, radius: float) -> int:
    coeffs = _resultant_coeffs(F1, F2, eliminate=0)
    if coeffs is None:
        raise NumericalFailureError(
            "resultant vanished identically: common factor in the pair")
    if len(coeffs) == 1:
        return 0
    # multiple resultant roots scatter by ~eps^(1/mult) under np.roots, well
    # past any fixed fine tolerance: collect candidate pairs from every root
    # and cluster the pairs at a perturbation-scale tolerance at the end
    y_roots = [complex(z) for z in np.roots(coeffs) if abs(z) <= radius * 1.001]
    solver = F1 if F1.degree_in(0) >= F2.degree_in(0) else F2
    checker = F2 if solver is F1 else F1
    check_tol = 1e-6 * _poly_scale(checker, radius)
    pairs = []
    for y in y_roots:
        cs = _univariate_in(solver, 0, y)
        if np.max(np.abs(cs)) == 0:
            continue
        nz = np.nonzero(np.abs(cs) > 1e-13 * np.max(np.abs(cs)))[0]
        cs = cs[nz[0]:]
        if len(cs) <= 1:
            continue
        # the second coordinate stays frozen at the resultant root: a
        # candidate pairs with this y only if the other equation holds here
        for x in np.roots(cs):
            if abs(x) <= radius and \
                    abs(checker.evaluate([complex(x), y])) < check_tol:
                pairs.append((complex(x), y))
    merge_tol = 1e-4 * max(1.0, radius)
    distinct = []
    for x, y in pairs:
        for xd, yd in distinct:
            if abs(x - xd) <= merge_tol and abs(y - yd) <= merge_tol:
                break
        else:
            distinct.append((x, y))
    return len(distinct)


def _poly_scale(p: Polynomial, radius: float) -> float:
    """Bound on |p| over the closed polydisk: sum of |c| * radius^deg."""
    return max(1e-9, sum(math.sqrt(float(c.norm_sq())) * radius ** sum(m)
                         for m, c in p.terms.items()))


def confirm_origin_only_zero(f1: Polynomial, f2: Polynomial,
                             radius: float) -> bool:
    """True when the only common zero of the pair in the closed bidisk is the
    origin (resultant roots in either projection all sit at 0)."""
    for eliminate in (0, 1):
        coeffs = _resultant_coeffs(f1, f2, eliminate)
        if coeffs is None:
            return False
        if len(coeffs) == 1:
            continue
        for z in np.roots(coeffs):
            if abs(z) <= radius and abs(z) > 1e-6:
                return False
    return True


# ---------------------------------------------------------------------------
# epsilon-regularized masses
# ---------------------------------------------------------------------------

def _disk_samples(cfg: RegConfig, coords, center=None):
    """Low-discrepancy samples on a polydisk, one ``(radius, power)`` per
    complex coordinate: the modulus is drawn as radius * u^power (power 1/2
    is uniform; larger powers concentrate toward the center, with exact
    weights).  Returns (points, weights) with integral f dV = mean(f * weights)."""
    from scipy.stats import qmc

    sampler = qmc.Halton(d=2 * len(coords), scramble=True, seed=cfg.seed)
    u = sampler.random(cfg.samples)
    z = np.empty((cfg.samples, len(coords)), dtype=complex)
    weight = np.ones(cfg.samples)
    for j, (radius, power) in enumerate(coords):
        t = u[:, 2 * j]
        rad = radius * t ** power
        ang = 2 * np.pi * u[:, 2 * j + 1]
        z[:, j] = rad * np.exp(1j * ang)
        weight *= 2 * np.pi * power * radius ** 2 * t ** (2 * power - 1)
        if center is not None:
            z[:, j] += complex(center[j])
    return z, weight


def _batch_minor_dets(jac, rows, cols):
    """Determinant of the (rows x cols) submatrix per sample, by Laplace
    expansion along the first row (np.linalg.det is far slower on stacks of
    small matrices)."""
    if len(rows) == 1:
        return jac[rows[0]][cols[0]]
    acc = None
    for j, c in enumerate(cols):
        t = jac[rows[0]][c] * _batch_minor_dets(jac, rows[1:],
                                                cols[:j] + cols[j + 1:])
        acc = t if acc is None else acc - t if j % 2 else acc + t
    return acc


def _blocked_stats(values: np.ndarray, volume: float, blocks: int = _BLOCKS):
    m = len(values) // blocks * blocks
    chunk = values[:m].reshape(blocks, -1).mean(axis=1) * volume
    return float(np.mean(chunk)), float(np.std(chunk) / math.sqrt(blocks))


def epsilon_mass(G: Sequence[Polynomial], k: int, cfg: Optional[RegConfig] = None,
                 center=None) -> MassEstimate:
    """Quasi-Monte-Carlo mass of the kernel eps/(|G|^2+eps)^{k+1} (dd^c|G|^2)^k
    over the polydisk, per epsilon, optionally Richardson-extrapolated.

    For k = nvars the tuple should have only isolated zeros in the closed
    polydisk (the mass then converges to the local intersection count).
    Below the zero set's codimension the limit is 0 but the epsilon-tail is of
    fractional order; tune ``extrapolation_order`` for those regimes."""
    cfg = cfg or RegConfig()
    G = [p for p in G]
    N = G[0].nvars
    if any(p.nvars != N for p in G):
        raise InputError("tuple entries live in different ambient dimensions")
    if not 1 <= k <= N:
        raise InputError(f"k = {k} outside 1..{N}")
    z, weight = _disk_samples(cfg, [(cfg.radius, 2.0)] * N, center)
    vals = [p.eval_array(z) for p in G]
    g2 = np.zeros(len(z))
    for v in vals:
        g2 += np.abs(v) ** 2
    jac = [[p.differentiate(j).eval_array(z) for j in range(N)] for p in G]
    density = np.zeros(len(z))
    for rows in itertools.combinations(range(len(G)), k):
        for cols in itertools.combinations(range(N), k):
            density += np.abs(_batch_minor_dets(jac, rows, cols)) ** 2
    density *= math.factorial(k) / math.pi ** k
    if not np.all(np.isfinite(density)):
        bad = int(np.argmax(~np.isfinite(density)))
        raise NumericalFailureError("non-finite integrand sample",
                                    location=z[bad].tolist())
    if np.any(density < 0):
        raise NumericalFailureError("negative integrand sample in epsilon_mass")
    per_eps, stderrs = [], []
    for eps in cfg.epsilon_schedule:
        kernel = eps / (g2 + eps) ** (k + 1)
        val, err = _blocked_stats(kernel * density * weight, 1.0)
        per_eps.append((eps, val))
        stderrs.append(err)
    if cfg.extrapolation == "RICHARDSON":
        value, err, warnings = _richardson(per_eps, stderrs,
                                           cfg.extrapolation_order)
        return MassEstimate(value, err, per_eps, True, warnings)
    return MassEstimate(per_eps[-1][1], stderrs[-1], per_eps, False, [])


# ---------------------------------------------------------------------------
# fiber-lifted masses and the determinant mass balance
# ---------------------------------------------------------------------------

def _wedge_coeff(mats):
    """Coefficient of prod_a (i dz_a ^ dzbar_a) in the wedge of (1,1)-forms
    given by sample-arrays of Hessian-matrix entries."""
    N = len(mats[0])
    first = next(v for row in mats[0] for v in row if v is not None)
    acc = np.zeros(first.shape, dtype=complex)
    for pa in itertools.permutations(range(N)):
        sa = _perm_sign(pa)
        for pb in itertools.permutations(range(N)):
            sb = _perm_sign(pb)
            prod = None
            for t in range(N):
                entry = mats[t][pa[t]][pb[t]]
                prod = entry if prod is None else prod * entry
            acc += sa * sb * prod
    return acc


def _perm_sign(p):
    sign, seen = 1, set()
    for i in range(len(p)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _chart_hessians(g: PolyMatrix, chart: int, z: np.ndarray):
    """Hessian-entry arrays of |G|^2 = Q/P and of log P on the chart
    alpha_chart = 1, with coordinates (x, u_1..u_{r-1})."""
    n, r = g.nvars, g.cols
    N = n + r - 1
    # map ambient (x, alpha) -> chart coords: alpha_chart = 1, others to u slots
    mapping = list(range(n))
    slot = n
    for j in range(r):
        if j == chart:
            mapping.append(-1)
        else:
            mapping.append(slot)
            slot += 1
    from segre_kit.engine import _lift_entries

    # substitute_one zeroes the chart exponent, so its slot in the (otherwise
    # injective) mapping is never exercised
    safe_mapping = [m if m >= 0 else 0 for m in mapping]
    rows = [p.substitute_one(n + chart).map_variables(safe_mapping, N)
            for p in _lift_entries(g)]
    vals = [p.eval_array(z) for p in rows]
    grads = [[p.differentiate(a).eval_array(z) for a in range(N)] for p in rows]
    Q = np.zeros(len(z))
    for v in vals:
        Q += np.abs(v) ** 2
    P = np.ones(len(z))
    for a in range(n, N):
        P += np.abs(z[:, a]) ** 2
    DQ = [sum(grads[i][a] * np.conj(vals[i]) for i in range(len(rows)))
          for a in range(N)]
    Pd = [np.conj(z[:, a]) if a >= n else np.zeros(len(z), dtype=complex)
          for a in range(N)]
    HQ = [[sum(grads[i][a] * np.conj(grads[i][b]) for i in range(len(rows)))
           for b in range(N)] for a in range(N)]
    Hf = [[None] * N for _ in range(N)]
    Hlog = [[None] * N for _ in range(N)]
    for a in range(N):
        for b in range(N):
            hp = (1.0 if (a == b and a >= n) else 0.0)
            Hf[a][b] = (HQ[a][b] / P
                        - np.conj(DQ[b]) * Pd[a] / P ** 2
                        - DQ[a] * np.conj(Pd[b]) / P ** 2
                        - Q * hp / P ** 2
                        + 2 * Q * np.conj(Pd[b]) * Pd[a] / P ** 3)
            Hlog[a][b] = (hp * P - Pd[a] * np.conj(Pd[b])) / P ** 2
    g2 = Q / P
    return Hf, Hlog, g2


@dataclass
class MassBalanceResult:
    numeric_mass: float
    det_count: int
    passed: bool
    radius: float
    detail: List[MassEstimate] = field(default_factory=list)

    def to_record(self):
        return {"numeric_mass": self.numeric_mass, "det_count": self.det_count,
                "pass": self.passed, "radius": self.radius,
                "detail": [m.to_record() for m in self.detail]}


def mass_balance_check(g: PolyMatrix, cfg: Optional[RegConfig] = None
                       ) -> MassBalanceResult:
    """Compare the fiber-integrated epsilon-mass of the degree-1 current of a
    square matrix over the disk against the argument-principle count of
    det g."""
    from segre_kit.poly import determinant

    cfg = cfg or RegConfig()
    if g.nvars != 1:
        raise InputError("mass_balance_check works over one base variable")
    if g.rows != g.cols:
        raise InputError("mass_balance_check needs a square matrix")
    det = determinant(g)
    if det.is_zero():
        raise InputError("det g is identically zero")
    radius = cfg.radius
    det_count = None
    for _ in range(6):
        try:
            det_count = contour_root_count(det, radius)
            break
        except ContourTooCloseError:
            radius *= 0.85
    if det_count is None:
        raise ContourTooCloseError("could not place the contour off the zeros")

    r = g.cols
    N = 1 + (r - 1)
    run_cfg = cfg.replace(radius=radius) if radius != cfg.radius else cfg
    per_eps_total = np.zeros(len(cfg.epsilon_schedule))
    stderr_total = np.zeros(len(cfg.epsilon_schedule))
    details = []
    # the base coordinate over the disk of the contour radius, radially
    # concentrated; the fiber chart coordinates uniform over unit disks (the
    # a.e. partition of P^{r-1} by max-modulus charts)
    z, weight = _disk_samples(run_cfg, [(radius, 2.0)] + [(1.0, 0.5)] * (N - 1))
    for chart in range(r):
        Hf, Hlog, g2 = _chart_hessians(g, chart, z)
        A = [[Hf[a][b] / (2 * math.pi) for b in range(N)] for a in range(N)]
        B = [[Hlog[a][b] / (2 * math.pi) for b in range(N)] for a in range(N)]
        for j in range(r):
            mats = [A] * (j + 1) + [B] * (r - 1 - j)
            wedge = _wedge_coeff(mats)
            if np.max(np.abs(wedge.imag)) > 1e-6 * (1 + np.max(np.abs(wedge.real))):
                raise NumericalFailureError("wedge coefficient not real")
            density = wedge.real * 2 ** N
            coeff = math.comb(r, j + 1)
            per = []
            for idx, eps in enumerate(cfg.epsilon_schedule):
                kernel = eps / (g2 + eps) ** (j + 2)
                val, err = _blocked_stats(kernel * density * weight, 1.0)
                per.append((eps, coeff * val))
                per_eps_total[idx] += coeff * val
                stderr_total[idx] += coeff * err
            details.append(MassEstimate(per[-1][1], 0.0, per, False, []))
    per_eps = [(eps, float(per_eps_total[i]))
               for i, eps in enumerate(cfg.epsilon_schedule)]
    if cfg.extrapolation == "RICHARDSON":
        mass, _err, _w = _richardson(per_eps, list(stderr_total),
                                     cfg.extrapolation_order)
    else:
        mass = per_eps[-1][1]
    passed = bool(abs(mass - det_count) < 0.1)
    return MassBalanceResult(float(mass), det_count, passed, radius, details)


# ---------------------------------------------------------------------------
# Crofton slice multiplicities
# ---------------------------------------------------------------------------

def _rationalized_unit(rng, dim: int):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    den = 1 << 16
    return [Scalar(Fraction(int(round(c.real * den)), den),
                   Fraction(int(round(c.imag * den)), den)) for c in v]


def _slice_poly(factor: MovingFactor, gamma) -> Polynomial:
    acc = Polynomial.zero(factor.args[0].nvars)
    weights = factor.weights or (1,) * len(factor.args)
    for g_c, w, p in zip(gamma, weights, factor.args):
        wf = Fraction(w)
        # sqrt of the weight enters the slice; rationalize it once
        rt = Fraction(int(round(math.sqrt(float(wf)) * (1 << 16))), 1 << 16)
        acc = acc + p * (g_c * Scalar(rt))
    return acc


def _substitute(p: Polynomial, coords: Sequence[Polynomial],
                nvars: int) -> Polynomial:
    """p(coords[0], ..., coords[n-1]) for coordinates in ``nvars`` variables."""
    acc = Polynomial.zero(nvars)
    for m, c in p.terms.items():
        t = Polynomial.constant(nvars, c)
        for i, e in enumerate(m):
            for _ in range(e):
                t = t * coords[i]
        acc = acc + t
    return acc


def _line_restriction(p: Polynomial, point, direction) -> Polynomial:
    """p(point + t * direction) as an exact univariate polynomial in t."""
    return _substitute(p, [Polynomial.constant(1, Scalar.from_value(point[i]))
                           + Polynomial.variable(1, 0) * direction[i]
                           for i in range(p.nvars)], 1)


def _translate(p: Polynomial, point) -> Polynomial:
    """p(x + point): moves ``point`` to the origin."""
    return _substitute(p, [Polynomial.variable(p.nvars, i)
                           + Polynomial.constant(p.nvars, point[i])
                           for i in range(p.nvars)], p.nvars)


def _divisor_order_at(slice_poly: Polynomial, point, rng) -> int:
    """Vanishing order of a hypersurface at a point via contour counts of the
    line restriction on shrinking radii."""
    for attempt in range(4):
        direction = _rationalized_unit(rng, slice_poly.nvars)
        line = _line_restriction(slice_poly, point, direction)
        if line.is_zero():
            continue
        counts = []
        radius = 0.3
        for _ in range(6):
            try:
                counts.append(contour_root_count(line, radius))
            except ContourTooCloseError:
                radius *= 0.7
                continue
            if len(counts) >= 2 and counts[-1] == counts[-2]:
                return counts[-1]
            radius /= 5.0
        if counts:
            return counts[-1]
    raise UndecidedError("could not stabilize a divisor order estimate")


def _strip_common_content(factor: MovingFactor) -> MovingFactor:
    h = monomial_gcd(*(p.content_monomial() for p in factor.args))
    if sum(h) == 0:
        return factor
    return MovingFactor(tuple(p.divide_monomial(h) for p in factor.args),
                        factor.power, factor.weights, factor.averaged)


def crofton_moving_multiplicity(factors, fixed: VarietyRef, point,
                                cfg: Optional[RegConfig] = None) -> int:
    """Estimate the multiplicity at ``point`` of [fixed] ^ prod <...>^{p_t} by
    random Fubini-Study slices; the estimate must agree across repetitions."""
    cfg = cfg or RegConfig()
    factors = [_strip_common_content(f) for f in factors]
    if not factors:
        raise InputError("no moving factors supplied")
    n = factors[0].args[0].nvars
    if fixed.kind not in (VarietyKind.WHOLE_SPACE, VarietyKind.COORDINATE_SUBSPACE):
        raise UndecidedError("oracle supports whole-space or coordinate fixed parts")
    if fixed.kind == VarietyKind.COORDINATE_SUBSPACE and \
            not fixed.contains_point(point):
        return 0
    zeros = sorted(fixed.base_zeros) if fixed.kind == VarietyKind.COORDINATE_SUBSPACE \
        else []
    keep = [i for i in range(n) if i not in zeros]
    nprime = len(keep)

    def restrict(p: Polynomial) -> Polynomial:
        q = p
        for v in zeros:
            q = q.restrict_zero(v)
        return q.map_variables([keep.index(i) if i in keep else 0
                                for i in range(n)], nprime) if not q.is_zero() \
            else Polynomial.zero(nprime)

    rfactors = []
    for f in factors:
        args = [restrict(p) for p in f.args]
        args = [p for p in args if not p.is_zero()]
        if not args:
            raise UndecidedError("fixed part sits inside a factor's zero set")
        if all(p.is_constant() for p in args):
            return 0  # pluriharmonic potential on the subspace
        if f.power > len(args):
            return 0  # residue-free power above the top level vanishes
        rfactors.append(MovingFactor(tuple(args), f.power, f.weights, f.averaged))
    sub_point = [point[i] for i in keep]
    j_total = sum(f.power for f in rfactors)

    estimates = []
    for rep in range(3):
        rng = np.random.default_rng(cfg.seed + 104729 * rep)
        estimates.append(_one_crofton_estimate(rfactors, sub_point, nprime,
                                               j_total, rng, cfg))
    if len(set(estimates)) != 1:
        raise UndecidedError(f"slice estimates did not stabilize: {estimates}",
                             diagnostics={"estimates": estimates})
    return estimates[0]


def _one_crofton_estimate(rfactors, point, nprime, j_total, rng, cfg) -> int:
    if j_total == 1:
        s = _slice_poly(rfactors[0], _rationalized_unit(rng, len(rfactors[0].args)))
        pt = [Scalar.from_value(c) for c in point]
        if not s.evaluate(pt).is_zero():
            return 0
        return _divisor_order_at(s, pt, rng)
    if j_total == 2 and nprime == 2:
        slices = []
        for f in rfactors:
            for _ in range(f.power):
                slices.append(_slice_poly(f, _rationalized_unit(rng, len(f.args))))
        pt = [Scalar.from_value(c) for c in point]
        s1 = _translate(slices[0], pt)
        s2 = _translate(slices[1], pt)
        if not s1.evaluate([0, 0]).is_zero() or not s2.evaluate([0, 0]).is_zero():
            return 0
        count = perturbation_root_count((s1, s2), 0.15, trials=3,
                                        seed=int(rng.integers(1 << 30)))
        corr = 0
        for f in rfactors:
            if f.power == len(f.args) == 2:
                a1 = _translate(f.args[0], pt)
                a2 = _translate(f.args[1], pt)
                if a1.evaluate([0, 0]).is_zero() and a2.evaluate([0, 0]).is_zero():
                    corr += perturbation_root_count(
                        (a1, a2), 0.15, trials=3, seed=int(rng.integers(1 << 30)))
        return count - corr
    raise UndecidedError(
        f"no oracle rule for total slice power {j_total} in dimension {nprime}")
