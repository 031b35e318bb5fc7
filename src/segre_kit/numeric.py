"""Numerical oracles: regularized Monge-Ampere masses, root counting, and
Crofton slice multiplicities.

Conventions fixed once: dd^c = (i/2pi) d del-bar, so dd^c log|z|^2 = [z=0]
with unit mass, and the (dd^c|G|^2)^k density against Lebesgue measure is
(k!/pi^k) * sum of squared k x k Jacobian minors (Cauchy-Binet).

Every routine is deterministic given its seed; sample accumulation is blocked
so the error estimate and the reduction order do not depend on chunking.
The masses run on two threads, in ``_sample_halves``: the Halton points are
drawn once, cut after error block _BLOCKS // 2, and the calling thread
samples and evaluates the first half while one worker does the second
(numpy releases the GIL inside its loops); the caller joins the 16 block
means in sample order.  A block mean is the mean of the same elementwise
values as on one thread: numpy computes a product with a temporary of at
least 256 KiB in place, swapping a right-hand temporary to the left, and a
complex a*b may differ from b*a in the last bit, so every complex product
of a sample array with a temporary puts the temporary first, whatever the
length of the array.  Each half reports its first failing sample and the
join raises in sample order, so no result, warning or error depends on the
split or on how the threads are scheduled.  Symbolic work (lifts, chart
rows, derivatives) is done once per call, before the split; no thread
outlives its call.  Each numpy call in a half also waits for the GIL, so
a half makes few: the draw and the points are column-major (each column
contiguous), x^1 is no complex pow (``Polynomial.eval_array``), and the
epsilon-kernels of the whole schedule are one 2-D array per density.
Root counts, intersection numbers and Crofton slices are exact: their only
randomness is the slice coefficients, Gaussian integers from ``random``.
numpy is imported inside the functions that use arrays (the masses), so
importing this module, or running any exact count, never loads it.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import random
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from segre_kit.cycles import MovingFactor, VarietyRef, localize, proj_space
from segre_kit.errors import (
    ContourTooCloseError,
    InputError,
    NumericalFailureError,
    UndecidedError,
    _as_json,
)
from segre_kit.poly import (
    Polynomial,
    PolyMatrix,
    determinant,
    disk_root_count,
    laplace_det,
    resultant,
    strip_common_factor,
)
from segre_kit.scalars import Scalar


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_BLOCKS = 16  # sample blocks behind every error estimate
_MAX_SAMPLES = 2 ** 22  # a 3x3 mass balance over x1 then takes about 3.6 GB


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_positive_real(x) -> bool:
    try:  # an int past the float range overflows math.isfinite
        return isinstance(x, numbers.Real) and not isinstance(x, bool) \
            and math.isfinite(x) and x > 0
    except OverflowError:
        return False


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
        # numbers or their text (the flag's), in a list or tuple: not the
        # characters of a string, the keys of an object or a bool
        try:
            if not isinstance(self.epsilon_schedule, (list, tuple)) or any(
                    isinstance(e, bool) for e in self.epsilon_schedule):
                raise TypeError
            sched = tuple(float(e) for e in self.epsilon_schedule)
        except (TypeError, ValueError):
            raise InputError("epsilon schedule must be a list of numbers")
        except OverflowError:  # an int past the float range
            raise InputError("epsilon schedule must be positive and finite")
        if not sched or not all(_is_positive_real(e) for e in sched):
            raise InputError("epsilon schedule must be positive and finite")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise InputError("epsilon schedule must be strictly decreasing")
        # a str first: an array's == would compare elementwise
        if not isinstance(self.extrapolation, str) or \
                self.extrapolation not in ("NONE", "RICHARDSON"):
            raise InputError(
                f"unknown extrapolation {_as_json(self.extrapolation)}")
        if self.extrapolation == "RICHARDSON" and len(sched) < 3:
            raise InputError("Richardson extrapolation needs >= 3 epsilons")
        if not _is_positive_real(self.radius):
            raise InputError("radius must be a positive finite number")
        if not _is_positive_real(self.extrapolation_order):
            raise InputError("extrapolation order must be a positive number")
        if not _is_int(self.samples) or self.samples < _BLOCKS:
            raise InputError(f"samples must be an integer >= {_BLOCKS}")
        if self.samples > _MAX_SAMPLES:
            raise InputError(f"samples must be at most {_MAX_SAMPLES}")
        if not _is_int(self.seed) or self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        object.__setattr__(self, "epsilon_schedule", sched)


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
    both lose influence; returns (value, stderr, warnings), or None when
    the fit is degenerate (every eps^order equal, as at order 1e-300)."""
    import numpy as np

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
        return None
    v0 = (Wxx * Wy - Wx * Wxy) / denom
    var0 = Wxx / denom
    resid = vals - (v0 + ((W * Wxy - Wx * Wy) / denom) * eps)
    chi2 = float(np.sum(w * resid ** 2))
    dof = max(len(vals) - 2, 1)
    if chi2 / dof > 10:
        warnings.append("epsilon values inconsistent with first-order model")
    return float(v0), float(math.sqrt(max(var0, 0.0))), warnings


# ---------------------------------------------------------------------------
# root counting and local intersection numbers
# ---------------------------------------------------------------------------

def contour_root_count(p: Polynomial, radius: float) -> int:
    """The number of roots, with multiplicity, of a univariate polynomial in
    |x| < radius: the order m of its factor x^m plus ``disk_root_count``,
    exact.  Raises ContourTooCloseError when a root lies on |x| = radius."""
    if p.nvars != 1:
        raise InputError("contour_root_count expects a univariate polynomial")
    if p.is_zero():
        raise InputError("contour_root_count of the zero polynomial")
    if not _is_positive_real(radius):
        raise InputError("radius must be a positive finite number")
    count = disk_root_count([p.terms.get((e,), Scalar(0)) for e in
                             range(p.degree_in(0), -1, -1)], radius)
    if count is None:
        raise ContourTooCloseError(f"a root lies on |x| = {radius}")
    return min(e for (e,) in p.terms) + count


def perturbation_root_count(f) -> int:
    """The local intersection number dim O/(f1, f2) at the origin of a pair in
    two variables: the number of solutions near 0 of f = t for small generic
    t.  Exact, by Fulton's algorithm (Algebraic Curves, section 3.3).  A
    finite count m <= B = deg f1 * deg f2 puts the m-th power of the maximal
    ideal inside (f1, f2), so terms of degree above B change nothing (by
    Nakayama) and are dropped; a count past B means a common component."""
    f1, f2 = f
    if f1.nvars != 2 or f2.nvars != 2:
        raise InputError("perturbation_root_count works in two variables")
    if not (f1.constant_value().is_zero() and f2.constant_value().is_zero()):
        return 0  # a unit generates the local ring: no common zero at 0
    if f1.is_zero() or f2.is_zero() or any(strip_common_factor([f1, f2])[0]):
        raise NumericalFailureError("common factor in the pair")
    bound = max(map(sum, f1.terms)) * max(map(sum, f2.terms))
    total = 0
    while total <= bound and f1.constant_value().is_zero() and \
            f2.constant_value().is_zero():
        f1, f2 = (Polynomial(2, [(m, c) for m, c in p.terms.items()
                                 if sum(m) <= bound]) for p in (f1, f2))
        # p(x, 0) as {exponent of x: coefficient}; order the pair so that a
        # vanishing one, else the one of lower degree, comes first
        a1, a2 = ({m[0]: c for m, c in p.terms.items() if m[1] == 0}
                  for p in (f1, f2))
        if a1 and (not a2 or max(a1) > max(a2)):
            f1, f2, a1, a2 = f2, f1, a2, a1
        if not a2:
            raise NumericalFailureError("common factor in the pair")
        if not a1:  # f1 = y g: I(f1, f2) = ord_x f2(x, 0) + I(g, f2)
            total += min(a2)
            f1 = f1.divide_monomial((0, 1))
        else:  # I(f1, f2 - q f1) = I(f1, f2), and f2(x, 0) loses its top term
            r, s = max(a1), max(a2)
            f2 = f2 - f1 * Polynomial.monomial(2, (s - r, 0), a2[s] / a1[r])
    if total > bound:
        raise NumericalFailureError("common factor in the pair")
    return total


def confirm_origin_only_zero(f1: Polynomial, f2: Polynomial,
                             radius: float) -> bool:
    """True when the only common zero of the pair in the closed bidisk is the
    origin.  Each entry splits as f_i = m_i q_i, m_i its monomial content,
    so a common zero off the origin lies on a line x_v = 0 shared by m_1 and
    m_2, or on x_v = 0 (v in m_1) and q_2 = 0, or the mirror case, or on
    q_1 = q_2 = 0.  On a line, q restricted to it must have no nonzero root
    in |y| <= radius; for q_1 = q_2 = 0, in either projection, the
    resultant's cofactor of y^m must have none.  Every count is exact
    (``disk_root_count``)."""
    if f1.nvars != 2 or f2.nvars != 2:
        raise InputError("confirm_origin_only_zero works in two variables")
    if f1.is_zero() or f2.is_zero():
        return False
    (m1, (q1,)), (m2, (q2,)) = (strip_common_factor([f]) for f in (f1, f2))
    if any(a and b for a, b in zip(m1, m2)):
        return False  # a whole line x_v = 0 of common zeros
    for m, q in ((m1, q2), (m2, q1)):
        for v in (0, 1):
            if not m[v]:
                continue
            line = {mono[1 - v]: c for mono, c in q.terms.items() if not mono[v]}
            if not line or disk_root_count(
                    [line.get(e, Scalar(0)) for e in range(max(line), -1, -1)],
                    radius) != 0:
                return False
    if q1.is_constant() or q2.is_constant():
        return True
    for eliminate in (0, 1):
        r = resultant(q1, q2, eliminate)
        if r is None or disk_root_count(r, radius) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# epsilon-regularized masses
# ---------------------------------------------------------------------------

def _primes(count: int) -> List[int]:
    primes: List[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional Halton sequence with Owen's
    random digit permutations (arXiv:1706.02808), bit for bit the draw of
    ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)``.

    One generator shuffles ceil(54 / log2 b) - 1 permutations of the digits
    per prime base b, in order; coordinate k of point i sums the permuted
    base-b digits of i, most significant weight first.  Invariant: each
    point receives the same float additions in the same order, so the sums
    round the same.  With m the number of digits of n - 1 and i = hi * b^h
    + lo, h = ceil(m / 2), the low digits' sums are tabulated per lo; the
    first high digit's term per hi is added to the table into one work
    array, shared by all bases, and every later high digit and every
    nonzero digit past m is added to it in place, in that same order.
    Base 2 is summed in int64, in units of 2^-53, and scaled once: its 53
    weights are 2^-1 .. 2^-53, so every partial sum of its digit terms is a
    multiple of 2^-53 below 1, a double, and the float additions are exact
    as well; the digits past m then add one integer."""
    import numpy as np

    rng = np.random.default_rng(seed)
    perms = [np.repeat(np.arange(base)[None],
                       math.ceil(54 / math.log2(base)) - 1, axis=0)
             for base in _primes(d)]
    for row in itertools.chain.from_iterable(perms):
        rng.shuffle(row)
    # a table broadcast over the high digits has fewer than n + b^h < 2n
    # entries: a high digit needs m >= 2, so b^h <= b^(m - 1) < n
    u, work = np.empty((d, n)).T, np.empty(2 * n)  # column-major
    for k, perm in enumerate(perms):
        base, exact = perm.shape[1], perm.shape[1] == 2
        m = next(e for e in itertools.count() if base ** e >= n)
        h, size = (m + 1) // 2, base ** ((m + 1) // 2)
        lo, hi = np.arange(size), np.arange(-(-n // size))[:, None]
        seq = np.zeros(size, dtype=np.int64 if exact else float)
        w, scale, tail = (1 << 52, 2.0 ** -53, 0) if exact else \
            (1.0 / base, 1.0, 0)
        for j, row in enumerate(perm):
            if j < h:
                seq += row[lo // base ** j % base] * w
            elif j == h < m:  # broadcasts the table over the high digits
                seq = np.add(seq, row[hi % base] * w, out=work.view(
                    seq.dtype)[:len(hi) * size].reshape(len(hi), size))
            elif j < m:
                seq += row[hi // base ** (j - h) % base] * w
            elif exact:
                tail += int(row[0]) * w
            elif row[0]:
                seq += row[0] * w
            w = w >> 1 if exact else w / base
        if tail:
            seq += tail
        np.multiply(seq.reshape(-1)[:n], scale, out=u[:, k])
    return u


def _disk_samples(u, coords):
    """Low-discrepancy samples on a polydisk from the Halton rows u, one
    ``(radius, power)`` and two columns of u per complex coordinate: the
    modulus is drawn as radius * t^power (power 1/2 is uniform; larger
    powers concentrate toward the center, with exact weights).  Returns
    (points, weights) with integral f dV = mean(f * weights).  A weight that
    overflows would make every mass non-finite, so it is refused.  The real
    and imaginary parts of a point are rad * cos(ang) and rad * sin(ang),
    each rounded once, written into z: the parts of rad * exp(i ang), whose
    product with the real rad also rounds each part once."""
    import numpy as np

    z = np.empty((len(coords), len(u)), dtype=complex).T  # column-major
    weight = np.ones(len(u))
    for j, (radius, power) in enumerate(coords):
        try:
            area = radius ** 2
        except OverflowError:
            area = math.inf
        t = u[:, 2 * j]
        rad = radius * t ** power
        ang = 2 * np.pi * u[:, 2 * j + 1]
        np.multiply(rad, np.cos(ang), out=z[:, j].real)
        np.multiply(rad, np.sin(ang, out=ang), out=z[:, j].imag)
        weight *= 2 * np.pi * power * area * t ** (2 * power - 1)
        if not np.all(np.isfinite(weight)):
            raise NumericalFailureError(
                f"sampling radius {radius} overflows", location=radius)
    return z, weight


def _sample_halves(evaluate, cfg: RegConfig, coords):
    """(evaluate(points, weights) on the first half of the samples, on the
    second), for ``_disk_samples`` of cfg.samples Halton points drawn once.
    The cut falls after error block _BLOCKS // 2: each half holds
    _BLOCKS // 2 whole blocks, and the second also the samples past the last
    block, which no block mean reads.  The calling thread samples and
    evaluates the first half; one worker thread, in a copy of the caller's
    context (so under its numpy errstate), the second.  The worker is joined
    on every path; when both halves raise, the first's exception is raised."""
    u = _halton(2 * len(coords), cfg.samples, cfg.seed)
    cut = cfg.samples // _BLOCKS * (_BLOCKS // 2)
    # each half takes its rows out (pop() the second's, pop(0) the first's,
    # in either order), so the draw is freed once both halves are sampled
    rows = [u[:cut], u[cut:]]
    del u
    done = []

    def second():
        try:
            done.append((evaluate(*_disk_samples(rows.pop(), coords)), None))
        except BaseException as exc:
            done.append((None, exc))

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(second,))
    worker.start()
    try:
        first = evaluate(*_disk_samples(rows.pop(0), coords))
    finally:
        worker.join()
    theirs, exc = done[0]
    if exc is not None:
        raise exc
    return first, theirs


def _is_scalar_zero(x) -> bool:
    import numpy as np

    return np.ndim(x) == 0 and x == 0


def _batch_minor_dets(jac, rows, cols):
    """Determinant of the (rows x cols) submatrix per sample, by Laplace
    expansion (np.linalg.det is far slower on stacks of small matrices).  An
    entry or minor that is the scalar 0 adds no term; with no term left, the
    determinant is the scalar 0."""
    det = laplace_det(jac, rows, cols, _is_scalar_zero)
    return 0.0 if det is None else det


def _half_blocks(z, g2, density, weight, power, cfg: RegConfig):
    """One half's share of an epsilon table: the point of its first sample
    whose density is not finite (None if there is none), and per epsilon (a
    row) the means of eps/(g2+eps)^power * density * weight over its
    _BLOCKS // 2 whole blocks, the kernel of the whole schedule formed left
    to right in place in one 2-D array over the samples the blocks hold."""
    import numpy as np

    bad = ~np.isfinite(density)
    size = cfg.samples // _BLOCKS
    m = _BLOCKS // 2 * size
    eps = np.array(cfg.epsilon_schedule)[:, None]
    kernel = g2[:m] + eps
    kernel **= power
    np.divide(eps, kernel, out=kernel)
    kernel *= density[:m]
    kernel *= weight[:m]
    means = kernel.reshape(len(eps), _BLOCKS // 2, size).mean(axis=2)
    return z[int(np.argmax(bad))].tolist() if np.any(bad) else None, means


def _epsilon_table(first, second, cfg: RegConfig):
    """Per-epsilon sample means and their standard errors over the _BLOCKS
    blocks, from two halves' ``_half_blocks`` joined in sample order; a
    non-finite sample is refused, the first half's before the second's."""
    import numpy as np

    for location, _means in (first, second):
        if location is not None:
            raise NumericalFailureError("non-finite integrand sample",
                                        location=location)
    per_eps, stderrs = [], []
    for eps, a, b in zip(cfg.epsilon_schedule, first[1], second[1]):
        chunk = np.concatenate((a, b))
        per_eps.append((eps, float(np.mean(chunk))))
        stderrs.append(float(np.std(chunk) / math.sqrt(_BLOCKS)))
    return per_eps, stderrs


def _limit(per_eps, stderrs, cfg: RegConfig) -> MassEstimate:
    """The eps -> 0 value: Richardson-extrapolated, or the last epsilon's,
    also (not extrapolated, with a warning) when the fit is degenerate."""
    warnings = []
    if cfg.extrapolation == "RICHARDSON":
        fit = _richardson(per_eps, stderrs, cfg.extrapolation_order)
        if fit is not None:
            return MassEstimate(fit[0], fit[1], per_eps, True, fit[2])
        warnings.append("degenerate extrapolation fit")
    return MassEstimate(float(per_eps[-1][1]), float(stderrs[-1]), per_eps,
                        False, warnings)


def epsilon_mass(G: Sequence[Polynomial], ks: Sequence[int],
                 cfg: Optional[RegConfig] = None) -> List[MassEstimate]:
    """Quasi-Monte-Carlo mass of the kernel eps/(|G|^2+eps)^{k+1} (dd^c|G|^2)^k
    over the polydisk, per epsilon, optionally Richardson-extrapolated; one
    estimate per degree k in ``ks``, all from the same samples.

    For k = nvars the tuple should have only isolated zeros in the closed
    polydisk (the mass then converges to the local intersection count).
    Below the zero set's codimension the limit is 0 but the epsilon-tail is of
    fractional order; tune ``extrapolation_order`` for those regimes."""
    import numpy as np

    cfg = cfg or RegConfig()
    G = [p for p in G]
    N = G[0].nvars
    if any(p.nvars != N for p in G):
        raise InputError("tuple entries live in different ambient dimensions")
    ks = list(ks)
    if not ks or not all(1 <= k <= N for k in ks):
        raise InputError(f"degrees k = {ks} must be a nonempty list in 1..{N}")
    # a derivative that vanishes identically is None: it adds no term
    jac_polys = [[None if (d := p.differentiate(j)).is_zero() else d
                  for j in range(N)] for p in G]

    def half(z, weight):
        g2 = np.zeros(len(z))
        for p in G:
            g2 += np.abs(p.eval_array(z)) ** 2
        jac = [[0.0 if d is None else d.eval_array(z) for d in row]
               for row in jac_polys]
        per_k = []
        for k in ks:
            density = np.zeros(len(z))
            for rows in itertools.combinations(range(len(G)), k):
                for cols in itertools.combinations(range(N), k):
                    density += np.abs(_batch_minor_dets(jac, rows, cols)) ** 2
            density *= math.factorial(k) / math.pi ** k
            per_k.append(_half_blocks(z, g2, density, weight, k + 1, cfg))
        return per_k, bool(np.any(g2 <= cfg.epsilon_schedule[-1]))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (first, hit), (second, hit2) = _sample_halves(
            half, cfg, [(cfg.radius, 2.0)] * N)
        out = [_limit(*_epsilon_table(a, b, cfg), cfg)
               for a, b in zip(first, second)]
        if not (hit or hit2):
            for est in out:
                est.warnings.append("no sample has |G|^2 <= the smallest "
                                    "epsilon: the samples miss the zero set")
    return out


# ---------------------------------------------------------------------------
# fiber-lifted masses and the determinant mass balance
# ---------------------------------------------------------------------------

def _wedges(A, B):
    """Coefficients of prod_a (i dz_a ^ dzbar_a) in the wedges
    A^{j+1} ^ B^{N-1-j}, j = 0..N-1, of two (1,1)-forms given by N x N
    sample-arrays of Hessian entries: expanding the wedge gives
    (j+1)! (N-1-j)! * sum over row sets S with |S| = j+1 of det(rows S from
    A, the other rows from B)."""
    full = tuple(range(len(A)))
    out = []
    for j in full:
        dets = (_batch_minor_dets([A[a] if a in S else B[a] for a in full],
                                  full, full)
                for S in itertools.combinations(full, j + 1))
        out.append(math.factorial(j + 1) * math.factorial(len(A) - 1 - j)
                   * sum(dets))
    return out


def _chart_rows(g: PolyMatrix, chart: int):
    """The nonzero rows of G = g*alpha on the chart alpha_chart = 1, with
    coordinates (x, u_1..u_{r-1}), and per row {a: d_a row} over the
    derivatives that do not vanish identically (the others add no term)."""
    space = proj_space(g.nvars, g.cols)
    rows = [space.chart(p, chart) for p in map(space.lift, g.entries)
            if not p.is_zero()]
    grads = [{a: d for a in range(space.dim)
              if not (d := p.differentiate(a)).is_zero()} for p in rows]
    return rows, grads


def _chart_hessians(n: int, rows, grads, z: np.ndarray):
    """Hessian-entry arrays of |G|^2 = Q/P and of log P at the chart points
    z, from the rows and derivatives of ``_chart_rows``; the first n
    coordinates are the base's."""
    import numpy as np

    N = z.shape[1]
    vals = [p.eval_array(z) for p in rows]
    grads = [{a: d.eval_array(z) for a, d in gr.items()} for gr in grads]
    Q = np.zeros(len(z))
    for v in vals:
        Q += np.abs(v) ** 2
    P = np.ones(len(z))
    for a in range(n, N):
        P += np.abs(z[:, a]) ** 2
    inv = 1.0 / P
    g2 = Q * inv
    # the temporary first (see the module docstring)
    DQ = [sum(np.conj(v) * gr[a] for gr, v in zip(grads, vals) if a in gr)
          for a in range(N)]
    # P depends on the fiber coordinates u alone: with w_b = u_b / P,
    # d_a dbar_b log P = (delta_ab - conj(w_a) w_b) / P there, and every
    # P-derivative vanishes on the base coordinates (Hlog entries 0)
    w = {b: z[:, b] * inv for b in range(n, N)}
    Hf = [[None] * N for _ in range(N)]
    Hlog = [[0.0] * N for _ in range(N)]
    for a in range(N):
        for b in range(a, N):  # both Hessians are Hermitian
            h = sum(np.conj(gr[b]) * gr[a] for gr in grads
                    if a in gr and b in gr) * inv
            if b >= n:
                h = h - DQ[a] * w[b] * inv
            if a >= n:
                ww = np.conj(w[a]) * w[b]
                h = h - np.conj(DQ[b] * w[a]) * inv + 2 * g2 * ww
                Hlog[a][b] = -ww
                if a == b:
                    h = h - g2 * inv
                    Hlog[a][b] = Hlog[a][b] + inv
            Hf[a][b] = h
            if b > a:
                Hf[b][a], Hlog[b][a] = np.conj(h), np.conj(Hlog[a][b])
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
    square matrix over the disk against the exact count of the zeros of
    det g in it (``contour_root_count``); while a zero lies exactly on the
    circle, the radius shrinks by the factor 0.85 (six tries at most)."""
    import numpy as np

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
    charts = [_chart_rows(g, chart) for chart in range(r)]

    def half(z, weight):
        out = []
        for chart in charts:
            Hf, Hlog, g2 = _chart_hessians(g.nvars, *chart, z)
            for j, wedge in enumerate(_wedges(Hf, Hlog)):
                wedge = wedge / (2 * math.pi) ** r
                density = wedge.real * 2 ** r
                out.append((j, np.max(np.abs(wedge.imag)),
                            np.max(np.abs(wedge.real)),
                            _half_blocks(z, g2, density, weight, j + 2, cfg)))
        return out

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        per_eps_total = np.zeros(len(cfg.epsilon_schedule))
        stderr_total = np.zeros(len(cfg.epsilon_schedule))
        details = []
        # the base coordinate over the disk of the contour radius, radially
        # concentrated; the fiber chart coordinates uniform over unit disks
        # (the a.e. partition of P^{r-1} by max-modulus charts)
        first, second = _sample_halves(
            half, cfg, [(radius, 2.0)] + [(1.0, 0.5)] * (r - 1))
        for (j, imag, real, blocks), (_j, imag2, real2, blocks2) in \
                zip(first, second):
            # decided on the maxima over all samples
            if np.maximum(imag, imag2) > 1e-6 * (1 + np.maximum(real, real2)):
                raise NumericalFailureError("wedge coefficient not real")
            coeff = math.comb(r, j + 1)
            table, stderrs = _epsilon_table(blocks, blocks2, cfg)
            per = [(eps, coeff * val) for eps, val in table]
            per_eps_total += [val for _eps, val in per]
            stderr_total += coeff * np.array(stderrs)
            details.append(MassEstimate(per[-1][1], coeff * stderrs[-1],
                                        per, False, []))
        per_eps = [(eps, float(per_eps_total[i]))
                   for i, eps in enumerate(cfg.epsilon_schedule)]
        mass = _limit(per_eps, list(stderr_total), cfg).value
    passed = bool(abs(mass - det_count) < 0.1)
    return MassBalanceResult(float(mass), det_count, passed, radius, details)


# ---------------------------------------------------------------------------
# Crofton slice multiplicities
# ---------------------------------------------------------------------------

def _gaussian_integers(rng: random.Random, dim: int) -> List[Scalar]:
    """``dim`` Gaussian integers with real and imaginary parts uniform in
    [-2^16, 2^16]: slice coefficients outside a proper algebraic set with
    high probability.  Neither count a slice gives changes when it is
    scaled, so they need no normalization."""
    bound = 1 << 16
    return [Scalar(rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(dim)]


def _slice_poly(factor: MovingFactor, gamma) -> Polynomial:
    """sum_i gamma_i f_i.  The weights are left out: positive weights do not
    change a Lelong number (Demailly's comparison theorem), and gamma is
    random anyway."""
    return Polynomial(factor.args[0].nvars,
                      [(m, c * g_c) for g_c, p in zip(gamma, factor.args)
                       for m, c in p.terms.items()])


def _translate(p: Polynomial, point) -> Polynomial:
    """p(x + point): moves ``point`` to the origin.  Each term c x^m expands
    by the binomial theorem in the coordinates v with a_v = point[v] != 0,
    (x_v + a_v)^e = sum over k <= e of C(e, k) a_v^(e - k) x_v^k, C(e, k)
    = C(e, k + 1) (k + 1) / (e - k) in integers; the (monomial, coefficient)
    pairs go to one constructor call, which adds up the repeated monomials."""
    shifted = [v for v, a in enumerate(point) if a]
    if not shifted:
        return p
    rows = {}  # (v, e): [(k, C(e, k) a_v^(e - k))], None for the 1 at k = e
    pairs = []
    for m, c in p.terms.items():
        for v in shifted:
            if (v, m[v]) not in rows:
                row, pw, binom = [(m[v], None)], Scalar(1), 1
                for k in range(m[v] - 1, -1, -1):
                    pw, binom = pw * point[v], binom * (k + 1) // (m[v] - k)
                    row.append((k, pw * binom))
                rows[v, m[v]] = row
        for combo in itertools.product(*(rows[v, m[v]] for v in shifted)):
            mono, coeff = list(m), c
            for v, (k, b) in zip(shifted, combo):
                if b is not None:
                    mono[v], coeff = k, coeff * b
            pairs.append((tuple(mono), coeff))
    return Polynomial(p.nvars, pairs)


def crofton_moving_multiplicity(factors, fixed: VarietyRef, point,
                                cfg: Optional[RegConfig] = None) -> int:
    """The multiplicity at ``point`` of [fixed] ^ prod <...>^{p_t}, counted
    exactly on slices with seeded Gaussian-integer coefficients (three
    draws, which must agree)."""
    cfg = cfg or RegConfig()
    if not factors:
        raise InputError("no moving factors supplied")
    local = localize(factors, fixed, point)
    if local is None:
        return 0
    # the arguments are moved once so that the point sits at the origin
    factors, sub_point = local
    rfactors = [MovingFactor(tuple(_translate(p, sub_point) for p in f.args),
                             f.power, f.weights, f.averaged) for f in factors]
    j_total = sum(f.power for f in rfactors)
    if j_total != 1 and (j_total, len(sub_point)) != (2, 2):
        raise UndecidedError(f"no oracle rule for total slice power {j_total} "
                             f"in dimension {len(sub_point)}")
    estimates = []
    for rep in range(3):
        rng = random.Random(cfg.seed + 104729 * rep)
        estimates.append(_one_crofton_estimate(rfactors, j_total, rng))
    if len(set(estimates)) != 1:
        raise UndecidedError(f"slice estimates did not stabilize: {estimates}",
                             diagnostics={"estimates": estimates})
    return estimates[0]


def _one_crofton_estimate(rfactors, j_total, rng) -> int:
    """One slice estimate of the multiplicity at the origin; a total power
    other than 1 is 2 in dimension 2 (the caller checks the rule)."""
    if j_total == 1:
        s = _slice_poly(rfactors[0], _gaussian_integers(rng, len(rfactors[0].args)))
        if s.is_zero():
            raise UndecidedError("the slice vanishes identically")
        return min(map(sum, s.terms))  # the slice's vanishing order at 0
    slices = []
    for f in rfactors:
        for _ in range(f.power):
            slices.append(_slice_poly(f, _gaussian_integers(rng, len(f.args))))
    count = perturbation_root_count(slices)
    for f in rfactors:
        if f.power == len(f.args) == 2:
            count -= perturbation_root_count(f.args)
    return count
