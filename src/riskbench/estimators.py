"""Concrete tail-risk estimators and their order-statistic weight vectors.

Six expected-shortfall estimators, two value-at-risk estimators, a Gaussian
moment plug-in, an expectile-based estimator, and spectral discretizations.
All order-statistic estimators are materialized as full-length weight
arrays (zeros beyond the tail) so they can be compared and fed to the
coherence machinery uniformly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import WeightVector, score_sorted_rows, simplex_defect

# Tail-trim shape parameter for the inflated variants (#4, #6).
DEFAULT_XI = 1.0 / 3.0
_INFLATED_FIRST = 0.5 + 1.0 / (1.0 - DEFAULT_XI)

# Snap for floor(alpha*n): collapses float dust around exact integers so
# e.g. alpha=0.025, n=240 lands on 6 with zero fractional part.
_FLOOR_SNAP = 1e-9

EXPECTILE_RESIDUAL_RTOL = 1e-10


def _snapped_split(value: float) -> tuple[int, float]:
    """(floor, fractional part) of value, snapping float dust just below an
    integer up to it: the one floor rule for tail counts such as floor(alpha*n)."""
    m = int(np.floor(value + _FLOOR_SNAP))
    frac = value - m
    return m, (0.0 if frac < _FLOOR_SNAP else frac)


def _check_level(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"level alpha must lie in (0, 1), got {alpha}")


def _check_size(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"sample size n must be a positive integer, got {n!r}")


@dataclass(frozen=True, eq=False)
class LEstimatorSpec:
    """A named weighted order-statistic estimator of fixed size.

    Attributes:
        name: the estimator's key in ESTIMATORS.
        alpha: the tail level the weights were built for.
        n: sample size the weights apply to.
        weights: read-only full-length weight array (no simplex constraint).
        is_cre: True when the weights are non-negative, sum to one, and are
            non-increasing, which makes x -> -<w, s(x)> a coherent estimator.
    """

    name: str
    alpha: float
    n: int
    weights: np.ndarray
    is_cre: bool

    def rows(self, block: np.ndarray) -> np.ndarray:
        """The estimate of every row of an (m, n) block, through one row-wise
        sort and one matrix-vector product. A row's last bits can depend on
        the block it sits in."""
        return score_sorted_rows(self.weights, np.sort(block, axis=1))


def _var_weight_array(alpha: float, n: int) -> np.ndarray:
    m, _ = _snapped_split(alpha * n)
    if m + 1 > n:
        raise ValueError(f"empirical VaR needs floor(alpha*n)+1 <= n, got {m + 1} > {n}")
    w = np.zeros(n)
    w[m] = 1.0
    return w


def _var1_weight_array(alpha: float, n: int) -> np.ndarray:
    if n != 250:
        raise ValueError(f"interpolated 1% VaR weights are defined for n=250 only, got n={n}")
    w = np.zeros(n)
    w[1] = 0.49
    w[2] = 0.51
    return w


def _es1_weight_array(alpha: float, n: int) -> np.ndarray:
    m, _ = _snapped_split(alpha * n)
    if m < 1:
        raise ValueError(f"need floor(alpha*n) >= 1, got alpha*n = {alpha * n}")
    w = np.zeros(n)
    w[:m] = 1.0 / m
    return w


def _es2_weight_array(alpha: float, n: int) -> np.ndarray:
    m, frac = _snapped_split(alpha * n)
    if m < 1:
        raise ValueError(f"need floor(alpha*n) >= 1, got alpha*n = {alpha * n}")
    if frac > 0.0 and m + 1 > n:
        raise ValueError(f"fractional tail weight needs position {m + 1} <= n")
    scale = m + frac
    w = np.zeros(n)
    w[:m] = 1.0 / scale
    if frac > 0.0:
        # The trailing weight is dropped entirely when alpha*n is an integer,
        # making this coincide with the equal-weight average bit for bit.
        w[m] = frac / scale
    return w


def _es34_weight_array(alpha: float, n: int, first_coef: float) -> np.ndarray:
    v = alpha * (n + 1)
    m, r = _snapped_split(v)
    if m < 2:
        raise ValueError(f"need floor(alpha*(n+1)) >= 2, got alpha*(n+1) = {v}")
    if m + 1 > n:
        raise ValueError(f"boundary weight needs position {m + 1} <= n")
    scale = m + r
    w = np.zeros(n)
    w[0] = first_coef / scale
    w[1 : m - 1] = 1.0 / scale
    w[m - 1] = (1.0 + 2.0 * r - r * r) / 2.0 / scale
    w[m] = r * r / 2.0 / scale
    return w


def _es56_weight_array(alpha: float, n: int, first_coef: float) -> np.ndarray:
    m, _ = _snapped_split(alpha * (n + 1))
    if m < 1:
        raise ValueError(f"need floor(alpha*(n+1)) >= 1, got alpha*(n+1) = {alpha * (n + 1)}")
    if m > n:
        raise ValueError(f"tail length {m} exceeds sample size {n}")
    w = np.zeros(n)
    w[0] = first_coef / m
    w[1:m] = 1.0 / m
    return w


# name -> (alpha, n) -> full-length weight array, x_(1) the worst outcome.
# es3/es5 bump the worst outcome's weight to 3/2, es4/es6 to 1/2 + 1/(1-xi)
# with xi = DEFAULT_XI, so es4 leaves the simplex (sum > 1).
ESTIMATORS: dict[str, Callable[[float, int], np.ndarray]] = {
    "var": _var_weight_array,  # weight one on x_(floor(alpha*n)+1)
    "var1": _var1_weight_array,  # 0.49 x_(2) + 0.51 x_(3), at n=250 only
    "es1": _es1_weight_array,  # equal weights on the floor(alpha*n) worst
    "es2": _es2_weight_array,  # tail average at exact mass alpha*n
    # quantile-integral weights at level alpha*(n+1)
    "es3": functools.partial(_es34_weight_array, first_coef=1.5),
    "es4": functools.partial(_es34_weight_array, first_coef=_INFLATED_FIRST),
    # truncated tail average over the floor(alpha*(n+1)) worst
    "es5": functools.partial(_es56_weight_array, first_coef=1.5),
    "es6": functools.partial(_es56_weight_array, first_coef=_INFLATED_FIRST),
}


def build_estimator(name: str, alpha: float, n: int) -> LEstimatorSpec:
    """ESTIMATORS[name] at level alpha and sample size n, its weights
    read-only; 'var1' ignores alpha (fixed 1% level). Raises ValueError on
    an unknown name or an (alpha, n) the weights cannot take."""
    key = name.lower()
    try:
        rule = ESTIMATORS[key]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {sorted(ESTIMATORS)}"
        ) from None
    if key == "var1":
        alpha = 0.01
    _check_level(alpha)
    _check_size(n)
    weights = rule(alpha, n)
    weights.setflags(write=False)
    return LEstimatorSpec(key, alpha, n, weights, simplex_defect(weights, True) is None)


# Cephes ndtri (S. L. Moshier, 1989), the standard normal quantile. Between
# exp(-2) and 1 - exp(-2) it is a rational function (P0/Q0) of y - 1/2. In a
# tail of mass y it is x - log(x)/x - P(z)/(x Q(z)) with x = sqrt(-2 log y)
# and z = 1/x, by P1/Q1 for x < 8 (y > exp(-32)) and P2/Q2 beyond. Each Q
# has an implicit leading 1.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:  # the leading coefficient is 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Phi^-1(y) for one float, bit for bit the C ndtri of Cephes: -inf at 0,
    +inf at 1, nan outside [0, 1]. Scalar libm log and sqrt only: numpy's
    vectorized log can round differently."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x1 = z * _polevl(z, p) / _p1evl(z, q)
    return x0 - x1 if upper else -(x0 - x1)


def _normal_density_at_quantile(alpha: float) -> float:
    """phi(Phi^-1(alpha)), the standard normal density at its alpha-quantile,
    as exp(-(q * q) / 2) / sqrt(2 pi) with q = _ndtri(alpha): the expression
    of the usual norm.pdf(norm.ppf(alpha)), so each value keeps its bits
    (q * q, as numpy squares arrays; a scalar q**2 calls pow and can differ)."""
    q = _ndtri(alpha)
    return float(np.exp(-(q * q) / 2.0) / np.sqrt(2 * np.pi))


def _sample_rows(block, least: int) -> np.ndarray:
    """block as a C-ordered (m, n) float array, n >= least, all finite: C
    order keeps each row's reductions those of the row alone."""
    rows = np.ascontiguousarray(block, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < least:
        raise ValueError(f"need an (m, n) block of samples with n >= {least}, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("sample must contain only finite values")
    return rows


def gaussian_plugin_rows(alpha: float, block) -> np.ndarray:
    """The normal moment plug-in -(mean - sd * phi(Phi^-1(alpha)) / alpha) of
    every row of an (m, n) block, n >= 2; a row's value has the same bits in
    any block.

    The sample standard deviation uses the n-1 denominator. Not an
    order-statistic estimator, and not monotone: it can assign higher risk to
    a dominating sample.
    """
    _check_level(alpha)
    rows = _sample_rows(block, 2)
    sd = np.std(rows, axis=1, ddof=1)
    return -(np.mean(rows, axis=1) - sd * _normal_density_at_quantile(alpha) / alpha)


def tail_split(alpha: float, n: int) -> tuple[int, float]:
    """(k, frac): k = floor(alpha*n) by the snapped floor and frac its
    remainder. Raises ValueError unless 1 <= k < n, so that a sample of n
    outcomes has a k-outcome tail and an outcome x_(k+1) past it."""
    k, frac = _snapped_split(alpha * n)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= floor(alpha*n) < n, got {k} at n = {n}")
    return k, frac


def tail_levels(alphas, sample: np.ndarray) -> list[tuple[float, float, float]]:
    """(var, es1, es2) of a flat sample at each level, partitioning the
    sample in place: pass a copy to keep its order.

    With k = floor(alpha*n) and frac its remainder (tail_split), var is
    -x_(k+1), es1 is -(x_(1) + ... + x_(k)) / k and es2 is -(x_(1) + ... +
    x_(k) + frac * x_(k+1)) / (k + frac).

    The first level partitions the whole sample, so its values are those of a
    one-level call. Every later level sub-partitions that partition's prefix
    or suffix. Its var is an order statistic, so it keeps the one-level bits;
    its es1 and es2 sum a different arrangement of the same values and may
    differ in the last bits.
    """
    splits = [tail_split(a, sample.size) for a in alphas]
    first = splits[0][0]
    sample.partition(first)
    out = []
    for k, frac in splits:
        if k < first:
            sample[:first].partition(k)
        elif k > first:
            sample[first + 1 :].partition(k - first - 1)
        tail, boundary = float(np.sum(sample[:k])), float(sample[k])
        out.append((-boundary, -tail / k, -(tail + frac * boundary) / (k + frac)))
    return out


def expectile_rows(alpha: float, block) -> np.ndarray:
    """The expectile risk -e of every row of an (m, n) block, e the row's
    exact empirical expectile; a row's value has the same bits in any block.

    The first-order condition g(c) = alpha*sum(x-c)_+ - (1-alpha)*sum(x-c)_-
    is continuous, piecewise linear, and strictly decreasing, so each root is
    pinned between two order statistics and solved by one linear equation;
    no iterative tolerance is involved. Requires 0 < alpha <= 1/2 so that
    the sample-dependent weights a writing -e as -<a, s(x)> are non-increasing.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    s = np.sort(_sample_rows(block, 1), axis=1)
    rows, n = np.arange(len(s)), s.shape[1]
    prefix = np.cumsum(s, axis=1)
    total = prefix[:, -1]
    j = np.arange(1, n + 1)

    # g at every order statistic, g(s_j) with the sums split at k = j, in
    # two scratch buffers: alpha*((total - prefix) - (n-j)*s) - (1-alpha)*(j*s - prefix)
    g, t = np.subtract(total[:, None], prefix), np.multiply(n - j, s)
    g = np.multiply(alpha, np.subtract(g, t, out=g), out=g)
    g -= np.multiply(1.0 - alpha, np.subtract(np.multiply(j, s, out=t), prefix, out=t), out=t)

    # g(s_1) >= 0 and g(s_n) <= 0 always; the root follows the first s_k
    # with g(s_k) <= 0. With no hit, prefix-sum dust left g(s_n) a few ulp
    # above zero on a near-constant sample: the root is s_n itself.
    hits = g <= 0.0
    k = np.argmax(hits, axis=1)
    below = prefix[rows, k - 1]
    num = alpha * (total - below) + (1.0 - alpha) * below
    root = np.where(k == 0, s[:, 0], num / (alpha * (n - k) + (1.0 - alpha) * k))
    root = np.where(hits[rows, k], root, s[:, -1])

    # each root's residual, from s - root in the same two buffers
    np.subtract(s, root[:, None], out=g)
    up = np.maximum(g, 0.0, out=t).sum(axis=1)
    down = np.minimum(g, 0.0, out=t).sum(axis=1)
    residual = alpha * up + (1.0 - alpha) * down
    scale = 1.0 + up - down
    bad = np.flatnonzero(np.abs(residual) > EXPECTILE_RESIDUAL_RTOL * scale)
    if bad.size:
        r, c = residual[bad[0]], scale[bad[0]]
        raise RuntimeError(f"expectile residual {r!r} exceeds tolerance at scale {c!r}")
    return -root


# ---------------------------------------------------------------------------
# Spectral weights


_SPECTRUM_GRID = np.concatenate(
    [np.geomspace(1e-8, 1e-3, 24, endpoint=False), np.linspace(1e-3, 1.0, 1025)]
)


@dataclass(frozen=True, eq=False)
class SpectrumSpec:
    """A risk spectrum: non-increasing, non-negative density on (0,1], unit
    mass, carried with the closed forms of its integrals.

    The declared properties are checked on a fixed validation grid at
    construction, and the mass through `integral(1)`.

    Attributes:
        evaluator: pointwise phi(t) for t in (0, 1].
        name: short identifier, used by the CLI.
        sup_bound: sup of phi.
        cells: n -> (int over ((i-1)/n, i/n] of phi)_i, the per-cell integrals.
        integral: t -> int_0^t phi.
    """

    evaluator: Callable[[float], float]
    name: str
    sup_bound: float
    cells: Callable[[int], np.ndarray]
    integral: Callable[[float], float]

    def __post_init__(self):
        vals = np.array([self.evaluator(float(t)) for t in _SPECTRUM_GRID])
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum must be finite on (0, 1]")
        if np.any(vals < 0.0):
            raise ValueError("spectrum must be non-negative")
        tol = 1e-9 * (1.0 + float(np.max(vals)))
        if np.any(np.diff(vals) > tol):
            raise ValueError("spectrum must be non-increasing on (0, 1]")
        mass = self.cumulative(1.0)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"spectrum must integrate to 1 within 1e-8, got {mass!r}")

    def cumulative(self, t: float) -> float:
        """int_0^t phi, by the closed form."""
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if t == 0.0:
            return 0.0
        return float(self.integral(t))


def es_spectrum(alpha: float) -> SpectrumSpec:
    """The expected-shortfall spectrum: (1/alpha) on (0, alpha], 0 above."""
    _check_level(alpha)
    inv = 1.0 / alpha

    def phi(t: float) -> float:
        return inv if t <= alpha else 0.0

    return SpectrumSpec(
        evaluator=phi,
        name="es",
        sup_bound=inv,
        cells=lambda n: _es2_weight_array(alpha, n),
        integral=lambda t: min(t, alpha) / alpha,
    )


def uniform_spectrum() -> SpectrumSpec:
    """The flat spectrum phi = 1: the sample-mean functional."""
    return SpectrumSpec(
        evaluator=lambda t: 1.0,
        name="uniform",
        sup_bound=1.0,
        cells=lambda n: np.full(n, 1.0 / n),
        integral=lambda t: t,
    )


def build_spectral_weights(spectrum: SpectrumSpec, n: int) -> WeightVector:
    """Discretize a spectrum by its per-cell integrals a_i = int over ((i-1)/n, i/n]."""
    _check_size(n)
    return WeightVector(spectrum.cells(n), monotone_flag=True)


def build_spectral_weights_alt(spectrum: SpectrumSpec, n: int) -> WeightVector:
    """Discretize by right-endpoint evaluation: a_i = phi(i/n) / sum_k phi(k/n)."""
    _check_size(n)
    raw = np.array([spectrum.evaluator(i / n) for i in range(1, n + 1)])
    total = float(np.sum(raw))
    if total <= 0.0:
        raise ValueError("spectrum vanishes at every grid point i/n")
    return WeightVector(raw / total, monotone_flag=True)
