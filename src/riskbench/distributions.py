"""Return distributions for the benchmark and their true risk values.

Each type carries the law of its h-day sum (horizon), its mean and its
reference: Normal and Student-t have closed forms (quantile and es); the
normal inverse Gaussian and h-day sums of Student-t (HorizonSum) fill an
antithetic Monte Carlo oracle sample (oracle_pairs) whose standard error
comes from batch means. HorizonSum(StudentT(nu), 1) samples the plain t.
Profit is positive: VaR and ES of a centered distribution come out positive.

The normal quantile is Cephes ndtri, ported in estimators. Only the
Student-t closed forms need scipy.special, which a StudentT loads when it
is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import _check_level, _ndtri, _normal_density_at_quantile, tail_levels, tail_split

DEFAULT_ORACLE_K = 10_000_000
ORACLE_BATCHES = 20


# Each distribution samples in two steps. draw fills row `row` of the raw
# arrays (RAW_ARRAYS of them, one per generator call; a row of ... is all)
# from rng in a fixed order, the generator calls only. transform turns raw
# draws of any shape into variates, elementwise, so the bits of a variate do
# not depend on the shape it is computed in; it may overwrite the raw draws.
# label is the canonical text form, also accepted by parse_dist.
# oracle_passes is a reference's cost in passes over an oracle sample (0 for
# a closed form), by which the study hands out its references longest first.


@dataclass(frozen=True)
class Normal:
    mu: float = 0.0
    sigma: float = 1.0

    RAW_ARRAYS = 1
    oracle_passes = 0

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise ValueError(f"need finite mu and sigma > 0, got ({self.mu}, {self.sigma})")

    @property
    def mean(self) -> float:
        return self.mu

    def horizon(self, h: int) -> "Normal":
        return Normal(h * self.mu, self.sigma * math.sqrt(h))

    def quantile(self, u: float) -> float:
        """mu + sigma * Phi^-1(u)."""
        return self.mu + self.sigma * _ndtri(float(u))

    def es(self, alpha: float) -> float:
        return float(-self.mu + self.sigma * _normal_density_at_quantile(alpha) / alpha)

    @property
    def label(self) -> str:
        return f"normal:{_param(self.mu)}:{_param(self.sigma)}"

    def draw(self, rng: np.random.Generator, raw, row) -> None:
        rng.standard_normal(out=raw[0][row])

    def transform(self, raw) -> np.ndarray:
        (x,) = raw
        x *= self.sigma
        x += self.mu
        return x


@dataclass(frozen=True)
class StudentT:
    """Standard Student-t with nu > 1 degrees of freedom (ES needs a tail mean)."""

    nu: float

    RAW_ARRAYS = 1
    oracle_passes = 0
    mean = 0.0

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise ValueError(f"need finite nu, got {self.nu}")
        if not self.nu > 1.0:
            raise ValueError(f"need nu > 1, got {self.nu}")
        # the t quantile and es need scipy.special, which nothing else loads:
        # load it with the law, when a spec is parsed, so that a study's
        # forked workers inherit it instead of each importing it again
        import scipy.special  # noqa: F401

    def horizon(self, h: int):
        return self if h == 1 else HorizonSum(self, h)

    def quantile(self, u):
        from scipy import special

        return special.stdtrit(self.nu, u)

    def es(self, alpha: float) -> float:
        """Analytic tail mean: pdf(q) * (nu + q^2) / (alpha * (nu - 1)), q the
        alpha quantile, the density in the expressions of SciPy's t
        distribution, so each value keeps its bits."""
        from scipy import special

        nu, q = self.nu, self.quantile(alpha)
        density = np.exp(
            np.log(special.poch(0.5 * nu, 0.5))
            - 0.5 * (np.log(nu) + np.log(np.pi))
            - (nu + 1) / 2 * np.log1p(q * q / nu)
        )
        return float(density * (nu + q * q) / (alpha * (nu - 1.0)))

    @property
    def label(self) -> str:
        return f"t:{_param(self.nu)}"

    def draw(self, rng: np.random.Generator, raw, row) -> None:
        # one standard_t call: its internal gamma draws cannot be split from
        # its normals without moving the stream
        out = raw[0][row]
        out[...] = rng.standard_t(self.nu, out.shape)

    def transform(self, raw) -> np.ndarray:
        return raw[0]


@dataclass(frozen=True)
class Nig:
    """Normal inverse Gaussian with tail a, asymmetry b, location mu, scale delta.

    Mixture form: X = mu + b*V + sqrt(V)*Z with V inverse Gaussian of mean
    delta/gamma and shape delta^2, gamma = sqrt(a^2 - b^2), Z standard normal.
    """

    a: float
    b: float
    mu: float = 0.0
    delta: float = 1.0

    RAW_ARRAYS = 3  # y, u and z
    oracle_passes = 1

    def __post_init__(self):
        params = (self.a, self.b, self.mu, self.delta)
        if not all(map(math.isfinite, params)):
            raise ValueError(f"need finite a, b, mu and delta, got {params}")
        if not (self.a > 0.0 and abs(self.b) < self.a and self.delta > 0.0):
            raise ValueError(
                f"need a > 0, |b| < a, delta > 0, got (a={self.a}, b={self.b}, delta={self.delta})"
            )

    @property
    def gamma(self) -> float:
        return math.sqrt(self.a * self.a - self.b * self.b)

    @property
    def label(self) -> str:
        return f"nig:{_param(self.a)}:{_param(self.b)}:{_param(self.mu)}:{_param(self.delta)}"

    @property
    def mean(self) -> float:
        return nig_moments(self).mean

    def horizon(self, h: int) -> "Nig":  # closed under summation in (mu, delta)
        return Nig(self.a, self.b, h * self.mu, h * self.delta)

    def draw(self, rng: np.random.Generator, raw, row) -> None:
        y, u, z = raw
        rng.standard_normal(out=y[row])
        rng.random(out=u[row])
        rng.standard_normal(out=z[row])

    def transform(self, raw) -> np.ndarray:
        y, u, z = raw
        v = inverse_gaussian_transform(self.delta / self.gamma, self.delta**2, y, u)
        # mu + b*v + sqrt(v)*z, accumulated in v
        z *= np.sqrt(v)
        v *= self.b
        v += self.mu
        v += z
        return v

    def oracle_pairs(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # the draws (y, u, then z) and transform of sample: y whole, then v
        # over y chunk by chunk, then z chunk by chunk into the pairs
        half = out.size // 2
        src = out[half:]
        mean = self.delta / self.gamma
        rng.standard_normal(out=src)
        for i0, i1 in _chunks(half):
            u = rng.random(i1 - i0)
            src[i0:i1] = inverse_gaussian_transform(mean, self.delta**2, src[i0:i1], u)
        for i0, i1 in _chunks(half):
            z = rng.standard_normal(i1 - i0)
            v = src[i0:i1]
            drift = self.mu + self.b * v
            spread = np.sqrt(v)
            spread *= z
            out[2 * i0 : 2 * i1 : 2] = drift + spread
            out[2 * i0 + 1 : 2 * i1 : 2] = drift - spread


@dataclass(frozen=True)
class HorizonSum:
    """Sum of h independent copies of a Student-t; oracle-only true risk.
    Normal and NIG are closed under sums (see their horizon)."""

    base: StudentT
    h: int

    def __post_init__(self):
        if not isinstance(self.base, StudentT):
            raise ValueError(f"base must be a StudentT, got {self.base!r}")
        if not (isinstance(self.h, int) and self.h >= 1):
            raise ValueError(f"horizon must be a positive integer, got {self.h!r}")

    @property
    def oracle_passes(self) -> int:  # one gamma and one normal draw per day
        return self.h

    def oracle_pairs(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """The oracle pairs of a sum of h t(nu) variates (a plain t is a
        one-day sum). Each day: gamma draws g of shape nu/2 into out[:half],
        then normals z chunk by chunk into one scratch chunk; the day's
        z * sqrt((nu/2) / g) is computed in g and added to the sum in out[half:],
        which starts from zeros. (nu/2) / g has the bits of nu / w for the
        chi-square draw w = 2g the same stream gives: doubling is exact."""
        half = out.size // 2
        src = out[half:]
        shape = self.base.nu / 2.0
        scratch = np.empty(min(_ORACLE_CHUNK, half))
        src[:] = 0.0
        for _ in range(self.h):
            rng.standard_gamma(shape, out=out[:half])
            for i0, i1 in _chunks(half):
                w = out[i0:i1]
                np.divide(shape, w, out=w)
                np.sqrt(w, out=w)
                w *= rng.standard_normal(out=scratch[: i1 - i0])
                src[i0:i1] += w
        for i0, i1 in _chunks(half):
            plus = scratch[: i1 - i0]
            np.copyto(plus, src[i0:i1])
            out[2 * i0 : 2 * i1 : 2] = plus
            np.negative(plus, out=out[2 * i0 + 1 : 2 * i1 : 2])


def _param(value: float) -> str:
    """The short :g form when it parses back to the value, else the full repr,
    so distinct parameters never share a label."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def parse_dist(text: str) -> Normal | StudentT | Nig:
    """Parse 'normal:mu:sigma', 't:nu', or 'nig:a:b:mu:delta'."""
    parts = text.strip().split(":")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind == "normal":
            if len(args) not in (0, 2):
                raise ValueError
            return Normal(*(float(v) for v in args)) if args else Normal()
        if kind in ("t", "student"):
            if len(args) != 1:
                raise ValueError
            return StudentT(float(args[0]))
        if kind == "nig":
            if len(args) not in (2, 4):
                raise ValueError
            return Nig(*(float(v) for v in args))
    except ValueError as exc:
        if str(exc):
            raise
        raise ValueError(f"malformed distribution spec {text!r}") from None
    raise ValueError(f"unknown distribution kind {kind!r} in {text!r}")


def inverse_gaussian_transform(
    mean: float, shape: float, y: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse Gaussian variates from standard normals y and uniforms u of
    any common shape, by the Michael-Schucany-Haas transform. y is used as
    scratch and overwritten.

    The squared normal gives the smaller root of the defining quadratic; u
    picks between that root and its conjugate mean^2/root with probability
    mean/(mean + root).
    """
    if not (mean > 0.0 and shape > 0.0):
        raise ValueError("inverse Gaussian needs mean > 0 and shape > 0")
    # in place wherever the rounding allows, so a transform holds one array
    # beside its inputs; each value rounds exactly as
    # where(u <= mean/(mean + x), x, mean^2/x) with
    # x = mean + half*(mean*y^2 - sqrt(4*mean*shape*y^2 + (mean*y^2)^2))
    np.square(y, out=y)
    half = mean / (2.0 * shape)
    x = mean * y
    y *= 4.0 * mean * shape
    y += x**2
    np.sqrt(y, out=y)
    x -= y
    x *= half
    x += mean
    np.add(x, mean, out=y)
    np.divide(mean, y, out=y)
    keep = u <= y
    np.divide(mean * mean, x, out=y)
    np.copyto(x, y, where=~keep)
    return x


class NigMoments(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def nig_moments(spec: Nig) -> NigMoments:
    g = spec.gamma
    return NigMoments(
        mean=spec.mu + spec.delta * spec.b / g,
        variance=spec.delta * spec.a**2 / g**3,
        skewness=3.0 * spec.b / (spec.a * math.sqrt(spec.delta * g)),
        excess_kurtosis=3.0 * (1.0 + 4.0 * spec.b**2 / spec.a**2) / (spec.delta * g),
    )


# ---------------------------------------------------------------------------
# True risk


@dataclass(frozen=True)
class TrueRisk:
    """True VaR and ES at one level, with the method that produced them.

    standard_error is the batch-means standard error of es_alpha for the
    Monte Carlo oracle and exactly 0.0 for closed forms.
    """

    var_alpha: float
    es_alpha: float
    method: str
    standard_error: float
    oracle_k: int | None = None
    oracle_seed: int | None = None

    def __post_init__(self):
        if self.method not in ("closed_form", "mc_oracle"):
            raise ValueError(f"unknown method {self.method!r}")
        slack = 1e-12 * (1.0 + abs(self.es_alpha))
        if self.es_alpha < self.var_alpha - slack:
            raise ValueError(
                f"ES {self.es_alpha!r} below VaR {self.var_alpha!r}; tail average "
                "cannot beat its quantile"
            )


# pairs per chunk of the oracle's in-place passes: each chunk's temporaries
# stay a few hundred KB beside the k-double sample
_ORACLE_CHUNK = 1 << 14


def _chunks(half: int):
    for i0 in range(0, half, _ORACLE_CHUNK):
        yield i0, min(i0 + _ORACLE_CHUNK, half)


def _oracle_sample(dist, k: int, seed: int) -> np.ndarray:
    """k antithetic draws in one k-double array, pairs (X+, X-) adjacent,
    sharing mixing variables with Z mirrored; k a multiple of 2*ORACLE_BATCHES.

    Each oracle_pairs keeps pair i's source (the inverse Gaussian or the t
    value) in out[half + i] and writes pairs to out[2i] and out[2i + 1] in
    increasing chunks of pairs: a chunk [i0, i1) writes below
    2*i1 <= half + i1, so it overwrites only sources already read.
    """
    out = np.empty(k)
    dist.oracle_pairs(np.random.default_rng(seed), out)
    return out


def _round_up(k: int, multiple: int) -> int:
    return ((k + multiple - 1) // multiple) * multiple


def oracle_batch_size(oracle_k: int) -> int:
    """Draws per oracle batch: oracle_k rounded up so the ORACLE_BATCHES
    batches tile it in whole antithetic pairs, then split evenly."""
    k = _round_up(max(int(oracle_k), 2 * ORACLE_BATCHES), 2 * ORACLE_BATCHES)
    return k // ORACLE_BATCHES


def check_oracle_k(oracle_k: int, alphas) -> None:
    """Reject an oracle size too small for each batch's tail average at every
    level. The message leaves the name of the size to the caller."""
    batch = oracle_batch_size(oracle_k)
    for a in alphas:
        try:
            tail_split(a, batch)
        except ValueError as exc:
            raise ValueError(
                f"{oracle_k} leaves {batch} draws per oracle batch, too few "
                f"for a tail average at level {a}: {exc}"
            ) from None


def true_risk_levels(
    dist,
    alphas,
    *,
    oracle_k: int = DEFAULT_ORACLE_K,
    seed: int = 0,
) -> dict[float, TrueRisk]:
    """True risk at several levels, sharing one oracle sample across levels.

    Normal and Student-t have closed forms (their quantile and es); NIG and
    h-day sums of Student-t go through the oracle (their oracle_pairs). The
    oracle size is rounded up so the 20 batches tile it in whole antithetic
    pairs.

    The oracle reads every level from one sample through
    estimators.tail_levels, which partitions it in place; each batch's es,
    for the standard error, comes from a copy of that batch. The first
    level's var, es and standard error, and every level's var and standard
    error, are bit for bit those of a one-level call; a later level's es may
    differ in the last bits, so pass first the level whose es matters.
    """
    levels = list(dict.fromkeys(float(a) for a in alphas))
    if not levels:
        raise ValueError("alphas must name at least one level")
    for a in levels:
        _check_level(a)
    if not dist.oracle_passes:
        return {
            a: TrueRisk(-float(dist.quantile(a)), dist.es(a), "closed_form", 0.0)
            for a in levels
        }

    check_oracle_k(oracle_k, levels)
    k = oracle_batch_size(oracle_k) * ORACLE_BATCHES
    values = _oracle_sample(dist, k, seed)
    # every batch's es from a copy of its batch, before the partitions below
    # rearrange the sample in place
    batches = values.reshape(ORACLE_BATCHES, -1)
    ses = [
        float(
            np.std([tail_levels([a], batch.copy())[0][2] for batch in batches], ddof=1)
            / math.sqrt(ORACLE_BATCHES)
        )
        for a in levels
    ]
    return {
        a: TrueRisk(var, es, "mc_oracle", se, oracle_k=k, oracle_seed=seed)
        for a, (var, _, es), se in zip(levels, tail_levels(levels, values), ses)
    }


def true_risk(
    dist,
    alpha: float,
    *,
    oracle_k: int = DEFAULT_ORACLE_K,
    seed: int = 0,
) -> TrueRisk:
    """True VaR and ES of dist at one level. See true_risk_levels."""
    return true_risk_levels(dist, [alpha], oracle_k=oracle_k, seed=seed)[float(alpha)]
