"""Risk spectra, their discretizations and the consistency ladder.

A spectrum phi carries the closed forms of its integrals and its spectral
risk rho_phi(X) = -int phi(u) Q_X(u) du. A weight builder n -> a_{.,n}
induces the step density phi_n(t) = n * a_{i,n} on ((i-1)/n, i/n].
Consistency of the estimators -<a, s(x)> toward rho_phi needs the partial
integrals of phi_n to track those of phi; here the estimators' error is
measured on a ladder of growing sample sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bench import _usable_cpus
from .core import WeightVector, score_sorted_rows
from .distributions import true_risk
from .estimators import _check_level, _check_size, _es2_weight_array
from .sampling import RandomnessContract

_SPECTRUM_GRID = np.concatenate(
    [np.geomspace(1e-8, 1e-3, 24, endpoint=False), np.linspace(1e-3, 1.0, 1025)]
)


@dataclass(frozen=True, eq=False)
class SpectrumSpec:
    """A risk spectrum: non-increasing, non-negative density on (0,1], unit
    mass, carried with the closed forms of its integrals and of its risk.

    The declared properties are checked on a fixed validation grid at
    construction, and the mass through `integral(1)`.

    Attributes:
        evaluator: pointwise phi(t) for t in (0, 1].
        name: short identifier, used by the CLI.
        risk: law -> rho_phi = -int_0^1 phi(u) Q(u) du, the spectral risk
            that the estimators of its discretizations converge to.
        cells: n -> (int over ((i-1)/n, i/n] of phi)_i, the per-cell integrals.
        integral: t -> int_0^t phi.
    """

    evaluator: Callable[[float], float]
    name: str
    risk: Callable[[object], float]
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
        mass = float(self.integral(1.0))
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"spectrum must integrate to 1 within 1e-8, got {mass!r}")


def es_spectrum(alpha: float) -> SpectrumSpec:
    """The expected-shortfall spectrum: (1/alpha) on (0, alpha], 0 above,
    whose risk is the true ES at alpha."""
    _check_level(alpha)
    inv = 1.0 / alpha

    def phi(t: float) -> float:
        return inv if t <= alpha else 0.0

    return SpectrumSpec(
        evaluator=phi,
        name="es",
        risk=lambda dist: true_risk(dist, alpha).es_alpha,
        cells=lambda n: _es2_weight_array(alpha, n),
        integral=lambda t: min(t, alpha) / alpha,
    )


def uniform_spectrum() -> SpectrumSpec:
    """The flat spectrum phi = 1: the sample-mean functional, whose risk is
    -E[X]."""
    return SpectrumSpec(
        evaluator=lambda t: 1.0,
        name="uniform",
        risk=lambda dist: -dist.mean,
        cells=lambda n: np.full(n, 1.0 / n),
        integral=lambda t: t,
    )


def build_spectral_weights(spectrum: SpectrumSpec, n: int) -> WeightVector:
    """Discretize a spectrum by its per-cell integrals a_i = int over ((i-1)/n, i/n]."""
    _check_size(n)
    return WeightVector(spectrum.cells(n))


def build_spectral_weights_alt(spectrum: SpectrumSpec, n: int) -> WeightVector:
    """Discretize by right-endpoint evaluation: a_i = phi(i/n) / sum_k phi(k/n)."""
    _check_size(n)
    raw = np.array([spectrum.evaluator(i / n) for i in range(1, n + 1)])
    total = float(np.sum(raw))
    if total <= 0.0:
        raise ValueError("spectrum vanishes at every grid point i/n")
    return WeightVector(raw / total)


# name -> (spectrum, n) -> size-n weights: cell integrals or right endpoints
DISCRETIZATIONS: dict[str, Callable[[SpectrumSpec, int], WeightVector]] = {
    "integral": build_spectral_weights,
    "alternative": build_spectral_weights_alt,
}


def _discretization(name: str) -> Callable[[SpectrumSpec, int], WeightVector]:
    if name not in DISCRETIZATIONS:
        known = sorted(DISCRETIZATIONS)
        raise ValueError(f"unknown discretization {name!r}; expected one of {known}")
    return DISCRETIZATIONS[name]


@dataclass(frozen=True)
class ConsistencyRow:
    n: int
    median_abs_error: float
    iqr: float


def _quartiles(errors: np.ndarray) -> tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles of at least two values, bit for bit
    as np.percentile's default 'linear' method interpolates them (its _lerp),
    without the import of numpy.ma that its first call waits on."""
    s = np.sort(errors)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (len(s) - 1) * q
        i = int(pos)
        t = pos - i
        a, b = float(s[i]), float(s[i + 1])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return tuple(out)


def _score_part(dist, weights, reference, contract, tag, errors, part) -> None:
    """Write errors[rep] = |score of the sample drawn from stream (tag, rep)
    - reference| for each rep in range(*part), through a keyed generator and
    a (1, n) row of the part's own.

    The values past the head, 1 plus the index of the last non-zero weight,
    weigh exactly 0.0, so they are only partitioned off and left in any
    order; the full row still goes into the one product, which their exact
    zeros leave bit for bit as after a full sort.
    """
    n = weights.size
    head = int(np.flatnonzero(weights)[-1]) + 1
    at = contract.keyed(tag)
    # drawn, sorted and scored like one row of a study tile
    raw = tuple(np.empty((1, n)) for _ in range(dist.RAW_ARRAYS))
    for rep in range(*part):
        dist.draw(at(rep), raw, 0)
        x = dist.transform(raw)
        if head < n:
            x.partition(head - 1, axis=1)
        x[:, :head].sort(axis=1)
        errors[rep] = abs(score_sorted_rows(weights, x)[0] - reference)


def empirical_consistency(
    dist,
    spectrum: SpectrumSpec,
    discretization: str,
    n_list: Sequence[int],
    reps: int,
    seed: int,
) -> list[ConsistencyRow]:
    """Median |estimate - risk| per sample size, over independent replications.

    Size n scores the named discretization of spectrum (ValueError when
    unknown) on samples from the stream "consistency|{spectrum.name}-
    {discretization}|n={n}", against the spectrum's own risk,
    spectrum.risk(dist), taken once per ladder.

    Each size's replications split into one contiguous part per usable CPU,
    at most one per replication. One part runs in the calling thread; more
    run on a pool of threads, which overlap because the draws, sorts and
    products release the interpreter lock. Every replication
    has its own stream and its own slot in the errors, so the rows are the
    same at any CPU count.
    """
    build = _discretization(discretization)
    if not n_list:
        raise ValueError("need at least one sample size")
    if reps < 2:
        raise ValueError("need at least two replications per size")
    reference = spectrum.risk(dist)
    contract = RandomnessContract(seed)
    parts = min(_usable_cpus(), reps)
    bounds = [reps * i // parts for i in range(parts + 1)]
    pool = None
    if parts > 1:
        # imported here: only a ladder on several CPUs needs it
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(parts)
    try:
        rows = []
        for n_raw in n_list:
            n = int(n_raw)
            weights = build(spectrum, n).weights
            errors = np.empty(reps)
            tag = f"consistency|{spectrum.name}-{discretization}|n={n}"
            score = functools.partial(_score_part, dist, weights, reference, contract, tag, errors)
            # reading every result raises the first failed part's error
            for _ in (map if pool is None else pool.map)(score, zip(bounds, bounds[1:])):
                pass
            q25, q50, q75 = _quartiles(errors)
            rows.append(ConsistencyRow(n=n, median_abs_error=q50, iqr=q75 - q25))
    finally:
        if pool is not None:
            pool.shutdown()
    return rows
