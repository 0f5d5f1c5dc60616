"""Consistency diagnostics for spectral weight approximations.

A weight builder n -> a_{.,n} induces the step density phi_n(t) = n * a_{i,n}
on ((i-1)/n, i/n]. Consistency of the estimators -<a, s(x)> toward the
spectral risk value needs the partial integrals of phi_n to track those of
phi; here the estimators' error is measured on a ladder of growing sample
sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bench import _usable_cpus
from .core import WeightVector, score_sorted_rows
from .distributions import true_risk
from .estimators import SpectrumSpec, build_spectral_weights, build_spectral_weights_alt
from .sampling import RandomnessContract

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


def _target(dist, spectrum: SpectrumSpec, alpha: float) -> float:
    """The risk a spectrum's estimators converge to: the true ES at alpha for
    'es', and -E[X], the sample mean's limit, for 'uniform' (the Student-t
    here is the standard, centred one)."""
    if spectrum.name == "es":
        return true_risk(dist, alpha).es_alpha
    if spectrum.name != "uniform":
        raise ValueError(f"no target for spectrum {spectrum.name!r}; expected 'es' or 'uniform'")
    return -dist.mean


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
    alpha: float,
    n_list: Sequence[int],
    reps: int,
    seed: int,
) -> list[ConsistencyRow]:
    """Median |estimate - target| per sample size, over independent replications.

    Size n scores the named discretization of spectrum (ValueError when
    unknown) on samples from the stream "consistency|{spectrum.name}-
    {discretization}|n={n}". Each spectrum is scored against its own
    target: true_risk(dist, alpha).es_alpha for 'es', and -E[X] for
    'uniform', which ignores alpha.

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
    reference = _target(dist, spectrum, alpha)
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
