"""Consistency diagnostics for spectral weight approximations.

A weight builder n -> a_{.,n} induces the step density phi_n(t) = n * a_{i,n}
on ((i-1)/n, i/n]. Consistency of the estimators -<a, s(x)> toward the
spectral risk value needs the partial integrals of phi_n to track those of
phi; that is checked here, alongside an empirical error ladder over growing
sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import WeightVector, apply_l_estimator
from .distributions import true_risk
from .estimators import SpectrumSpec, build_spectral_weights, build_spectral_weights_alt
from .sampling import RandomnessContract
from .distributions import sample as draw_dist

__all__ = [
    "SpectrumApproximation",
    "integral_approximation",
    "alternative_approximation",
    "check_partial_integrals",
    "ConsistencyRow",
    "empirical_consistency",
]


@dataclass(frozen=True, eq=False)
class SpectrumApproximation:
    """A spectrum together with a rule producing its size-n weight vectors."""

    spectrum: SpectrumSpec
    builder: Callable[[int], WeightVector]
    name: str


def integral_approximation(spectrum: SpectrumSpec) -> SpectrumApproximation:
    """Cell-integral discretization: a_i = integral of phi over ((i-1)/n, i/n]."""
    return SpectrumApproximation(
        spectrum=spectrum,
        builder=lambda n: build_spectral_weights(spectrum, n),
        name=f"{spectrum.name}-integral",
    )


def alternative_approximation(spectrum: SpectrumSpec) -> SpectrumApproximation:
    """Right-endpoint discretization: a_i proportional to phi(i/n)."""
    return SpectrumApproximation(
        spectrum=spectrum,
        builder=lambda n: build_spectral_weights_alt(spectrum, n),
        name=f"{spectrum.name}-alternative",
    )


def check_partial_integrals(
    approx: SpectrumApproximation,
    t_grid: Sequence[float],
    n_list: Sequence[int],
) -> dict[int, float]:
    """Max over the t grid of |int_0^t phi_n - int_0^t phi| for each size.

    The step integral is evaluated in closed form (full cells plus the
    fractional cell containing t); the spectrum side goes through its
    cumulative, so the only approximation measured is the discretization.
    """
    grid = [float(t) for t in t_grid]
    for t in grid:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"grid points must lie in [0, 1], got {t}")
    out: dict[int, float] = {}
    for n_raw in n_list:
        n = int(n_raw)
        w = approx.builder(n).weights
        cum = np.concatenate([[0.0], np.cumsum(w)])
        worst = 0.0
        for t in grid:
            j = min(int(math.floor(t * n)), n - 1)
            step = float(cum[j]) + n * float(w[j]) * (t - j / n)
            worst = max(worst, abs(step - approx.spectrum.cumulative(t)))
        out[n] = worst
    return out


@dataclass(frozen=True)
class ConsistencyRow:
    n: int
    median_abs_error: float
    iqr: float


def empirical_consistency(
    dist,
    approx: SpectrumApproximation,
    alpha: float,
    n_list: Sequence[int],
    reps: int,
    seed: int,
) -> list[ConsistencyRow]:
    """Median |estimate - true ES| per sample size, over independent replications.

    The approximation is assumed to target expected shortfall at the given
    level, so the reference is true_risk(dist, alpha).es_alpha.
    """
    if not n_list:
        raise ValueError("need at least one sample size")
    if reps < 2:
        raise ValueError("need at least two replications per size")
    reference = true_risk(dist, alpha).es_alpha
    contract = RandomnessContract(seed)
    rows = []
    for n_raw in n_list:
        n = int(n_raw)
        w = approx.builder(n)
        errors = np.empty(reps)
        tag = f"consistency|{approx.name}|n={n}"
        rng = contract.stream(tag, 0)
        for rep in range(reps):
            x = draw_dist(dist, n, contract.rekey(rng, tag, rep))
            errors[rep] = abs(apply_l_estimator(w, x) - reference)
        q25, q50, q75 = np.percentile(errors, [25.0, 50.0, 75.0])
        rows.append(ConsistencyRow(n=n, median_abs_error=float(q50), iqr=float(q75 - q25)))
    return rows
