"""Simplex weight vectors and weighted order-statistic functionals.

Estimators here are maps x -> -<w, sort(x)> for a weight vector w, or finite
suprema of such maps. Profit is positive in the sample, risk is positive in
the output, so a weight vector summing to one turns a pure cash position
x = m * (1,...,1) into risk -m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

WEIGHT_SUM_ATOL = 1e-12
# Slack for non-increase checks: absorbs last-ulp noise from float partial
# sums without letting a genuinely increasing pair through.
MONOTONE_ATOL = 1e-12


def _as_vector(values, name: str) -> np.ndarray:
    """Copy into a read-only 1-d float array, rejecting empties and non-finite entries."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


def simplex_defect(weights: np.ndarray, monotone: bool) -> Optional[str]:
    """The first simplex gate the weights fail, as a message, or None: entries
    non-negative, sum within WEIGHT_SUM_ATOL of one and, when monotone is
    set, non-increasing within MONOTONE_ATOL. With monotone set, passing
    every gate is the comonotonic-CRE criterion."""
    if np.any(weights < 0.0):
        return "weights must be non-negative"
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_ATOL:
        return f"weights must sum to 1 within {WEIGHT_SUM_ATOL}: got {total!r}"
    if monotone and np.any(np.diff(weights) > MONOTONE_ATOL):
        return "monotone_flag set but weights are not non-increasing"
    return None


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A point of the probability simplex: w_i >= 0, sum w_i = 1 (within 1e-12).

    Args:
        weights: the entries, validated at construction.
        monotone_flag: set when the entries are non-increasing; verified.

    Raises:
        ValueError: negative or non-finite entries, sum off the simplex, or
            a monotone_flag that the entries do not support.
    """

    weights: np.ndarray
    monotone_flag: bool = False

    def __post_init__(self):
        arr = _as_vector(self.weights, "weights")
        defect = simplex_defect(arr, self.monotone_flag)
        if defect is not None:
            raise ValueError(defect)
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class SupremumCre:
    """A finite family of non-increasing simplex weight vectors, applied as a sup.

    Every candidate must carry monotone_flag and share one length.
    """

    candidates: tuple[WeightVector, ...]

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise ValueError("candidate set must be non-empty")
        for w in cands:
            if not isinstance(w, WeightVector):
                raise ValueError("candidates must be WeightVector instances")
            if not w.monotone_flag:
                raise ValueError("every candidate must be non-increasing (monotone_flag)")
        lengths = {w.n for w in cands}
        if len(lengths) != 1:
            raise ValueError(f"candidates must share one length, got {sorted(lengths)}")
        object.__setattr__(self, "candidates", cands)

    @property
    def n(self) -> int:
        return self.candidates[0].n

    def rows(self, block: np.ndarray) -> np.ndarray:
        """max over candidates of -<a, s(x)> for every row x of an (m, n)
        block: one row-wise sort, score_sorted_rows per candidate, then the
        row-wise max. One sample's value is m.rows(x[None])[0]."""
        values = np.sort(block, axis=1)
        return np.max([score_sorted_rows(w.weights, values) for w in self.candidates], axis=0)


def score_sorted_rows(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Evaluate -<weights, row> for every row of an (m, n) block sorted along axis 1.

    The one product of weights and sorted values: one matrix-vector product.
    The weights must already be validated (WeightVector.weights,
    LEstimatorSpec.weights); nothing is checked here. A row's last bits can
    depend on the block it sits in. Only the values up to the last non-zero
    weight need be sorted: those past it may be in any order, as long as
    they are finite and not below the sorted ones, because their exact zero
    weights leave the product's bits as after a full sort.
    """
    return -(rows @ weights)
