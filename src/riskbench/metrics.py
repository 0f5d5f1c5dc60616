"""Replication metrics for estimator benchmarking.

One cell = (distribution, scheme, estimator, level). K replications each
draw an estimation sample and one fresh companion outcome of the target
variable; the five metrics compare the estimates against the true risk and
probe the secured position x~ + estimate:

    ae  mean absolute error / true
    se  root mean squared error / true
    sb  mean estimate / true - 1
    rb  -ES1_level(secured) / true
    ct  smallest m/K whose m worst secured outcomes sum to >= 0 (1.0 if none)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import score_sorted_rows
from .distributions import TrueRisk
from .estimators import LEstimatorSpec, tail_levels
from .sampling import RandomnessContract, Scheme

# replications drawn, finished, sorted and scored together: the study's bits
# were recorded with 4096-row chunks, and 128-row tiles give every row the
# same draws and the same per-row matvec bits (checked against the golden
# hashes), while the tile arrays stay small (NIG overlapping:10 at n = 250:
# three 128 x 259 raw arrays and a 128 x 250 row buffer, about 1 MB)
_BLOCK = 128

# var-style estimators are benchmarked against true VaR instead of true ES
_VAR_IDS = ("var", "var1")


@dataclass(frozen=True)
class MetricReport:
    """The five metrics of one cell plus MC standard errors where defined."""

    ae: float
    se: float
    sb: float
    rb: float
    ct: float
    ae_stderr: float
    se_stderr: float
    sb_stderr: float

    def __post_init__(self):
        if self.ae < 0.0:
            raise ValueError("mean absolute error cannot be negative")
        if self.se < abs(self.sb) - 1e-12 * (1.0 + abs(self.sb)):
            raise ValueError("rms error cannot be below the absolute bias")
        if not (0.0 < self.ct <= 1.0):
            raise ValueError(f"crossing point must lie in (0, 1], got {self.ct}")

    def metric(self, name: str) -> float:
        return {"ae": self.ae, "se": self.se, "sb": self.sb, "rb": self.rb, "ct": self.ct}[name]

    def stderr(self, name: str) -> Optional[float]:
        return {"ae": self.ae_stderr, "se": self.se_stderr, "sb": self.sb_stderr}.get(name)


def _evaluate_replications(
    distribution,
    scheme: Scheme,
    estimators: Sequence[LEstimatorSpec],
    replications: range,
    contract: RandomnessContract,
) -> tuple[np.ndarray, np.ndarray]:
    """The given replications of one (distribution, scheme) group.

    Returns (estimates matrix of shape (len(replications), len(estimators)),
    companions of shape (len(replications),)). Per-replication streams are
    keyed by the cell identity and the replication index only, so every
    estimator scores the same draw and the draws are independent of the tile
    size. The range starts on a tile boundary, so its tiles are those of the
    whole group and a slice's rows are that run's rows bit for bit.
    """
    if replications.step != 1 or replications.start % _BLOCK:
        raise ValueError(
            f"replications must be a unit-step range starting on a multiple of {_BLOCK}, "
            f"got {replications}"
        )
    cell_tag = f"{distribution.label}|{scheme.label}"
    # one generator per tag, keyed per replication to stream(tag, k)'s draws
    sample_at = contract.keyed(f"sample|{cell_tag}")
    companion_at = contract.keyed(f"companion|{cell_tag}")

    K = len(replications)
    estimates = np.empty((K, len(estimators)))
    companions = np.empty(K)
    rows = np.empty((min(_BLOCK, K), scheme.n))
    # per replication only the generator calls run, into row j of the raw
    # arrays: n + h - 1 base draws and h companion draws (one fresh draw of
    # the h-day target, which tests the secured position)
    raw, companion_raw = (
        tuple(np.empty((len(rows), width)) for _ in range(distribution.RAW_ARRAYS))
        for width in (scheme.n + scheme.h - 1, scheme.h)
    )
    for b0 in range(0, K, _BLOCK):
        b1 = min(b0 + _BLOCK, K)
        for j, k in enumerate(replications[b0:b1]):
            distribution.draw(sample_at(k), raw, j)
            distribution.draw(companion_at(k), companion_raw, j)
        # transforms and sums run once per tile, elementwise or row-wise, so
        # each row has the bits of a one-replication draw; the transforms work
        # in place, so the raw rows are drawn again before the next tile
        tile = rows[: b1 - b0]
        scheme.window_sums(distribution.transform([a[: len(tile)] for a in raw]), tile)
        outcomes = distribution.transform([a[: len(tile)] for a in companion_raw])
        np.sum(outcomes, axis=1, out=companions[b0:b1])
        tile.sort(axis=1)
        # one matvec per estimator: a single gemm over all estimators moves
        # the last bits of some rows, and the bits of a column must not depend
        # on which other estimators share the group
        for i, spec in enumerate(estimators):
            estimates[b0:b1, i] = score_sorted_rows(spec.weights, tile)
    return estimates, companions


def _check_reference(reference: float) -> None:
    if not (reference > 0.0 and math.isfinite(reference)):
        raise ValueError(f"true risk must be a positive finite number, got {reference!r}")


def _metrics_from(
    estimates: np.ndarray, companions: np.ndarray, alpha: float, reference: float
) -> MetricReport:
    _check_reference(reference)
    K = estimates.size
    err = estimates - reference
    abs_err = np.abs(err)
    sq_err = err * err

    ae = float(np.mean(abs_err)) / reference
    m2 = float(np.mean(sq_err))
    se = math.sqrt(m2) / reference
    sb = float(np.mean(estimates)) / reference - 1.0

    ae_stderr = float(np.std(abs_err, ddof=1)) / math.sqrt(K) / reference
    sb_stderr = float(np.std(estimates, ddof=1)) / math.sqrt(K) / reference
    if m2 > 0.0:
        se_stderr = float(np.std(sq_err, ddof=1)) / math.sqrt(K) / (2.0 * math.sqrt(m2)) / reference
    else:
        se_stderr = 0.0

    secured = companions + estimates
    # partitioned in place: secured is this call's own array
    ((_, es1, _),) = tail_levels([alpha], secured)
    rb = -es1 / reference

    prefix = np.cumsum(np.sort(secured))
    hits = np.nonzero(prefix >= 0.0)[0]
    if hits.size:
        ct = float(hits[0] + 1) / K
    else:
        ct = 1.0

    return MetricReport(
        ae=ae,
        se=se,
        sb=sb,
        rb=rb,
        ct=ct,
        ae_stderr=ae_stderr,
        se_stderr=se_stderr,
        sb_stderr=sb_stderr,
    )


def reference_value(estimator: LEstimatorSpec, true: TrueRisk) -> float:
    """VaR-family estimators are measured against true VaR, the rest against
    ES. A reference that is not positive and finite fails where it is read,
    not only once replications are scored against it."""
    reference = true.var_alpha if estimator.name in _VAR_IDS else true.es_alpha
    _check_reference(reference)
    return reference

