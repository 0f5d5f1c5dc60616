"""Black-box coherence testing and robust-representation extraction.

An estimator here is any callable from length-n float arrays to floats.
Each axiom check runs a fixed adversarial deck first (unit spikes, constant
shifts, paired tail spikes) and then randomized probes, and returns either
PASS with the trial count or FAIL with a replayable witness. Probes are
scored in row blocks: through the estimator's `.rows(block)` when it has
one (weight estimators do: one sort and one matrix-vector product per
block), otherwise one call per row.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import WEIGHT_SUM_ATOL, WeightVector, apply_l_estimator

__all__ = [
    "AXIOMS",
    "Witness",
    "AxiomCheck",
    "CoherenceReport",
    "NotComonotonicError",
    "check_axiom",
    "check_all",
    "check_cash_additivity_slope",
    "extract_comonotonic_weights",
    "verify_representation",
    "VerificationResult",
    "VIOLATION_RTOL",
]

Estimator = Callable[[np.ndarray], float]

AXIOMS = (
    "monotonicity",
    "cash_additivity",
    "positive_homogeneity",
    "subadditivity",
    "law_invariance",
    "comonotonic_additivity",
)

# A defect counts as a violation when it exceeds 1e-9 * (1 + scale), where
# scale is the largest magnitude among the probe inputs involved.
VIOLATION_RTOL = 1e-9


class NotComonotonicError(ValueError):
    """The probed estimator is not a comonotonic law-invariant CRE."""


@dataclass(frozen=True, eq=False)
class Witness:
    """A concrete violation: the inputs fed to the estimator and both side values.

    `lhs - rhs` is the defect; a witness is only stored when the defect
    exceeds tolerance, and `replay` recomputes it from scratch so a report
    can always be double-checked against the live estimator.
    """

    axiom: str
    inputs: tuple[np.ndarray, ...]
    aux: Optional[float]
    lhs: float
    rhs: float
    description: str

    @property
    def defect(self) -> float:
        return self.lhs - self.rhs

    def replay(self, estimator: Estimator) -> float:
        """Re-evaluate the defect for this witness against an estimator."""
        x = self.inputs[0]
        if self.axiom == "monotonicity":
            y = self.inputs[1]
            return estimator(x) - estimator(y)
        if self.axiom == "cash_additivity":
            m = self.aux
            return abs(estimator(x + m) - (estimator(x) - m))
        if self.axiom == "positive_homogeneity":
            lam = self.aux
            return abs(estimator(lam * x) - lam * estimator(x))
        if self.axiom == "subadditivity":
            y = self.inputs[1]
            return estimator(x + y) - (estimator(x) + estimator(y))
        if self.axiom == "law_invariance":
            y = self.inputs[1]
            return abs(estimator(y) - estimator(x))
        if self.axiom == "comonotonic_additivity":
            y = self.inputs[1]
            return abs(estimator(x + y) - (estimator(x) + estimator(y)))
        raise ValueError(f"unknown axiom {self.axiom!r}")


@dataclass(frozen=True, eq=False)
class AxiomCheck:
    axiom: str
    passed: bool
    trials: int
    witness: Optional[Witness]


@dataclass(frozen=True, eq=False)
class CoherenceReport:
    """Per-axiom results for one estimator."""

    checks: tuple[AxiomCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_axioms(self) -> list[str]:
        return [c.axiom for c in self.checks if not c.passed]

    def to_json(self) -> str:
        out = []
        for c in self.checks:
            entry = {"axiom": c.axiom, "passed": c.passed, "trials": c.trials}
            if c.witness is not None:
                entry["witness"] = {
                    "inputs": [v.tolist() for v in c.witness.inputs],
                    "aux": c.witness.aux,
                    "lhs": c.witness.lhs,
                    "rhs": c.witness.rhs,
                    "defect": c.witness.defect,
                    "description": c.witness.description,
                }
            out.append(entry)
        return json.dumps(out, indent=2)


def _unit(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _deck(n: int) -> list[np.ndarray]:
    """Deterministic probes: constants, unit spikes, and large tail spikes."""
    vecs = [
        np.zeros(n),
        np.ones(n),
        -np.ones(n),
        _unit(n, 0),
        -_unit(n, 0),
        100.0 * _unit(n, 0),
        -100.0 * _unit(n, 0),
        np.linspace(-1.0, 1.0, n),
    ]
    if n >= 2:
        vecs.append(_unit(n, n - 1))
        vecs.append(-100.0 * _unit(n, n - 1))
    return vecs


def _random_probes(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    """Normal rows at random scales in [0.1, 100]; every fifth row heavy-tailed."""
    probes = rng.standard_normal((trials, n))
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=(trials, 1))
    probes *= scales
    heavy = rng.random(trials) < 0.2
    if np.any(heavy):
        probes[heavy] = rng.standard_t(2.0, size=(int(heavy.sum()), n)) * scales[heavy]
    return probes


def _monotone_transform(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """A random non-decreasing map applied entrywise to the base vector."""
    a = rng.uniform(0.0, 3.0)
    b = rng.uniform(0.0, 2.0)
    c = rng.uniform(-1.0, 1.0)
    knot = rng.uniform(-1.0, 1.0)
    return a * base + b * np.maximum(base, knot) + c


# Probes are scored in blocks of at most this many floats, so memory stays
# flat in the trial count (262 rows at n = 250).
_BLOCK_FLOATS = 1 << 16

Rows = Callable[[np.ndarray], np.ndarray]


def _rows(estimator: Estimator) -> Rows:
    """Score an (m, n) block to m values: through the estimator's own
    `.rows` when it has one (LEstimatorSpec.as_callable), else row by row."""
    rows = getattr(estimator, "rows", None)
    if rows is not None:
        return rows
    return lambda block: np.array([estimator(x) for x in block], dtype=float)


def _probe_blocks(total: int, n: int, rows_per_probe: int, lead_rows: int = 0):
    """(start, stop) probe slices whose scored rows, plus lead_rows fixed rows
    in the first slice, fit in _BLOCK_FLOATS floats; at least one probe each."""
    cap = max(1, _BLOCK_FLOATS // n)
    start = 0
    while start < total:
        stop = min(total, start + max(1, (cap - lead_rows) // rows_per_probe))
        yield start, stop
        start, lead_rows = stop, 0


def _max_abs(block: np.ndarray) -> np.ndarray:
    return np.max(np.abs(block), axis=-1)


def _tols(*scales: np.ndarray) -> np.ndarray:
    """The violation tolerance per case, from the largest magnitudes of each
    case's inputs."""
    return VIOLATION_RTOL * (1.0 + functools.reduce(np.maximum, scales))


def _first(violated: np.ndarray) -> Optional[int]:
    """Flat index of the first True, in row-major (probe, case) order."""
    hits = np.flatnonzero(violated)
    return int(hits[0]) if hits.size else None


# Each scan below draws its probe inputs from rng block by block, in one
# fixed order (probe by probe, each probe's draws in turn), scores each
# block in one call, and returns (inputs, aux, lhs, rhs, description) for
# the first violation in (probe, case) order, or None. Blocks after the one
# holding the first violation are neither drawn nor scored.


def _scan_monotonicity(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    # x >= y entrywise must give estimator(x) <= estimator(y); probe 0 is
    # preceded by two fixed pairs
    n = probes.shape[1]
    fixed_hi = np.array([_unit(n, 0), np.ones(n)])
    fixed_lo = np.zeros((2, n))
    for start, stop in _probe_blocks(len(probes), n, 2, lead_rows=4):
        lo = probes[start:stop]
        bump = np.empty_like(lo)
        coin = np.empty_like(lo)
        for i in range(len(lo)):
            bump[i] = rng.standard_normal(n)
            coin[i] = rng.random(n)
        bump = np.abs(bump) * (1.0 + 0.1 * _max_abs(lo))[:, None]
        hi = lo + np.where(coin < 0.5, bump, 0.0)
        if start == 0:
            hi, lo = np.vstack([fixed_hi, hi]), np.vstack([fixed_lo, lo])
        values = score(np.vstack([hi, lo]))
        lhs, rhs = values[: len(hi)], values[len(hi) :]
        j = _first(lhs - rhs > _tols(_max_abs(hi), _max_abs(lo)))
        if j is not None:
            return (hi[j], lo[j]), None, lhs[j], rhs[j], "higher outcomes scored riskier"
    return None


def _scan_cash_additivity(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    n = probes.shape[1]
    for start, stop in _probe_blocks(len(probes), n, 6):
        x = probes[start:stop]
        m = np.empty((len(x), 5))
        m[:, :4] = (1.0, -1.0, 0.5, -0.5)
        m[:, 4] = [rng.uniform(-10.0, 10.0) for _ in range(len(x))]
        base = score(x)
        got = score((x[:, None, :] + m[:, :, None]).reshape(-1, n)).reshape(m.shape)
        want = base[:, None] - m
        j = _first(np.abs(got - want) > _tols(_max_abs(x)[:, None], np.abs(m)))
        if j is not None:
            p, k = divmod(j, 5)
            return (
                (x[p],), float(m[p, k]), got[p, k], want[p, k],
                "cash shift not subtracted one for one",
            )
    return None


def _scan_positive_homogeneity(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    n = probes.shape[1]
    for start, stop in _probe_blocks(len(probes), n, 5):
        x = probes[start:stop]
        lam = np.empty((len(x), 4))
        lam[:, :3] = (0.0, 0.5, 2.0)
        lam[:, 3] = [rng.uniform(0.0, 20.0) for _ in range(len(x))]
        scaled = lam[:, :, None] * x[:, None, :]
        base = score(x)
        got = score(scaled.reshape(-1, n)).reshape(lam.shape)
        want = lam * base[:, None]
        j = _first(np.abs(got - want) > _tols(_max_abs(x)[:, None], _max_abs(scaled)))
        if j is not None:
            p, k = divmod(j, 4)
            return (x[p],), float(lam[p, k]), got[p, k], want[p, k], "not positively homogeneous"
    return None


def _scan_subadditivity(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    # two fixed pairs of tail spikes come first when n >= 2
    n = probes.shape[1]
    if n >= 2:
        fixed_x = np.array([-100.0 * _unit(n, 0), _unit(n, 0)])
        fixed_y = np.array([-100.0 * _unit(n, 1), _unit(n, 1)])
    else:
        fixed_x = fixed_y = np.empty((0, n))
    for start, stop in _probe_blocks(len(probes), n, 6, lead_rows=3 * len(fixed_x)):
        block = probes[start:stop]
        y = np.empty((2 * len(block), n))
        for i, row in enumerate(block):
            y[2 * i] = rng.standard_normal(n) * (1.0 + 0.5 * float(np.std(row)))
            y[2 * i + 1] = 0.5 * row + 0.5 * rng.standard_normal(n)
        x = np.repeat(block, 2, axis=0)
        if start == 0:
            x, y = np.vstack([fixed_x, x]), np.vstack([fixed_y, y])
        c = len(x)
        values = score(np.vstack([x, y, x + y]))
        lhs = values[2 * c :]
        rhs = values[:c] + values[c : 2 * c]
        j = _first(lhs - rhs > _tols(_max_abs(x), _max_abs(y)))
        if j is not None:
            return (x[j], y[j]), None, lhs[j], rhs[j], "merging positions raised total risk"
    return None


def _scan_law_invariance(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    n = probes.shape[1]
    for start, stop in _probe_blocks(len(probes), n, 3):
        x = probes[start:stop]
        y = np.empty((2 * len(x), n))
        for i, row in enumerate(x):
            y[2 * i] = row[rng.permutation(n)]
            y[2 * i + 1] = row[::-1]
        values = score(np.vstack([x, y]))
        lhs = values[len(x) :]
        rhs = np.repeat(values[: len(x)], 2)
        j = _first(np.abs(lhs - rhs) > np.repeat(_tols(_max_abs(x)), 2))
        if j is not None:
            return (
                (x[j // 2], y[j]), None, lhs[j], rhs[j],
                "reordering the sample changed the value",
            )
    return None


def _scan_comonotonic_additivity(score: Rows, probes: np.ndarray, rng: np.random.Generator):
    n = probes.shape[1]
    for start, stop in _probe_blocks(len(probes), n, 3):
        x = probes[start:stop]
        u = np.empty_like(x)
        v = np.empty_like(x)
        for i, row in enumerate(x):
            u[i] = _monotone_transform(rng, row)
            v[i] = _monotone_transform(rng, row)
        values = score(np.vstack([u, v, u + v]))
        c = len(x)
        lhs = values[2 * c :]
        rhs = values[:c] + values[c : 2 * c]
        j = _first(np.abs(lhs - rhs) > _tols(_max_abs(u), _max_abs(v)))
        if j is not None:
            return (u[j], v[j]), None, lhs[j], rhs[j], "not additive on comonotone pairs"
    return None


_SCANS = {
    "monotonicity": _scan_monotonicity,
    "cash_additivity": _scan_cash_additivity,
    "positive_homogeneity": _scan_positive_homogeneity,
    "subadditivity": _scan_subadditivity,
    "law_invariance": _scan_law_invariance,
    "comonotonic_additivity": _scan_comonotonic_additivity,
}


def check_axiom(
    estimator: Estimator,
    axiom: str,
    n: int,
    trials: int = 1000,
    seed: int = 0,
) -> AxiomCheck:
    """Probe one axiom with the adversarial deck plus randomized inputs.

    Args:
        estimator: callable from length-n arrays to floats; must be pure.
            One that carries `.rows` is scored a block of probes at a time.
        axiom: one of AXIOMS.
        n: probe dimension, n >= 1.
        trials: number of randomized probes after the deck.
        seed: probe stream seed; identical seeds replay identical probes.

    Returns:
        AxiomCheck; on FAIL the witness replays to a violation above
        tolerance by construction.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    if n < 1:
        raise ValueError("probe dimension must be at least 1")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    rng = np.random.default_rng(seed)
    probes = np.vstack([_deck(n), _random_probes(rng, trials, n)]) if trials else np.array(_deck(n))
    total = probes.shape[0]

    found = _SCANS[axiom](_rows(estimator), probes, rng)
    if found is None:
        return AxiomCheck(axiom=axiom, passed=True, trials=total, witness=None)
    inputs, aux, lhs, rhs, description = found
    witness = Witness(
        axiom=axiom,
        inputs=tuple(np.array(v) for v in inputs),
        aux=aux,
        lhs=float(lhs),
        rhs=float(rhs),
        description=description,
    )
    return AxiomCheck(axiom=axiom, passed=False, trials=total, witness=witness)


def check_all(
    estimator: Estimator, n: int, trials: int = 1000, seed: int = 0
) -> CoherenceReport:
    """Run every axiom check; axiom order is fixed, seeds are derived per axiom."""
    checks = tuple(
        check_axiom(estimator, axiom, n, trials=trials, seed=seed + idx)
        for idx, axiom in enumerate(AXIOMS)
    )
    return CoherenceReport(checks=checks)


def check_cash_additivity_slope(estimator: Estimator, n: int) -> float:
    """Measure s in estimator(x + m*1) = estimator(x) - s*m over a shift grid.

    For weighted order-statistic estimators s is the weight sum, so a
    measured slope away from 1 quantifies the cash-additivity defect.

    Raises:
        ValueError: the response to cash shifts is not affine within
            VIOLATION_RTOL * (1 + scale) across the grid and two base points.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    grid = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    bases = np.array([np.zeros(n), np.linspace(-1.0, 1.0, n)])
    score = _rows(estimator)
    v0 = score(bases)
    shifted = score((bases[:, None, :] + grid[:, None]).reshape(-1, n)).reshape(2, grid.size)
    slopes = (v0[:, None] - shifted) / grid
    spread = float(np.max(slopes) - np.min(slopes))
    if spread > VIOLATION_RTOL * (1.0 + float(np.max(np.abs(grid)))):
        raise ValueError(
            f"cash response is not affine: slope spread {spread!r} over the shift grid"
        )
    # Zeros base with unit shift gives the cleanest float read of the slope.
    ends = score(np.array([np.zeros(n), np.ones(n)]))
    return float(ends[0] - ends[1])


@dataclass(frozen=True, eq=False)
class VerificationResult:
    passed: bool
    trials: int
    witness: Optional[Witness]


def verify_representation(
    estimator: Estimator,
    weights: WeightVector,
    trials: int = 200,
) -> VerificationResult:
    """Check estimator(x) == -<weights, sort(x)> on deck plus random probes
    drawn from seed 0."""
    n = weights.n
    rng = np.random.default_rng(0)
    probes = np.vstack([_deck(n), _random_probes(rng, trials, n)])
    score = _rows(estimator)
    for start, stop in _probe_blocks(len(probes), n, 1):
        x = probes[start:stop]
        got = score(x)
        want = np.array([apply_l_estimator(weights, row) for row in x])
        j = _first(np.abs(got - want) > _tols(_max_abs(x)))
        if j is not None:
            witness = Witness(
                axiom="law_invariance",
                inputs=(np.array(x[j]), np.array(x[j])),
                aux=None,
                lhs=float(got[j]),
                rhs=float(want[j]),
                description="estimator deviates from its candidate weight representation",
            )
            return VerificationResult(passed=False, trials=probes.shape[0], witness=witness)
    return VerificationResult(passed=True, trials=probes.shape[0], witness=None)


def extract_comonotonic_weights(estimator: Estimator, n: int) -> WeightVector:
    """Recover the unique weight vector of a comonotonic law-invariant CRE.

    Probes the ladder v_k = (-1 repeated k times, then zeros), already
    sorted, and reads off a_k = estimator(v_k) - estimator(v_{k-1}). For a
    weighted order-statistic estimator this telescopes back to its weights
    exactly (up to float), which is the round-trip the tests pin down.

    The increments must be non-negative, non-increasing, and sum to 1
    within VIOLATION_RTOL. The recovered weights are then probed against
    the estimator (verify_representation, 64 random probes after the deck),
    so estimators that merely look order-statistic on the ladder
    (sample-dependent weights, suprema over several vectors) are rejected
    rather than silently misrepresented.

    Raises:
        NotComonotonicError: any of the checks above fails.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    ladder = np.tril(np.full((n + 1, n), -1.0), k=-1)
    score = _rows(estimator)
    values = np.concatenate([score(ladder[a:b]) for a, b in _probe_blocks(n + 1, n, 1)])
    a = np.diff(values)

    if float(np.min(a)) < -VIOLATION_RTOL:
        raise NotComonotonicError(
            f"extracted weight {float(np.min(a))!r} is negative beyond tolerance"
        )
    rises = np.diff(a)
    if rises.size and float(np.max(rises)) > VIOLATION_RTOL:
        raise NotComonotonicError(
            f"extracted weights increase by {float(np.max(rises))!r}; not non-increasing"
        )
    total = float(np.sum(a)) if a.size else 0.0
    if abs(total - 1.0) > VIOLATION_RTOL:
        raise NotComonotonicError(f"extracted weights sum to {total!r}, expected 1")

    # Scrub float dust only where the hard checks would otherwise trip the
    # stricter WeightVector gates; exact extractions pass through untouched.
    if float(np.min(a)) < 0.0:
        a = np.maximum(a, 0.0)
    if rises.size and float(np.max(np.diff(a))) > 0.0:
        a = np.minimum.accumulate(a)
    if abs(float(np.sum(a)) - 1.0) > WEIGHT_SUM_ATOL:
        a = a / np.sum(a)
    weights = WeightVector(a, monotone_flag=True)

    res = verify_representation(estimator, weights, trials=64)
    if not res.passed:
        raise NotComonotonicError(
            "probe-ladder weights do not reproduce the estimator: defect "
            f"{res.witness.defect!r} at a verification probe"
        )
    return weights
