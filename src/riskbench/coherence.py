"""Black-box coherence testing and robust-representation extraction.

An estimator here is a block function: it maps an (m, n) float array, one
sample per row, to the m values of its rows (`LEstimatorSpec.rows`,
`SupremumCre.rows`, `gaussian_plugin_rows` and `expectile_rows` bound to a
level). Each axiom check runs a fixed adversarial deck first (unit spikes,
constant shifts, paired tail spikes) and then randomized probes, scored in
row blocks, and returns either PASS with the trial count or FAIL with a
replayable witness.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import WEIGHT_SUM_ATOL, WeightVector, score_sorted_rows

Estimator = Callable[[np.ndarray], np.ndarray]  # an (m, n) block to its m values

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
        """Re-evaluate the defect for this witness against an estimator:
        signed for monotonicity and subadditivity, absolute for the rest."""
        spec = _AXIOMS[self.axiom]
        b = np.array([[self.aux]]) if spec.aux else self.inputs[1][None]
        lhs, rhs = spec.sides(_rows(estimator), self.inputs[0][None], b)
        defect = (lhs - rhs).item()
        return defect if spec.one_sided else abs(defect)


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


# Probes are scored in blocks of at most this many floats (262 rows at n = 250)
# but drawn up front, one trials x n array: drawing them block by block would
# move the probe stream and every witness found on it.
_BLOCK_FLOATS = 1 << 16


def _rows(estimator: Estimator) -> Estimator:
    """The estimator, checked to map each (m, n) block to its m values: it
    comes from outside the program, so a per-sample function fails here."""

    def score(block: np.ndarray) -> np.ndarray:
        expected = f"estimator must map a block of shape {block.shape} to shape ({len(block)},)"
        try:
            values = np.asarray(estimator(block), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{expected}; it raised: {exc}") from exc
        if values.shape != (len(block),):
            raise ValueError(f"{expected}, got shape {values.shape}")
        return values

    return score


def _probe_blocks(probes: np.ndarray, rows_per_probe: int):
    """Slices of probes, at least one probe each, whose scored rows fit in
    _BLOCK_FLOATS floats."""
    step = max(1, _BLOCK_FLOATS // probes.shape[1] // rows_per_probe)
    for start in range(0, len(probes), step):
        yield probes[start : start + step]


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


# A relation scores the row blocks (a, b) of one block of cases and returns
# its two sides (lhs, rhs), one value per case; the defect is lhs - rhs. b
# holds rows, or for cash shifts and scalings one aux value per case. The
# scan and Witness.replay (on one-row blocks) share these five functions.


def _dominance(score: Estimator, hi: np.ndarray, lo: np.ndarray):
    # hi >= lo entrywise must give estimator(hi) <= estimator(lo)
    values = score(np.vstack([hi, lo]))
    return values[: len(hi)], values[len(hi) :]


def _shift(score: Estimator, x: np.ndarray, m: np.ndarray):
    base = score(x)
    got = score((x[:, None, :] + m[:, :, None]).reshape(-1, x.shape[1]))
    return got.reshape(m.shape), base[:, None] - m


def _scale(score: Estimator, x: np.ndarray, lam: np.ndarray):
    base = score(x)
    got = score((lam[:, :, None] * x[:, None, :]).reshape(-1, x.shape[1]))
    return got.reshape(lam.shape), lam * base[:, None]


def _merge(score: Estimator, x: np.ndarray, y: np.ndarray):
    c = len(x)
    values = score(np.vstack([x, y, x + y]))
    return values[2 * c :], values[:c] + values[c : 2 * c]


def _reorder(score: Estimator, x: np.ndarray, y: np.ndarray):
    # each row of x is followed in y by len(y) // len(x) reorderings of it
    values = score(np.vstack([x, y]))
    return values[len(x) :], np.repeat(values[: len(x)], len(y) // len(x))


# Each case generator below draws its inputs from rng block by block, in one
# fixed order (probe by probe, each probe's draws in turn), and yields
# (a, b, tol) per block, one tolerance per case. The scan stops pulling at
# the first violation, so later blocks are neither drawn nor scored.


def _monotonicity_cases(probes: np.ndarray, rng: np.random.Generator):
    # two fixed pairs, a unit spike and the ones over zeros, in a block of
    # their own; then each probe lo against lo plus a random non-negative bump
    n = probes.shape[1]
    hi, lo = np.array([_unit(n, 0), np.ones(n)]), np.zeros((2, n))
    yield hi, lo, _tols(_max_abs(hi), _max_abs(lo))
    for lo in _probe_blocks(probes, 2):
        # the stream interleaves each row's normal and coin draws, so these
        # stay per row
        bump = np.empty_like(lo)
        coin = np.empty_like(lo)
        for i in range(len(lo)):
            bump[i] = rng.standard_normal(n)
            coin[i] = rng.random(n)
        bump = np.abs(bump) * (1.0 + 0.1 * _max_abs(lo))[:, None]
        hi = lo + np.where(coin < 0.5, bump, 0.0)
        yield hi, lo, _tols(_max_abs(hi), _max_abs(lo))


def _cash_cases(probes: np.ndarray, rng: np.random.Generator):
    for x in _probe_blocks(probes, 6):
        m = np.tile((1.0, -1.0, 0.5, -0.5, 0.0), (len(x), 1))
        m[:, 4] = rng.uniform(-10.0, 10.0, len(x))
        yield x, m, _tols(_max_abs(x)[:, None], np.abs(m))


def _homogeneity_cases(probes: np.ndarray, rng: np.random.Generator):
    for x in _probe_blocks(probes, 5):
        lam = np.tile((0.0, 0.5, 2.0, 0.0), (len(x), 1))
        lam[:, 3] = rng.uniform(0.0, 20.0, len(x))
        # lam >= 0, so lam times a row's largest magnitude is the scaled row's
        scale = _max_abs(x)[:, None]
        yield x, lam, _tols(scale, lam * scale)


def _subadditivity_cases(probes: np.ndarray, rng: np.random.Generator):
    # when n >= 2, two fixed pairs of tail spikes in a block of their own;
    # then each probe with an independent partner and a correlated one
    n = probes.shape[1]
    if n >= 2:
        x = np.array([-100.0 * _unit(n, 0), _unit(n, 0)])
        y = np.array([-100.0 * _unit(n, 1), _unit(n, 1)])
        yield x, y, _tols(_max_abs(x), _max_abs(y))
    for block in _probe_blocks(probes, 6):
        y = rng.standard_normal((2 * len(block), n))
        y[0::2] *= (1.0 + 0.5 * np.std(block, axis=1))[:, None]
        y[1::2] = 0.5 * block + 0.5 * y[1::2]
        x = np.repeat(block, 2, axis=0)
        yield x, y, _tols(_max_abs(x), _max_abs(y))


def _law_invariance_cases(probes: np.ndarray, rng: np.random.Generator):
    # each probe against a random permutation of it, then its reversal
    for x in _probe_blocks(probes, 3):
        y = np.repeat(x[:, ::-1], 2, axis=0)
        y[0::2] = rng.permuted(x, axis=1)
        yield x, y, np.repeat(_tols(_max_abs(x)), 2)


def _comonotone_cases(probes: np.ndarray, rng: np.random.Generator):
    # two random non-decreasing maps a*x + b*max(x, knot) + c of each probe
    for x in _probe_blocks(probes, 3):
        draws = rng.uniform((0.0, 0.0, -1.0, -1.0), (3.0, 2.0, 1.0, 1.0), (len(x), 2, 4))
        a, b, c, knot = np.moveaxis(draws, -1, 0)[..., None]
        x = x[:, None, :]
        u, v = (a * x + b * np.maximum(x, knot) + c).transpose(1, 0, 2)
        yield u, v, _tols(_max_abs(u), _max_abs(v))


class _Axiom(NamedTuple):
    sides: Callable  # (score, a, b) -> (lhs, rhs)
    one_sided: bool  # only lhs - rhs > tol violates, else |lhs - rhs| > tol
    aux: bool  # b holds one aux value per case rather than rows
    cases: Callable  # (probes, rng) -> (a, b, tol) per block
    description: str


_AXIOMS = {
    "monotonicity": _Axiom(
        _dominance, True, False, _monotonicity_cases, "higher outcomes scored riskier"
    ),
    "cash_additivity": _Axiom(
        _shift, False, True, _cash_cases, "cash shift not subtracted one for one"
    ),
    "positive_homogeneity": _Axiom(
        _scale, False, True, _homogeneity_cases, "not positively homogeneous"
    ),
    "subadditivity": _Axiom(
        _merge, True, False, _subadditivity_cases, "merging positions raised total risk"
    ),
    "law_invariance": _Axiom(
        _reorder, False, False, _law_invariance_cases, "reordering the sample changed the value"
    ),
    "comonotonic_additivity": _Axiom(
        _merge, False, False, _comonotone_cases, "not additive on comonotone pairs"
    ),
}
AXIOMS = tuple(_AXIOMS)


def _scan(axiom: str, score: Estimator, probes: np.ndarray, rng: np.random.Generator):
    """The first violation of one axiom in (probe, case) order, or None."""
    spec = _AXIOMS[axiom]
    for a, b, tol in spec.cases(probes, rng):
        lhs, rhs = spec.sides(score, a, b)
        defect = lhs - rhs
        j = _first((defect if spec.one_sided else np.abs(defect)) > tol)
        if j is not None:
            row = np.array(a[j // (lhs.size // len(a))])  # cases per row of a
            return Witness(
                axiom=axiom,
                inputs=(row,) if spec.aux else (row, np.array(b[j])),
                aux=float(b.flat[j]) if spec.aux else None,
                lhs=float(lhs.flat[j]),
                rhs=float(rhs.flat[j]),
                description=spec.description,
            )
    return None


def check_axiom(
    estimator: Estimator,
    axiom: str,
    n: int,
    trials: int = 1000,
    seed: int = 0,
) -> AxiomCheck:
    """Probe one axiom with the adversarial deck plus randomized inputs.

    Args:
        estimator: block function from (m, n) arrays to their m values;
            must be pure.
        axiom: one of AXIOMS.
        n: probe dimension, n >= 1.
        trials: number of randomized probes after the deck, drawn up front
            into one (deck + trials) x n array and scored in blocks.
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
    probes = np.vstack([_deck(n), _random_probes(rng, trials, n)])
    witness = _scan(axiom, _rows(estimator), probes, rng)
    return AxiomCheck(axiom=axiom, passed=witness is None, trials=len(probes), witness=witness)


def check_all(
    estimator: Estimator, n: int, trials: int = 1000, seed: int = 0
) -> CoherenceReport:
    """Run every axiom check; axiom order is fixed, seeds are derived per axiom."""
    checks = tuple(
        check_axiom(estimator, axiom, n, trials=trials, seed=seed + idx)
        for idx, axiom in enumerate(AXIOMS)
    )
    return CoherenceReport(checks=checks)


@dataclass(frozen=True, eq=False)
class VerificationResult:
    """The verdict over `trials` probes; on a mismatch, the first offending
    sample with the estimator's value there and -<weights, sort(sample)>."""

    passed: bool
    trials: int
    sample: Optional[np.ndarray] = None
    estimate: Optional[float] = None
    represented: Optional[float] = None

    @property
    def defect(self) -> float:
        return self.estimate - self.represented


def verify_representation(
    estimator: Estimator,
    weights: WeightVector,
    trials: int = 200,
) -> VerificationResult:
    """Check that the estimator scores every probe x as -<weights, sort(x)>,
    on the deck plus random probes drawn from seed 0."""
    n = weights.n
    rng = np.random.default_rng(0)
    probes = np.vstack([_deck(n), _random_probes(rng, trials, n)])
    score = _rows(estimator)
    for x in _probe_blocks(probes, 1):
        got = score(x)
        want = score_sorted_rows(weights.weights, np.sort(x, axis=1))
        j = _first(np.abs(got - want) > _tols(_max_abs(x)))
        if j is not None:
            return VerificationResult(
                False, probes.shape[0], np.array(x[j]), float(got[j]), float(want[j])
            )
    return VerificationResult(True, probes.shape[0])


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
    # row k of the ladder is k entries of -1.0, then +0.0; each block is built
    # as it is scored, from a view whose row k holds k
    ladder = np.broadcast_to(np.arange(n + 1)[:, None], (n + 1, n))
    score = _rows(estimator)
    values = np.concatenate(
        [score(np.where(np.arange(n) < ks, -1.0, 0.0)) for ks in _probe_blocks(ladder, 1)]
    )
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
            f"{res.defect!r} at a verification probe"
        )
    return weights
