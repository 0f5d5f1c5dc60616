"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints exactly one PASS/FAIL
line (run with -s to stream them). A test collects every sub-check failure
before reporting, so a single run shows the status of all ten criteria.
"""

import itertools
import math
from typing import Sequence

import numpy as np
from scipy import integrate, stats

from riskbench import bench
from riskbench.bench import BenchConfig, run_study
from riskbench.coherence import (
    VIOLATION_RTOL,
    Estimator,
    _rows,
    check_all,
    check_axiom,
    extract_comonotonic_weights,
)
from riskbench.consistency import (
    SpectrumSpec,
    _discretization,
    build_spectral_weights,
    build_spectral_weights_alt,
    empirical_consistency,
    es_spectrum,
)
from riskbench.core import SupremumCre, WeightVector, _as_vector, score_sorted_rows
from riskbench.distributions import HorizonSum, parse_dist, true_risk
from riskbench.estimators import build_estimator, expectile_rows, gaussian_plugin_rows
from riskbench.metrics import _BLOCK

ALPHA = 0.025
N = 250
PERMUTATION_ORACLE_MAX_N = 8

NIG_LABELS = (
    "nig:0.4:0.14:0:1",
    "nig:0.4:-0.14:0:1",
    "nig:0.55:0.3025:0:1",
    "nig:0.55:-0.3025:0:1",
    "nig:0.4:0.22:0:1",
    "nig:0.4:-0.22:0:1",
)


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else "  [" + "; ".join(failures) + "]"
    print(f"criterion {num:02d}  {status}  {label}{detail}")
    assert not failures, f"criterion {num:02d} {label}: " + "; ".join(failures)


def monotone_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    w = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return w / w.sum()


def apply_l_estimator(w, x) -> float:
    """Evaluate -<w, s(x)> where s(x) is the sample sorted non-decreasingly:
    the validated one-sample entry to score_sorted_rows.

    Args:
        w: WeightVector, or a plain weight array (no simplex constraint).
        x: the sample, a one-dimensional array of finite floats, sorted here.

    Returns:
        The weighted order-statistic risk value as a float.

    Raises:
        ValueError: length mismatch between weights and sample.
    """
    weights = w.weights if isinstance(w, WeightVector) else _as_vector(w, "weights")
    values = np.sort(_as_vector(x, "sample"))
    if weights.size != values.size:
        raise ValueError(
            f"weights of length {weights.size} cannot score a sample of length {values.size}"
        )
    return float(score_sorted_rows(weights, values[None])[0])


def permutation_closure_oracle(m: SupremumCre, x) -> float:
    """Brute-force sup over candidates and all coordinate permutations of <sigma(a), -x>.

    The sample is NOT sorted here; the sup runs over every rearrangement of
    each candidate against x as given. For non-increasing candidates this
    equals m.rows(x[None])[0] by the rearrangement inequality, which
    is exactly what makes this an independent cross-check. Guarded to n <= 8.
    """
    values = _as_vector(x, "sample")
    n = values.size
    if n > PERMUTATION_ORACLE_MAX_N:
        raise ValueError(
            f"permutation oracle is factorial in n; refusing n={n} > {PERMUTATION_ORACLE_MAX_N}"
        )
    if m.n != n:
        raise ValueError(
            f"candidates of length {m.n} cannot score a sample of length {n}"
        )
    neg_x = -values
    best = -np.inf
    for w in m.candidates:
        for perm in itertools.permutations(w.weights.tolist()):
            best = max(best, float(np.dot(perm, neg_x)))
    return best


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


def check_partial_integrals(
    spectrum: SpectrumSpec,
    discretization: str,
    t_grid: Sequence[float],
    n_list: Sequence[int],
) -> dict[int, float]:
    """Max over the t grid of |int_0^t phi_n - int_0^t phi| for each size,
    phi_n being the step density of the named discretization of spectrum.

    The step integral is evaluated in closed form (full cells plus the
    fractional cell containing t); the spectrum side goes through its
    closed-form integral, so the only approximation measured is the
    discretization.
    An unknown discretization raises ValueError.
    """
    build = _discretization(discretization)
    grid = [float(t) for t in t_grid]
    for t in grid:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"grid points must lie in [0, 1], got {t}")
    out: dict[int, float] = {}
    for n_raw in n_list:
        n = int(n_raw)
        w = build(spectrum, n).weights
        cum = np.concatenate([[0.0], np.cumsum(w)])
        worst = 0.0
        for t in grid:
            j = min(int(math.floor(t * n)), n - 1)
            step = float(cum[j]) + n * float(w[j]) * (t - j / n)
            worst = max(worst, abs(step - spectrum.integral(t)))
        out[n] = worst
    return out


def table_value(table, distribution: str, scheme: str, estimator: str, metric: str) -> float:
    for r in table.rows:
        if (
            r.distribution == distribution
            and r.scheme == scheme
            and r.estimator == estimator
            and r.metric == metric
        ):
            return r.value
    raise KeyError((distribution, scheme, estimator, metric))


# First seven weights at alpha=2.5%, n=250, rounded to 3 decimals, and the
# exact weight sums. Frozen from the closed forms: M = floor(alpha*(n+1)) = 6,
# R = 0.275, scales 6 / 6.25 / 6.275.
SEVEN_WEIGHTS_3DP = {
    "es1": [0.167, 0.167, 0.167, 0.167, 0.167, 0.167, 0.000],
    "es2": [0.160, 0.160, 0.160, 0.160, 0.160, 0.160, 0.040],
    "es3": [0.239, 0.159, 0.159, 0.159, 0.159, 0.117, 0.006],
    "es4": [0.319, 0.159, 0.159, 0.159, 0.159, 0.117, 0.006],
    "es5": [0.250, 0.167, 0.167, 0.167, 0.167, 0.167, 0.000],
    "es6": [0.333, 0.167, 0.167, 0.167, 0.167, 0.167, 0.000],
}
EXACT_SUMS = {
    "es1": 1.0,
    "es2": 1.0,
    "es3": 1.0,
    "es4": 1.0 + 0.5 / 6.275,
    "es5": 6.5 / 6.0,
    "es6": 7.0 / 6.0,
}


def test_c01_weight_rows_and_exact_sums():
    failures = []
    for name, want in SEVEN_WEIGHTS_3DP.items():
        w = build_estimator(name, ALPHA, N).weights
        got = [round(float(v), 3) for v in w[:7]]
        if got != want:
            failures.append(f"{name} first seven weights {got} != {want}")
        if not np.all(w[7:] == 0.0):
            failures.append(f"{name} carries weight past position 7")
        total = float(w.sum())
        if abs(total - EXACT_SUMS[name]) > 1e-12:
            failures.append(f"{name} sum {total!r} != {EXACT_SUMS[name]!r}")
    _report(1, "weight rows to 3 decimals and exact sums", failures)


def test_c02_counterexamples():
    failures = []
    # variance add-on makes the plug-in rank a better position as riskier
    hi = float(gaussian_plugin_rows(0.01, np.array([[1.0, 0.0]]))[0])
    lo = float(gaussian_plugin_rows(0.01, np.array([[0.0, 0.0]]))[0])
    if abs(hi - 1.38) > 0.01:
        failures.append(f"plug-in value {hi!r} not within 0.01 of 1.38")
    if not hi > lo:
        failures.append(f"expected a monotonicity violation, got {hi!r} <= {lo!r}")
    # two single-spike losses at the 1% level break subadditivity
    weights = build_estimator("var", 0.01, 100).weights
    fn = lambda x: apply_l_estimator(weights, x)
    x = np.zeros(100)
    x[0] = -100.0
    y = np.zeros(100)
    y[1] = -100.0
    triple = (fn(x), fn(y), fn(x + y))
    if triple != (0.0, 0.0, 100.0):
        failures.append(f"spike triple {triple} != (0.0, 0.0, 100.0)")
    if not fn(x + y) > fn(x) + fn(y):
        failures.append("empirical quantile stayed subadditive on the spike pair")
    _report(2, "plug-in monotonicity and quantile subadditivity violations", failures)


def test_c03_expectile_worked_values():
    failures = []
    cases = (((1.0, 2.0, 3.0), 1.6), ((0.0, 0.0, 1.0), 1.0 / 7.0), ((1.0, 2.0, 4.0), 1.8))
    values = []
    for x, want in cases:
        got = -float(expectile_rows(0.25, np.array([x]))[0])
        values.append(got)
        if abs(got - want) > 1e-9:
            failures.append(f"expectile of {x} is {got!r}, wanted {want!r}")
    gap = values[2] - (values[0] + values[1])
    want_gap = 1.8 - (1.6 + 1.0 / 7.0)
    if abs(gap - want_gap) > 1e-9:
        failures.append(f"additivity gap {gap!r} != {want_gap!r}")
    if not gap > 0.05:
        failures.append("comonotonic pair summed additively")
    _report(3, "expectile worked values and non-additivity gap", failures)


def test_c04_extraction_round_trip():
    failures = []
    rng = np.random.default_rng(77)
    for n in (5, 50, 250):
        worst = 0.0
        for _ in range(100):
            a = monotone_simplex(rng, n)
            # the per-sample estimator, scored one row at a time
            fn = lambda block, a=a: np.array([apply_l_estimator(a, x) for x in block])
            got = extract_comonotonic_weights(fn, n).weights
            worst = max(worst, float(np.max(np.abs(got - a))))
        if worst > 1e-12:
            failures.append(f"n={n}: worst componentwise error {worst!r}")
    _report(4, "weight extraction inverts application", failures)


def test_c05_axiom_battery():
    failures = []
    # levels chosen so the tail block is non-empty at every size
    for name in ("es1", "es2", "es3"):
        for alpha, n in ((0.2, 10), (ALPHA, 100), (ALPHA, N)):
            spec = build_estimator(name, alpha, n)
            report = check_all(spec.rows, n, trials=10_000, seed=1000 + n)
            if not report.all_pass:
                failed = [c.axiom for c in report.checks if not c.passed]
                failures.append(f"{name} n={n}: failed {failed}")
    displays = {"es4": 1.080, "es5": 1.083, "es6": 1.167}
    for name, display in displays.items():
        spec = build_estimator(name, ALPHA, N)
        slope = check_cash_additivity_slope(spec.rows, N)
        if abs(slope - EXACT_SUMS[name]) > 1e-12:
            failures.append(f"{name} slope {slope!r} != {EXACT_SUMS[name]!r}")
        if round(slope, 3) != display:
            failures.append(f"{name} slope displays as {round(slope, 3)}, not {display}")
        check = check_axiom(spec.rows, "cash_additivity", N, trials=200, seed=5)
        if check.passed:
            failures.append(f"{name} was not flagged for cash additivity")
    rng = np.random.default_rng(55)
    for trial in range(3):
        m = SupremumCre(
            tuple(WeightVector(monotone_simplex(rng, 20)) for _ in range(3))
        )
        for axiom in (
            "monotonicity",
            "cash_additivity",
            "positive_homogeneity",
            "subadditivity",
        ):
            check = check_axiom(m.rows, axiom, 20, trials=2000, seed=100 + trial)
            if not check.passed:
                failures.append(f"supremum set {trial} failed {axiom}")
    for n in range(2, 7):
        for rep in range(30):
            m = SupremumCre(
                tuple(WeightVector(monotone_simplex(rng, n)) for _ in range(1 + rep % 3))
            )
            x = rng.standard_normal(n)
            direct = m.rows(x[None])[0]
            oracle = permutation_closure_oracle(m, x)
            if abs(direct - oracle) > 1e-12 * (1.0 + float(np.max(np.abs(x)))):
                failures.append(f"permutation oracle disagrees at n={n} rep={rep}")
    _report(5, "axiom battery, cash slopes, supremum sets, permutation oracle", failures)


def test_c06_spectral_builders_match_tail_estimators():
    failures = []
    s = es_spectrum(ALPHA)
    integral = build_spectral_weights(s, N).weights
    direct2 = build_estimator("es2", ALPHA, N).weights
    if not np.array_equal(integral, direct2):
        failures.append("integral builder differs from the second tail estimator")
    alt = build_spectral_weights_alt(s, N).weights
    direct1 = build_estimator("es1", ALPHA, N).weights
    if not np.array_equal(alt, direct1):
        failures.append("alternative builder differs from the first tail estimator")
    _report(6, "spectral builders reproduce tail-average weights exactly", failures)


def test_c07_normal_closed_forms_and_t_oracle():
    failures = []
    var1 = true_risk(parse_dist("normal:0:1"), 0.01).var_alpha
    if round(var1, 3) != 2.326:
        failures.append(f"normal 1% quantile risk {var1!r} displays as {round(var1, 3)}")
    es = true_risk(parse_dist("normal:0:1"), ALPHA).es_alpha
    if round(es, 3) != 2.336:
        quad, _ = integrate.quad(lambda u: stats.norm.ppf(1.0 - u), 0.0, ALPHA)
        failures.append(
            f"normal tail average at 2.5% computes to {es!r} and displays as "
            f"{round(es, 3)}, not 2.336; an independent quadrature of the "
            f"quantile function gives {quad / ALPHA!r}, matching the computed value"
        )
    t_closed = true_risk(parse_dist("t:5"), ALPHA)
    t_oracle = true_risk(HorizonSum(parse_dist("t:5"), 1), ALPHA, oracle_k=2_000_000, seed=17)
    gap = abs(t_closed.es_alpha - t_oracle.es_alpha)
    if gap > 3.0 * t_oracle.standard_error:
        failures.append(
            f"t(5) closed form {t_closed.es_alpha!r} vs sampled {t_oracle.es_alpha!r}: "
            f"gap {gap!r} exceeds 3 x {t_oracle.standard_error!r}"
        )
    _report(7, "closed-form reference values at displayed precision", failures)


def test_c08_study_reproduction_at_reduced_scale():
    failures = []
    table_a = run_study(
        BenchConfig(
            distributions=("normal:0:1",),
            schemes=("iid", "overlapping:10"),
            estimators=("es1", "es2", "es3", "es6"),
            k=100_000,
        )
    )
    table_b = run_study(
        BenchConfig(
            distributions=("t:5",),
            schemes=("iid",),
            estimators=("es1",),
            k=100_000,
        )
    )
    pinned = (
        (table_a, "normal:0:1", "iid", "es1", "sb", -0.8, 0.4),
        (table_a, "normal:0:1", "iid", "es2", "se", 8.7, 0.5),
        (table_a, "normal:0:1", "iid", "es3", "ct", 2.6, 0.3),
        (table_a, "normal:0:1", "overlapping:10", "es1", "sb", -6.4, 0.6),
        (table_a, "normal:0:1", "overlapping:10", "es6", "ct", 2.3, 0.5),
        (table_b, "t:5", "iid", "es1", "sb", -0.8, 0.5),
    )
    for table, dist, scheme, est, metric, target, tol in pinned:
        got = 100.0 * table_value(table, dist, scheme, est, metric)
        if abs(got - target) > tol:
            failures.append(
                f"{dist}/{scheme} {est} {metric} = {got:.2f}%, wanted {target}+-{tol}pp"
            )
    heavy = run_study(
        BenchConfig(
            distributions=NIG_LABELS,
            schemes=("iid", "overlapping:10"),
            estimators=("es1", "es2", "es3", "es4", "es5", "es6"),
            k=50_000,
            oracle_k=1_000_000,
        )
    )
    for dist in NIG_LABELS:
        for scheme in ("iid", "overlapping:10"):
            plain = [table_value(heavy, dist, scheme, e, "sb") for e in ("es1", "es2", "es3")]
            lifted = [table_value(heavy, dist, scheme, e, "sb") for e in ("es4", "es5", "es6")]
            if not max(plain) < min(lifted):
                failures.append(f"{dist}/{scheme}: bias ordering violated")
        for est in ("es1", "es2", "es3", "es4"):
            if not (
                table_value(heavy, dist, "overlapping:10", est, "sb")
                < table_value(heavy, dist, "iid", est, "sb")
            ):
                failures.append(f"{dist} {est}: overlap bias not below iid bias")
    _report(8, "study cells at reduced replication count", failures)


def test_c09_consistency_ladder():
    failures = []
    spectrum = es_spectrum(ALPHA)
    n_list = (100, 1000, 10_000, 100_000)
    rows = empirical_consistency(
        parse_dist("normal:0:1"), spectrum, "integral", n_list, reps=50, seed=9
    )
    medians = [row.median_abs_error for row in rows]
    for earlier, later in zip(medians, medians[1:]):
        if not later < earlier:
            failures.append(f"median errors not strictly decreasing: {medians}")
            break
    if not medians[-1] < 0.02:
        failures.append(f"median error {medians[-1]!r} at n=100000 not under 0.02")
    sup = 1.0 / ALPHA
    grid = sorted(
        set(np.linspace(0.0, 1.0, 201))
        | {(np.floor(ALPHA * n) + 0.5) / n for n in n_list}
        | {ALPHA}
    )
    deviations = check_partial_integrals(spectrum, "integral", grid, n_list)
    for n in n_list:
        bound = sup / n
        if deviations[n] > bound * (1.0 + 1e-9):
            failures.append(f"partial integral deviation {deviations[n]!r} > {bound!r} at n={n}")
    _report(9, "spectral estimate converges with bounded discretization", failures)


def test_c10_determinism_across_worker_counts(monkeypatch):
    failures = []
    base = dict(
        distributions=("normal:0:1", "nig:0.4:0.14:0:1"),
        schemes=("iid", "overlapping:10"),
        k=2000,
        oracle_k=200_000,
        seed=2026,
    )
    full = run_study(BenchConfig(**base)).to_csv()
    if run_study(BenchConfig(**base)).to_csv() != full:
        failures.append("two runs of the same config emit different csv")
    full_rows = full.splitlines()[1:]
    for dist in base["distributions"]:
        for scheme in base["schemes"]:
            config = dict(base, distributions=(dist,), schemes=(scheme,))
            alone = run_study(BenchConfig(**config)).to_csv().splitlines()[1:]
            group = alone[0].split(",")[:2]
            in_full = [line for line in full_rows if line.split(",")[:2] == group]
            if len(alone) != 35 or alone != in_full:
                failures.append(f"{dist}/{scheme} run alone differs from its rows in the grid")
    # one CPU runs the grid's tasks in this process, three run them in forked
    # workers; slices of three tiles (384) leave K = 2000 a short last slice
    monkeypatch.setattr(bench, "_SLICE", 3 * _BLOCK)
    for cpus in (1, 3):
        monkeypatch.setattr(bench, "_usable_cpus", lambda cpus=cpus: cpus)
        table = run_study(BenchConfig(**base))
        if table.metadata["timings"]["workers"] != cpus:
            failures.append(f"{cpus} CPUs ran {table.metadata['timings']['workers']} workers")
        if table.to_csv() != full:
            failures.append(f"the grid on {cpus} CPUs differs from the default run")
    _report(10, "byte-identical output across runs, grid subsets and worker counts", failures)
