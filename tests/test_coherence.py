import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import apply_l_estimator, check_cash_additivity_slope, monotone_simplex

from riskbench import cli, coherence, estimators
from riskbench.coherence import (
    AXIOMS,
    VERIFY_TRIALS,
    VIOLATION_RTOL,
    CoherenceReport,
    NotComonotonicError,
    check_all,
    check_axiom,
    extract_comonotonic_weights,
    verify_representation,
)
from riskbench.core import SupremumCre, WeightVector, score_sorted_rows
from riskbench.estimators import build_estimator, expectile_rows, gaussian_plugin_rows

TRIALS = 300


def by_row(f):
    """A per-sample function as a block function, one call per row: the
    reference the block kernels are compared against."""
    return lambda block: np.array([f(x) for x in block], dtype=float)


class TestAxiomBattery:
    @pytest.mark.parametrize("name", ["es1", "es2", "es3"])
    def test_cre_estimators_pass_everything(self, name):
        spec = build_estimator(name, 0.025, 100)
        report = check_all(spec.rows, 100, trials=TRIALS, seed=3)
        assert report.all_pass, report.failed_axioms()

    @pytest.mark.parametrize("name", ["es4", "es5", "es6"])
    def test_inflated_estimators_fail_only_cash(self, name):
        spec = build_estimator(name, 0.025, 100)
        # trials=0 runs the ten-probe deck alone, to the same verdicts
        for trials in (TRIALS, 0):
            report = check_all(spec.rows, 100, trials=trials, seed=4)
            assert [c.trials for c in report.checks] == [10 + trials] * len(AXIOMS)
            assert report.failed_axioms() == ["cash_additivity"]
            (w,) = [c.witness for c in report.checks if c.axiom == "cash_additivity"]
            assert w is not None
            scale = max(float(np.max(np.abs(w.inputs[0]))), abs(w.aux))
            assert abs(w.defect) > VIOLATION_RTOL * (1.0 + scale)
            # the witness the per-call battery found: the zero probe shifted by one
            assert len(w.inputs) == 1
            assert np.array_equal(w.inputs[0], np.zeros(100))
            assert w.aux == 1.0

    def test_gaussian_plugin_failures(self):
        fn = functools.partial(gaussian_plugin_rows, 0.01)
        report = check_all(fn, 50, trials=TRIALS, seed=5)
        assert report.failed_axioms() == ["monotonicity", "comonotonic_additivity"]

    def test_expectile_fails_only_comonotonic_additivity(self):
        fn = functools.partial(expectile_rows, 0.25)
        report = check_all(fn, 30, trials=TRIALS, seed=6)
        assert report.failed_axioms() == ["comonotonic_additivity"]

    def test_empirical_var_subadditivity_spikes(self):
        # two single-spike vectors at the 1% level break subadditivity
        spec = build_estimator("var", 0.01, 100)
        check = check_axiom(spec.rows, "subadditivity", 100, trials=50, seed=0)
        assert not check.passed
        w = check.witness
        assert w.lhs == 100.0
        assert w.rhs == 0.0

    def test_non_law_invariant_estimator_is_caught(self):
        fn = lambda block: -block[:, 0]
        check = check_axiom(fn, "law_invariance", 10, trials=TRIALS, seed=7)
        assert not check.passed

    def test_unknown_axiom(self):
        spec = build_estimator("es2", 0.1, 20)
        with pytest.raises(ValueError):
            check_axiom(spec.rows, "convexity", 20)


class TestBlockProtocol:
    # per-sample functions handed a block: one returns a scalar, one a row,
    # one raises a ValueError and one a TypeError
    PER_SAMPLE = [
        lambda x: float(-np.mean(x)),
        lambda x: -np.sort(x)[0],
        lambda x: apply_l_estimator(np.full(6, 1.0 / 6.0), x),
        lambda x: -float(x[0]),
    ]
    ENTRY_POINTS = {
        "check_axiom": lambda fn: check_axiom(fn, "law_invariance", 6, trials=20),
        "check_all": lambda fn: check_all(fn, 6, trials=20),
        "slope": lambda fn: check_cash_additivity_slope(fn, 6),
        "verify": lambda fn: verify_representation(fn, WeightVector(np.full(6, 1.0 / 6.0))),
        "extract": lambda fn: extract_comonotonic_weights(fn, 6),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("per_sample", range(len(PER_SAMPLE)))
    def test_a_per_sample_function_fails_naming_the_shape(self, entry, per_sample):
        with pytest.raises(ValueError, match=r"to shape \(\d+,\)") as exc:
            self.ENTRY_POINTS[entry](self.PER_SAMPLE[per_sample])
        assert not isinstance(exc.value, NotComonotonicError)

    def test_replay_checks_the_shape_too(self):
        check = check_axiom(lambda block: -block[:, 0], "law_invariance", 6, trials=20)
        with pytest.raises(ValueError, match=r"to shape \(2,\), got shape \(\)"):
            check.witness.replay(self.PER_SAMPLE[0])

    def test_a_wrapper_is_scored_not_bypassed(self):
        # a functools.wraps wrapper (a tracer, a counter) sees every row
        spec = build_estimator("es1", 0.05, 40)
        rows = []

        @functools.wraps(spec.rows)
        def counted(block):
            rows.append(len(block))
            return spec.rows(block)

        report = check_all(counted, 40, trials=50, seed=3)
        assert report.to_json() == check_all(spec.rows, 40, trials=50, seed=3).to_json()
        assert sum(rows) > 6 * 60


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestBlockScoring:
    @pytest.mark.parametrize(
        "name, alpha, n",
        [
            (name, alpha, n)
            for alpha, n in ((0.2, 10), (0.025, 100), (0.025, 250))
            for name in ("var", "es1", "es2", "es3", "es4", "es5", "es6")
        ]
        + [("var1", 0.01, 250)],
    )
    def test_block_scores_match_row_loop(self, name, alpha, n):
        spec = build_estimator(name, alpha, n)
        rng = np.random.default_rng(n)
        block = np.vstack(
            [coherence._probes(rng, 200, n), np.round(rng.standard_normal((20, n)), 1)]
        )
        got = spec.rows(block)
        want = by_row(lambda x: apply_l_estimator(spec.weights, x))(block)
        scale = np.max(np.abs(block), axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale))

    # sha256 over the distinct rows a passing black box is fed, recorded from
    # the per-call battery: pins every axiom's probe inputs and draw order
    @pytest.mark.parametrize(
        "axiom, digest",
        [
            ("monotonicity", "120c913f3166ba6902e2b34614d0edbe56e4000cd497c6530e5947059af862a2"),
            (
                "cash_additivity",
                "3adb2bc90160cc2f9f89d79b162ab581453e0fa40566adbc59fcbcfcbd1e5f5c",
            ),
            (
                "positive_homogeneity",
                "e82cfc83160dfbe8b4a78d2061fb07a0b2c8777442d82d5003498169d6f87d22",
            ),
            ("subadditivity", "b1b95e4f543c22cc9af484819bf52d310083e3697df56069100aae9a92bd8e20"),
            ("law_invariance", "773855bb15b4038c847e5651d9e1131c2dff0372ce5c9dfd53b81953af32b1cd"),
            (
                "comonotonic_additivity",
                "76e424d8a01441e384529b6317f06e2b159d25d841718e442b2c747bede85bff",
            ),
        ],
    )
    def test_probe_inputs_are_pinned(self, axiom, digest):
        seen = set()

        def mean_box(x):
            seen.add(np.asarray(x, dtype=float).tobytes())
            return float(-np.mean(x))

        assert check_axiom(by_row(mean_box), axiom, 12, trials=50, seed=3).passed
        assert hashlib.sha256(b"".join(sorted(seen))).hexdigest() == digest

    # sha256 of CoherenceReport.to_json(), recorded from the per-call battery
    # that scored one probe input per estimator call; es4 is scored through
    # its block kernel `rows`, recorded from the block-scored battery
    @pytest.mark.parametrize(
        "fn, digest",
        [
            (
                by_row(lambda x: gaussian_plugin_rows(0.025, x[None])[0]),
                "8ba5c357d74fb187365eb7bf800ecee1a460229e5e094a456cc45c17f7b62160",
            ),
            (
                by_row(lambda x: expectile_rows(0.1, x[None])[0]),
                "eaf04b6d5c6b873a32158f62358ff3d8373cf8cdf257bba117f81834f08b3ff0",
            ),
            (
                build_estimator("es4", 0.05, 40).rows,
                "30e72df3a03ef904873665657ad947405ded57fa3fc43ccfdccb8a96eb440b21",
            ),
        ],
        ids=["gaussian", "expvar", "es4"],
    )
    def test_black_box_reports_are_pinned(self, fn, digest):
        report = check_all(fn, 40, trials=80, seed=21)
        assert report.failed_axioms()
        assert _sha256(report.to_json()) == digest

    # the CLI's gaussian and expvar are their block kernels, scored a block at
    # a time, and their reports keep the digests pinned above from the
    # per-call battery
    @pytest.mark.parametrize(
        "name, alpha, kernel, digest",
        [
            (
                "gaussian",
                0.025,
                "gaussian_plugin_rows",
                "8ba5c357d74fb187365eb7bf800ecee1a460229e5e094a456cc45c17f7b62160",
            ),
            (
                "expvar",
                0.1,
                "expectile_rows",
                "eaf04b6d5c6b873a32158f62358ff3d8373cf8cdf257bba117f81834f08b3ff0",
            ),
        ],
    )
    def test_cli_block_kernels_keep_the_pinned_reports(self, name, alpha, kernel, digest):
        fn = cli._resolve_functional(name, alpha, 40)
        assert fn.func is getattr(estimators, kernel)
        report = check_all(fn, 40, trials=80, seed=21)
        assert _sha256(report.to_json()) == digest

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_supremum_kernel_matches_the_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        m = SupremumCre(tuple(WeightVector(monotone_simplex(rng, n)) for _ in range(4)))
        # the supremum spelled out one sample at a time, apart from the kernel
        per_row = by_row(lambda x: max(-np.dot(w.weights, np.sort(x)) for w in m.candidates))
        block = coherence._probes(rng, 300, n)
        want = per_row(block)
        scale = np.max(np.abs(block), axis=1)
        assert np.all(np.abs(m.rows(block) - want) <= 1e-12 * (1.0 + scale))
        row_report = check_all(per_row, n, trials=300, seed=seed)
        block_report = check_all(m.rows, n, trials=300, seed=seed)
        verdicts = [c.passed for c in block_report.checks]
        assert verdicts == [c.passed for c in row_report.checks]
        assert verdicts[:5] == [True] * 5

    def test_violation_past_the_first_block(self):
        calls = []

        def late(x):
            calls.append(None)
            return float(-np.mean(x) - (1e-3 * x[0] if np.max(x) > 2000.0 else 0.0))

        check = check_axiom(by_row(late), "law_invariance", 250, trials=300, seed=7)
        # probe 124 is the first to exceed 2000, so a later block finds it
        assert len(calls) > coherence._BLOCK_FLOATS // 250
        assert _sha256(CoherenceReport((check,)).to_json()) == (
            "5d23ddfb87caa9a34f3688d1c76dcf11292d4698bed6460720350741c7b7a9d9"
        )

    @pytest.mark.parametrize(
        "fn, axiom",
        [
            (lambda x: float(np.sum(x)), "monotonicity"),
            (lambda x: 1.0, "cash_additivity"),
            (lambda x: 1.0, "positive_homogeneity"),
            (lambda x: float(np.sum(x)) ** 2, "subadditivity"),
            (lambda x: -float(x[0]), "law_invariance"),
            (lambda x: 1.0, "comonotonic_additivity"),
        ],
    )
    def test_early_violation_scores_at_most_one_block(self, fn, axiom):
        n = 250
        calls = []

        def counted(x):
            calls.append(None)
            return fn(x)

        check = check_axiom(by_row(counted), axiom, n, trials=1000, seed=0)
        assert not check.passed
        assert len(calls) <= coherence._BLOCK_FLOATS // n
        # replay runs the scan's relation again: signed for the one-sided
        # axioms, absolute for the rest
        defect = check.witness.defect
        one_sided = axiom in ("monotonicity", "subadditivity")
        assert check.witness.replay(by_row(fn)) == (defect if one_sided else abs(defect))


class TestWitness:
    def test_replay_reproduces_defect(self):
        # replay is signed for the one-sided axioms, absolute for the rest
        fn = functools.partial(gaussian_plugin_rows, 0.01)
        report = check_all(fn, 40, trials=TRIALS, seed=8)
        assert report.failed_axioms()
        for check in report.checks:
            if check.passed:
                continue
            w = check.witness
            assert w.replay(fn) == pytest.approx(abs(w.defect), abs=1e-12)

    def test_report_json_shape(self):
        spec = build_estimator("es2", 0.05, 40)
        report = check_all(spec.rows, 40, trials=50, seed=9)
        data = json.loads(report.to_json())
        assert {c["axiom"] for c in data} == set(AXIOMS)
        assert all(c["passed"] for c in data)


class TestCashSlope:
    def test_slopes_match_weight_sums_exactly(self):
        for name, want in (
            ("es4", 1.0 + 0.5 / 6.275),
            ("es5", 6.5 / 6.0),
            ("es6", 7.0 / 6.0),
        ):
            spec = build_estimator(name, 0.025, 250)
            got = check_cash_additivity_slope(spec.rows, 250)
            assert got == pytest.approx(want, abs=1e-12)

    def test_unit_slope_for_cre(self):
        spec = build_estimator("es2", 0.025, 250)
        got = check_cash_additivity_slope(spec.rows, 250)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_affine_response(self):
        fn = lambda block: np.sort(block, axis=1)[:, 0] ** 3
        with pytest.raises(ValueError, match="cash response is not affine"):
            check_cash_additivity_slope(fn, 5)


class TestRepresentation:
    def test_verify_accepts_matching_pair(self):
        spec = build_estimator("es2", 0.05, 30)
        weights = WeightVector(spec.weights)
        res = verify_representation(spec.rows, weights)
        assert res.passed
        assert res.trials == 10 + VERIFY_TRIALS  # the deck, then the random probes

    def test_verify_rejects_wrong_weights(self):
        spec = build_estimator("es2", 0.05, 30)
        wrong = WeightVector(np.full(30, 1.0 / 30.0))
        res = verify_representation(spec.rows, wrong)
        assert not res.passed
        assert res.sample is not None

    def test_mismatch_carries_the_sample_and_both_values(self):
        # es2 checked against uniform weights: re-scoring the returned sample
        # with the block kernels gives back both values, and they differ by
        # the reported defect
        spec = build_estimator("es2", 0.1, 20)
        uniform = WeightVector(np.full(20, 1.0 / 20.0))
        res = verify_representation(spec.rows, uniform)
        assert not res.passed
        assert spec.rows(res.sample[None])[0] == res.estimate
        assert score_sorted_rows(uniform.weights, np.sort(res.sample)[None])[0] == res.represented
        assert res.defect == res.estimate - res.represented
        assert abs(res.defect) > VIOLATION_RTOL

    @pytest.mark.parametrize("name", ["es1", "es2", "es3"])
    def test_extraction_round_trip(self, name):
        spec = build_estimator(name, 0.05, 60)
        got = extract_comonotonic_weights(spec.rows, 60)
        assert np.allclose(got.weights, spec.weights, atol=1e-12)

    def test_extraction_memory_stays_flat_in_the_ladder(self):
        # the whole (n + 1) x n ladder at n = 2 000 would take 32 MB, twice;
        # the blocks keep the traced peak at 1.9 MB, so a doubling fails.
        # A first generator call imports numpy.random, which numpy loads
        # lazily; it is made before tracing, so the peak is the ladder's
        # whatever ran before this test
        n = 2000
        spec = build_estimator("es1", 0.025, n)
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            got = extract_comonotonic_weights(spec.rows, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert np.allclose(got.weights, spec.weights, atol=1e-12)

    def test_extraction_scores_the_ladder_in_probe_blocks(self):
        # each block is built as it is scored; together they are the lower
        # triangle of -1.0 over +0.0, split as _probe_blocks splits it
        n = 600
        spec = build_estimator("es1", 0.025, n)
        seen = []

        def recorded(block):
            seen.append(block.copy())
            return spec.rows(block)

        extract_comonotonic_weights(recorded, n)
        ladder = np.tril(np.full((n + 1, n), -1.0), k=-1)
        want = list(coherence._probe_blocks(ladder, 1))
        assert len(want) > 1
        for got, block in zip(seen, want):
            assert got.shape == block.shape
            assert np.array_equal(got, block)
            assert np.array_equal(np.signbit(got), np.signbit(block))

    def test_extraction_rejects_rising_weights(self):
        # empirical VaR puts its unit weight past position one, so the
        # ladder increments rise and cannot come from a monotone CRE
        spec = build_estimator("var", 0.05, 60)
        with pytest.raises(NotComonotonicError):
            extract_comonotonic_weights(spec.rows, 60)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_extraction_inverts_application(self, n, seed):
        rng = np.random.default_rng(seed)
        w = WeightVector(monotone_simplex(rng, n))
        fn = by_row(lambda x: apply_l_estimator(w, x))
        got = extract_comonotonic_weights(fn, n)
        assert np.allclose(got.weights, w.weights, atol=1e-12)

    def test_extraction_scrubs_float_dust(self):
        # ladder increments off the simplex by less than VIOLATION_RTOL pass
        # the hard checks; the clean-up then clips the negative entry, takes
        # the running minimum over the rise and renormalizes the sum, so the
        # stricter WeightVector gates hold
        dusty = np.array([0.4 + 3e-11, 0.3, 0.3 + 2e-11, -1e-11])
        fn = lambda block: -(np.sort(block, axis=1) @ dusty)
        got = extract_comonotonic_weights(fn, 4).weights
        assert got[3] == 0.0
        assert got[1] == got[2]
        assert np.all(np.diff(got) <= 0.0)
        assert abs(float(np.sum(got)) - 1.0) <= 1e-12
        assert np.allclose(got, [0.4, 0.3, 0.3, 0.0], rtol=0.0, atol=1e-10)

    def test_extraction_rejects_inflated_weights(self):
        spec = build_estimator("es5", 0.025, 100)
        with pytest.raises(NotComonotonicError):
            extract_comonotonic_weights(spec.rows, 100)

    def test_extraction_rejects_expectile(self):
        fn = functools.partial(expectile_rows, 0.25)
        with pytest.raises(NotComonotonicError):
            extract_comonotonic_weights(fn, 4)

    def test_extraction_rejects_gaussian_plugin(self):
        fn = functools.partial(gaussian_plugin_rows, 0.025)
        with pytest.raises(NotComonotonicError):
            extract_comonotonic_weights(fn, 20)

    def test_error_is_a_value_error(self):
        assert issubclass(NotComonotonicError, ValueError)


@pytest.mark.parametrize("probe", AXIOMS + ("extract",))
def test_every_scored_block_fits_the_budget(probe):
    # a relation's stacked rows, a shift's or scaling's cases and the
    # extraction ladder's blocks each stay within _BLOCK_FLOATS floats
    n = 250
    spec = build_estimator("es1", 0.025, n)
    sizes = []

    def recorded(block):
        sizes.append(block.size)
        return spec.rows(block)

    if probe == "extract":
        extract_comonotonic_weights(recorded, n)
    else:
        assert check_axiom(recorded, probe, n, trials=TRIALS, seed=0).passed
    assert len(sizes) > 2
    assert max(sizes) <= coherence._BLOCK_FLOATS


def test_reports_do_not_depend_on_the_block_budget(monkeypatch, capsys):
    # the probe stream is drawn up front and each case's draws run in one
    # fixed order, so how the probes are split into blocks moves no report;
    # every pin was recorded at 1 << 16. A BLAS-scored row's last bits may
    # depend on the block it sits in, so es4's witness and the weights that
    # `extract` prints are compared too
    cases = (
        [
            (build_estimator(name, alpha, n).rows, n)
            for name in ("es1", "es2", "es3")
            for alpha, n in ((0.2, 10), (0.025, 100), (0.025, 250))
        ]
        + [(build_estimator("es4", 0.025, 250).rows, 250)]
        + [
            (functools.partial(kernel, alpha), n)
            for alpha, n in ((0.1, 40), (0.025, 250))
            for kernel in (expectile_rows, gaussian_plugin_rows)
        ]
    )

    def outputs():
        reports = [
            check_all(fn, n, trials=TRIALS, seed=seed).to_json()
            for fn, n in cases
            for seed in (42, 1729)
        ]
        extracted = []
        for name in ("var1", "es1", "es2", "es3", "es4", "es5", "es6"):
            rc = cli.main(["extract", "--estimator", name, "--n", "250"])
            extracted.append((rc, *capsys.readouterr()))
        return reports, extracted

    default = outputs()
    # es4's reports, after the nine es1-es3 cases at two seeds each, carry
    # witnesses
    assert all('"witness"' in report for report in default[0][18:20])
    assert [rc for rc, _, _ in default[1]] == [1, 0, 0, 0, 1, 1, 1]
    for budget in (1 << 12, 1 << 16):
        monkeypatch.setattr(coherence, "_BLOCK_FLOATS", budget)
        assert outputs() == default
