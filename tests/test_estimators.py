import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats
from test_acceptance import EXACT_SUMS, SEVEN_WEIGHTS_3DP, apply_l_estimator

from riskbench import estimators
from riskbench.bench import DEFAULT_ESTIMATORS
from riskbench.core import WeightVector
from riskbench.estimators import (
    ESTIMATORS,
    SpectrumSpec,
    build_estimator,
    build_spectral_weights,
    build_spectral_weights_alt,
    es_spectrum,
    expectile_rows,
    gaussian_plugin_rows,
    tail_levels,
    tail_split,
    uniform_spectrum,
)

ALPHA = 0.025
N = 250


def _floor(value):
    """The snapped floor the estimators count their tails with."""
    return estimators._snapped_split(value)[0]


class TestWeightTables:
    @pytest.mark.parametrize("name", sorted(SEVEN_WEIGHTS_3DP))
    def test_first_seven_weights(self, name):
        w = build_estimator(name, ALPHA, N).weights
        got = [round(float(v), 3) for v in w[:7]]
        assert got == SEVEN_WEIGHTS_3DP[name]
        assert np.all(w[7:] == 0.0)

    @pytest.mark.parametrize("name", sorted(EXACT_SUMS))
    def test_exact_sums(self, name):
        w = build_estimator(name, ALPHA, N).weights
        assert float(w.sum()) == pytest.approx(EXACT_SUMS[name], abs=1e-12)

    def test_exact_fractions_es1_es2(self):
        w1 = build_estimator("es1", ALPHA, N).weights
        assert np.all(w1[:6] == 1.0 / 6.0)
        w2 = build_estimator("es2", ALPHA, N).weights
        assert np.all(w2[:6] == 1.0 / 6.25)
        assert w2[6] == 0.25 / 6.25

    def test_exact_fractions_es3(self):
        w = build_estimator("es3", ALPHA, N).weights
        scale = ALPHA * (N + 1)  # 6.275 up to float rounding
        r = scale - 6.0
        assert w[0] == 1.5 / scale
        assert np.all(w[1:5] == 1.0 / scale)
        assert w[5] == (1.0 + 2.0 * r - r * r) / 2.0 / scale
        assert w[6] == r * r / 2.0 / scale

    def test_cre_flags(self):
        for name, expect in (
            ("es1", True),
            ("es2", True),
            ("es3", True),
            ("es4", False),
            ("es5", False),
            ("es6", False),
        ):
            assert build_estimator(name, ALPHA, N).is_cre is expect

    def test_weight_vector_only_for_cre(self):
        es2 = build_estimator("es2", ALPHA, N).weights
        assert WeightVector(es2, monotone_flag=True).monotone_flag
        with pytest.raises(ValueError):
            WeightVector(build_estimator("es5", ALPHA, N).weights, monotone_flag=True)

    @pytest.mark.parametrize("alpha, n", [(0.025, 250), (0.1, 40), (0.2, 10)])
    def test_is_cre_is_the_monotone_weight_vector_gate(self, alpha, n):
        for name in ESTIMATORS:
            if name == "var1" and n != 250:
                continue  # defined at n = 250 only
            spec = build_estimator(name, alpha, n)
            try:
                WeightVector(spec.weights, monotone_flag=True)
            except ValueError:
                assert not spec.is_cre, name
            else:
                assert spec.is_cre, name

    @pytest.mark.parametrize("name", sorted(SEVEN_WEIGHTS_3DP))
    def test_weights_are_non_increasing(self, name):
        w = build_estimator(name, ALPHA, N).weights
        assert np.all(np.diff(w) <= 1e-15)


class TestFloorSnapping:
    def test_float_product_snaps_to_integer(self):
        # 0.29 * 100 = 28.999999999999996 in binary; the tail count must be 29
        w = build_estimator("es1", 0.29, 100).weights
        assert np.count_nonzero(w) == 29
        assert w[28] == 1.0 / 29.0

    def test_es2_collapses_to_es1_on_integer_product(self):
        w1 = build_estimator("es1", 0.29, 100).weights
        w2 = build_estimator("es2", 0.29, 100).weights
        assert np.array_equal(w1, w2)

    def test_es2_keeps_fraction_otherwise(self):
        w = build_estimator("es2", 0.3, 4).weights
        # alpha*n = 1.2: full weight 1/1.2 then fractional 0.2/1.2
        assert w[0] == 1.0 / 1.2
        assert w[1] == pytest.approx(0.2 / 1.2, abs=1e-16)


class TestBuilderGuards:
    def test_var_interp_only_n250(self):
        spec = build_estimator("var1", 0.01, 250)
        assert spec.weights[1] == 0.49
        assert spec.weights[2] == 0.51
        with pytest.raises(ValueError):
            build_estimator("var1", 0.01, 100)

    def test_var_weights_position(self):
        w = build_estimator("var", 0.01, 100).weights
        assert w[1] == 1.0  # floor(1) + 1 = 2nd order statistic
        assert np.count_nonzero(w) == 1

    def test_es1_needs_nonempty_tail(self):
        with pytest.raises(ValueError):
            build_estimator("es1", 0.025, 30)

    def test_es3_needs_two_full_cells(self):
        with pytest.raises(ValueError):
            build_estimator("es3", 0.025, 50)
        build_estimator("es3", 0.025, 80)

    def test_es5_needs_one_cell(self):
        with pytest.raises(ValueError):
            build_estimator("es5", 0.025, 30)
        build_estimator("es5", 0.025, 40)

    def test_level_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValueError):
                build_estimator("es1", bad, 250)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_estimator("es9", 0.025, 250)

    def test_var1_ignores_alpha(self):
        a = build_estimator("var1", 0.33, 250).weights
        b = build_estimator("var1", 0.01, 250).weights
        assert np.array_equal(a, b)

    def test_dispatcher_ids(self):
        assert build_estimator("var", 0.01, 100).name == "var"
        assert build_estimator("es4", 0.025, 250).name == "es4"


class TestEstimatorTable:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_spec_is_named_by_its_key_and_frozen(self, name):
        spec = build_estimator(name, ALPHA, N)
        assert spec.name == name
        assert np.array_equal(spec.weights, ESTIMATORS[name](spec.alpha, N))
        with pytest.raises(ValueError):
            spec.weights[0] = 1.0

    def test_var1_level_is_one_percent(self):
        assert build_estimator("var1", ALPHA, N).alpha == 0.01

    def test_every_default_study_estimator_is_a_key(self):
        assert set(DEFAULT_ESTIMATORS) <= set(ESTIMATORS)

    # the last position that can carry weight: floor(alpha*n)+1 for the
    # estimators built at level alpha*n, floor(alpha*(n+1))+1 for those built
    # at alpha*(n+1), and x_(3) for var1
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_weights_vanish_past_the_head(self, name):
        built = 0
        for alpha in np.arange(1, 100, 3) * 0.005:
            for n in [*range(2, 121), 250]:
                try:
                    weights = build_estimator(name, alpha, n).weights
                except ValueError:  # an (alpha, n) the weights cannot take
                    continue
                built += 1
                if name == "var1":
                    reach = 3
                elif name in ("es3", "es4", "es5", "es6"):
                    reach = _floor(alpha * (n + 1)) + 1
                else:
                    reach = _floor(alpha * n) + 1
                assert int(np.flatnonzero(weights)[-1]) + 1 <= reach, (alpha, n)
        assert built > 0

    def test_es3_reaches_past_floor_alpha_n(self):
        # alpha*(n+1) = 4.2: es3's boundary weight sits at position 5, one
        # past floor(alpha*n)+1 = 4, and exactly at floor(alpha*(n+1))+1
        weights = build_estimator("es3", 0.3, 13).weights
        assert np.flatnonzero(weights)[-1] + 1 == 5
        assert _floor(0.3 * 13) + 1 == 4


def _plugin(alpha, x):
    """gaussian_plugin_rows of one sample, as its one-row block."""
    return float(gaussian_plugin_rows(alpha, np.asarray(x, dtype=float)[None])[0])


class TestGaussianPlugin:
    def test_counterexample_value(self):
        got = _plugin(0.01, [1.0, 0.0])
        assert got == pytest.approx(1.3845910485213384, abs=1e-12)
        assert _plugin(0.01, [0.0, 0.0]) == 0.0

    def test_matches_closed_form(self):
        rng = np.random.default_rng(5)
        x = rng.normal(2.0, 3.0, size=100)
        alpha = 0.05
        q = stats.norm.ppf(alpha)
        want = -(x.mean() - x.std(ddof=1) * stats.norm.pdf(q) / alpha)
        assert _plugin(alpha, x) == pytest.approx(want, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            _plugin(0.05, [1.0])


def _ulps_around(x, count):
    """x and the `count` floats on each side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
        out += [float(up), float(down)]
    return out


def test_ndtri_port_keeps_the_bits_of_scipy_ndtri():
    # the study and CLI levels; the ends of [0, 1], which give -inf and +inf,
    # and inputs outside it, which give nan
    levels = [0.001, 0.01, 0.025, 0.05, 0.2, 0.22, 0.5, 0.975]
    ends = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
    outside = [-1e-300, -1.0, 1.5, math.inf, -math.inf, math.nan]
    # the centre/tail switch at exp(-2) and 1 - exp(-2), and the switch of
    # tail approximation at sqrt(-2 log y) = 8, near y = exp(-32)
    edges = []
    for x in (estimators._EXP_M2, 1.0 - estimators._EXP_M2, math.exp(-32.0)):
        edges += _ulps_around(x, 40)
    # a ulp of y near exp(-32) moves sqrt(-2 log y) by less than a ulp of 8,
    # so step in relative steps of 2**-44 too, to straddle the switch
    switch = [math.exp(-32.0) * (1.0 + j * 2.0**-44) for j in range(-300, 301)]
    tails = [math.sqrt(-2.0 * math.log(y)) for y in switch]
    assert min(tails) < 8.0 < max(tails)
    rng = np.random.default_rng(2024)
    uniform = rng.random(25_000)
    log_spaced = np.exp(rng.uniform(math.log(5e-324), 0.0, 25_000))
    points = levels + ends + outside + edges + switch + uniform.tolist() + log_spaced.tolist()
    want = special.ndtri(np.array(points)).tolist()
    got = [estimators._ndtri(y) for y in points]
    assert [g.hex() for g in got] == [w.hex() for w in want]


def _scanned_expectile(alpha, x):
    """The expectile root by a scan over the order statistics, one at a time."""
    s = np.sort(x)
    n = s.size
    prefix = np.cumsum(s)
    total = prefix[-1]
    for j in range(1, n + 1):
        c = s[j - 1]
        below = prefix[j - 1]
        g = alpha * ((total - below) - (n - j) * c) - (1.0 - alpha) * (j * c - below)
        if g <= 0.0:
            if j == 1:
                return float(s[0])
            k = j - 1
            below = prefix[k - 1]
            num = alpha * (total - below) + (1.0 - alpha) * below
            return float(num / (alpha * (n - k) + (1.0 - alpha) * k))
    return float(s[-1])


def _expectile(alpha, x):
    """The empirical expectile e of one sample: minus expectile_rows of its
    one-row block."""
    return -float(expectile_rows(alpha, np.asarray(x, dtype=float)[None])[0])


def _realized_weights(alpha, x):
    """The sample-dependent simplex weights a that write the expectile risk
    of x as -<a, s(x)>: (1-alpha)/D on the n* points at or below the
    expectile, alpha/D above, D = (1 - 2 alpha) n* + n alpha."""
    n = len(x)
    n_star = int(np.count_nonzero(np.asarray(x) <= _expectile(alpha, x)))
    den = (1.0 - 2.0 * alpha) * n_star + n * alpha
    a = np.full(n, alpha / den)
    a[:n_star] = (1.0 - alpha) / den
    a /= a.sum()
    return WeightVector(a, monotone_flag=True)


class TestExpectile:
    def test_root_matches_a_scan_over_order_statistics(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            n = int(rng.integers(1, 120))
            alpha = (0.01, 0.025, 0.25, 0.5, float(rng.uniform(0.001, 0.5)))[trial % 5]
            if trial % 3 == 0:
                x = np.round(rng.standard_normal(n), 1)
            elif trial % 3 == 1:
                x = np.full(n, rng.standard_normal()) + 1e-15 * rng.standard_normal(n)
            else:
                x = rng.standard_t(2.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert _expectile(alpha, x) == _scanned_expectile(alpha, x)

    def test_worked_examples(self):
        for x, want, n_star in (
            ((1.0, 2.0, 3.0), 1.6, 1),
            ((0.0, 0.0, 1.0), 1.0 / 7.0, 2),
            ((1.0, 2.0, 4.0), 1.8, 1),
        ):
            e = _expectile(0.25, x)
            assert e == pytest.approx(want, abs=1e-9)
            assert np.count_nonzero(np.array(x) <= e) == n_star

    def test_non_additivity_gap(self):
        # (1,2,3) and (0,0,1) are comonotonic yet the values do not add up
        a = _expectile(0.25, [1.0, 2.0, 3.0])
        b = _expectile(0.25, [0.0, 0.0, 1.0])
        c = _expectile(0.25, [1.0, 2.0, 4.0])
        assert c - (a + b) == pytest.approx(1.8 - (1.6 + 1.0 / 7.0), abs=1e-9)
        assert c - (a + b) > 0.05

    def test_realized_weights(self):
        x = [1.0, 2.0, 3.0]
        w = _realized_weights(0.25, x)
        # D = (1 - 2a) n* + n a = 1.25; below weight 0.75/D, above 0.25/D
        assert np.allclose(w.weights, [0.6, 0.2, 0.2], atol=1e-12)
        assert apply_l_estimator(w, np.array(x)) == pytest.approx(
            expectile_rows(0.25, np.array([x]))[0], abs=1e-12
        )

    def test_half_level_is_mean(self):
        x = np.array([-3.0, 1.0, 5.0, 9.0])
        assert _expectile(0.5, x) == pytest.approx(x.mean(), abs=1e-12)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            expectile_rows(0.75, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            expectile_rows(0.0, np.array([[1.0, 2.0]]))

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_order_condition(self, xs, alpha):
        x = np.array(xs)
        c = _expectile(alpha, x)
        up = alpha * np.clip(x - c, 0.0, None).sum()
        down = (1.0 - alpha) * np.clip(c - x, 0.0, None).sum()
        scale = 1.0 + np.abs(x).max()
        assert abs(up - down) <= 1e-10 * scale
        assert x.min() - 1e-9 * scale <= c <= x.max() + 1e-9 * scale

    @given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_realized_weights_reproduce_value(self, xs):
        x = np.array(xs)
        got = apply_l_estimator(_realized_weights(0.2, x), x)
        want = expectile_rows(0.2, x[None])[0]
        assert got == pytest.approx(want, abs=1e-9 * (1 + np.abs(x).max()))


def _kernel_blocks():
    """(m, n) blocks with ties, constant rows, t(2) rows, n = 2, and one
    non-contiguous block."""
    rng = np.random.default_rng(29)
    heavy = rng.standard_t(2.0, (12, 250)) * 10.0 ** rng.uniform(-3.0, 3.0, (12, 1))
    ties = np.round(rng.standard_normal((12, 40)), 1)
    constant = np.vstack([np.full(30, 1.5), np.zeros(30), np.full(30, -1e8)])
    near_constant = np.full((6, 100), 0.3) + 1e-15 * rng.standard_normal((6, 100))
    pairs = rng.standard_normal((20, 2))
    strided = np.asfortranarray(rng.standard_normal((16, 300)))[::2, ::3]
    return [heavy, ties, constant, near_constant, pairs, strided]


class TestBlockKernels:
    @pytest.mark.parametrize(
        "kernel, alpha",
        [(expectile_rows, 0.1), (expectile_rows, 0.5), (gaussian_plugin_rows, 0.025)],
    )
    def test_block_equals_each_row_alone(self, kernel, alpha):
        for block in _kernel_blocks():
            alone = np.concatenate([kernel(alpha, row[None]) for row in block])
            assert np.array_equal(kernel(alpha, block), alone)

    def test_residual_check_raises(self, monkeypatch):
        monkeypatch.setattr(estimators, "EXPECTILE_RESIDUAL_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="expectile residual"):
            expectile_rows(0.1, np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize(
        "kernel, block",
        [
            (expectile_rows, np.zeros((2, 0))),
            (expectile_rows, np.zeros(5)),
            (gaussian_plugin_rows, np.zeros((3, 1))),
            (gaussian_plugin_rows, np.array([[0.0, np.inf]])),
        ],
    )
    def test_kernels_check_their_blocks(self, kernel, block):
        with pytest.raises(ValueError):
            kernel(0.1, block)


class TestSpectra:
    def test_es_spectrum_integral_equals_es2_bitwise(self):
        s = es_spectrum(ALPHA)
        for n in (50, 100, 250):
            built = build_spectral_weights(s, n).weights
            direct = build_estimator("es2", ALPHA, n).weights
            assert np.array_equal(built, direct)

    def test_es_spectrum_alternative_equals_es1_bitwise(self):
        s = es_spectrum(ALPHA)
        for n in (100, 250):
            built = build_spectral_weights_alt(s, n).weights
            direct = build_estimator("es1", ALPHA, n).weights
            assert np.array_equal(built, direct)

    def test_uniform_spectrum_gives_equal_weights(self):
        w = build_spectral_weights(uniform_spectrum(), 10).weights
        assert np.allclose(w, 0.1, atol=1e-12)

    def test_cumulative_closed_form(self):
        s = es_spectrum(0.1)
        assert s.cumulative(0.05) == pytest.approx(0.5, abs=1e-12)
        assert s.cumulative(0.1) == pytest.approx(1.0, abs=1e-12)
        assert s.cumulative(0.7) == pytest.approx(1.0, abs=1e-12)

    def test_es_cells_match_quadrature(self):
        # an independent check of the closed-form cells: adaptive quadrature
        # of phi over each cell, told where the jump at alpha sits
        alpha, n = 0.1, 50
        s = es_spectrum(alpha)
        edges = np.arange(n + 1) / n
        byquad = [
            integrate.quad(s.evaluator, lo, hi, points=[alpha], limit=100, epsabs=1e-10)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert np.allclose(build_spectral_weights(s, n).weights, byquad, atol=1e-10)

    def test_rejects_increasing_density(self):
        with pytest.raises(ValueError):
            SpectrumSpec(
                evaluator=lambda t: 2.0 * t,
                name="rising",
                sup_bound=2.0,
                cells=lambda n: (2.0 * np.arange(1, n + 1) - 1.0) / n**2,
                integral=lambda t: t * t,
            )

    def test_rejects_wrong_mass(self):
        with pytest.raises(ValueError):
            SpectrumSpec(
                evaluator=lambda t: 0.5,
                name="half",
                sup_bound=0.5,
                cells=lambda n: np.full(n, 0.5 / n),
                integral=lambda t: 0.5 * t,
            )

    def test_spectral_weights_are_monotone_vectors(self):
        w = build_spectral_weights(es_spectrum(0.025), 250)
        assert isinstance(w, WeightVector)
        assert w.monotone_flag


class TestTailEvaluators:
    def test_var_counterexample_inputs(self):
        x = np.zeros(100)
        x[0] = -100.0
        assert tail_levels([0.01], x)[0][0] == 0.0

    def test_es1_hand_value(self):
        _, es1, _ = tail_levels([0.5], np.array([4.0, 3.0, 1.0, 2.0]))[0]
        assert es1 == -1.5

    def test_es2_matches_weight_builder(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        spec = build_estimator("es2", 0.025, 40)
        want = apply_l_estimator(spec.weights, x)
        assert tail_levels([0.025], x)[0][2] == pytest.approx(want, abs=1e-12)

    def test_var_matches_weight_builder(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=100)
        spec = build_estimator("var", 0.05, 100)
        want = apply_l_estimator(spec.weights, x)
        assert tail_levels([0.05], x)[0][0] == pytest.approx(want, abs=1e-12)


def _tail_samples():
    """{id: (alpha, rows)}: normal rows at three (alpha, n), then rows with
    ties, a fractional and an integral boundary, t(2) tails, n = 2, and
    n = 50 000."""
    cases = {
        f"{alpha}-{n}": (alpha, np.random.default_rng(5).standard_normal((6, n)))
        for alpha, n in ((0.025, 250), (0.1, 40), (0.2, 10))
    }
    rng = np.random.default_rng(2024)
    cases.update(
        ties=(0.1, rng.integers(-3, 3, size=(12, 40)).astype(float)),
        fractional=(0.0123, rng.standard_normal((9, 250))),
        integral=(0.025, rng.standard_normal((9, 240))),
        t2=(0.025, rng.standard_t(2.0, size=(10, 250))),
        n2=(0.5, rng.standard_normal((7, 2))),
        wide=(0.025, rng.standard_normal((4, 50_000))),
    )
    return cases


# (var, es1, es2) as float.hex, recorded from the row-block tail kernel this
# one replaced, at the levels given: a 10^6-draw normal at 2.5% and then 1%
# (the 1% values read from sub-partitions of the 2.5% partition), and a
# 250-draw t(3) at alpha*n = 3.075, a fractional boundary
TAIL_BITS = {
    "normal": (
        (0.025, 0.01),
        lambda rng: rng.standard_normal(1_000_000),
        [
            ("0x1.f5531e243f3edp+0", "0x1.2aedb5a1a3593p+1", "0x1.2aedb5a1a3593p+1"),
            ("0x1.29a5a7e8a1055p+1", "0x1.546dddbabe756p+1", "0x1.546dddbabe756p+1"),
        ],
    ),
    "t3": (
        (0.0123,),
        lambda rng: rng.standard_t(3.0, 250),
        [("0x1.4ca62e0251412p+2", "0x1.c9cd56979b75fp+2", "0x1.c6bfe5364eb94p+2")],
    ),
}


class TestTailRows:
    @pytest.mark.parametrize("case", list(TAIL_BITS))
    def test_keeps_the_recorded_bits(self, case):
        levels, draw, want = TAIL_BITS[case]
        got = tail_levels(levels, draw(np.random.default_rng(20261019)))
        assert [tuple(v.hex() for v in values) for values in got] == want

    def test_partitions_the_sample_in_place(self):
        x = np.array([3.0, -2.0, 1.0, -4.0, 0.5])
        tail_levels([0.4], x)
        assert sorted(x[:2]) == [-4.0, -2.0] and x[2] == 0.5

    def test_fractional_boundary_weight(self):
        # alpha*n = 1.5: es2 puts weight 1 on x_(1) and 1/2 on x_(2)
        var, es1, es2 = tail_levels([0.375], np.array([3.0, -2.0, 1.0, -4.0]))[0]
        assert (var, es1, es2) == (2.0, 4.0, -(-4.0 - 1.0) / 1.5)

    @pytest.mark.parametrize("alpha, n", [(0.01, 50), (1.0 - 1e-12, 20)])
    def test_rejects_an_empty_or_full_tail(self, alpha, n):
        k = estimators._snapped_split(alpha * n)[0]
        with pytest.raises(ValueError, match=rf"got {k} at n = {n}$"):
            tail_split(alpha, n)
        with pytest.raises(ValueError, match=rf"got {k} at n = {n}$"):
            tail_levels([0.1, alpha], np.zeros(n))

    @pytest.mark.parametrize("case", list(_tail_samples()))
    @pytest.mark.parametrize("name", ["var", "es1", "es2"])
    def test_matches_the_weight_estimators(self, name, case):
        alpha, rows = _tail_samples()[case]
        weights = build_estimator(name, alpha, rows.shape[1]).weights
        column = ("var", "es1", "es2").index(name)
        got = [tail_levels([alpha], row.copy())[0][column] for row in rows]
        want = [apply_l_estimator(weights, row) for row in rows]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


class TestEvaluationSemantics:
    def test_estimate_is_negative_weighted_tail(self):
        # hand check: losses are the smallest order statistics, risk is positive
        x = np.array([-5.0, 1.0, 1.0, 1.0] + [1.0] * 36)
        v = apply_l_estimator(build_estimator("es1", 0.025, 40).weights, x)
        assert v == 5.0  # single tail cell picks the worst outcome

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_callable_matches_evaluate(self, seed):
        # the one-row block of the block kernel is the per-sample evaluation
        rng = np.random.default_rng(seed)
        x = rng.normal(size=250)
        spec = build_estimator("es3", ALPHA, N)
        assert spec.rows(x[None])[0] == apply_l_estimator(spec.weights, x)
