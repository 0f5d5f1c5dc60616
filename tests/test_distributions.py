import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr

from riskbench import distributions
from riskbench.bench import BenchConfig, run_study
from riskbench.distributions import (
    HorizonSum,
    Nig,
    Normal,
    StudentT,
    TrueRisk,
    inverse_gaussian_transform,
    nig_moments,
    parse_dist,
    true_risk,
    true_risk_levels,
)
from riskbench.estimators import _normal_density_at_quantile


def sample(dist, size, rng):
    """size variates of dist: its transform of its raw draws."""
    raw = tuple(np.empty(size) for _ in range(dist.RAW_ARRAYS))
    dist.draw(rng, raw, ...)
    return dist.transform(raw)


class TestClosedForms:
    def test_standard_normal_values(self):
        assert -Normal().quantile(0.01) == pytest.approx(2.3263478740408408, abs=1e-12)
        assert -Normal().quantile(0.025) == pytest.approx(1.9599639845400545, abs=1e-12)
        assert Normal().es(0.025) == pytest.approx(2.337802792201413, abs=1e-12)

    def test_normal_affine_equivariance(self):
        d = Normal(mu=1.5, sigma=2.0)
        assert d.quantile(0.05) == pytest.approx(
            2.0 * Normal().quantile(0.05) + 1.5, abs=1e-12
        )
        assert d.es(0.05) == pytest.approx(2.0 * Normal().es(0.05) - 1.5, abs=1e-12)

    def test_quantile_is_vectorized(self):
        # the tests' order-statistic oracle evaluates it on arrays of levels;
        # each element keeps the bits of the scalar call that VaR makes
        u = np.array([0.001, 0.025, 0.5, 0.9])
        d = StudentT(5.0)
        assert [q.hex() for q in d.quantile(u)] == [d.quantile(v).hex() for v in u]

    def test_student_t_values(self):
        assert -StudentT(5.0).quantile(0.025) == pytest.approx(2.5705818356363146, abs=1e-12)
        assert StudentT(5.0).es(0.025) == pytest.approx(3.521577331739428, abs=1e-12)

    def test_student_t_es_against_quantile_integral(self):
        # ES_a = -(1/a) int_0^a F^{-1}(u) du, evaluated by adaptive quadrature
        alpha, nu = 0.025, 5.0
        integral, err = integrate.quad(lambda u: stats.t.ppf(u, nu), 1e-12, alpha)
        assert err < 1e-8
        assert StudentT(nu).es(alpha) == pytest.approx(-integral / alpha, abs=1e-6)

    def test_es_dominates_var(self):
        for alpha in (0.01, 0.025, 0.1):
            for d in (Normal(), StudentT(7.0)):
                assert d.es(alpha) > -d.quantile(alpha)

    def test_student_t_needs_finite_mean(self):
        with pytest.raises(ValueError):
            StudentT(1.0)

    # at 0.22 a scalar q**2 (pow) and q*q (how numpy squares arrays) differ
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.025, 0.05, 0.2, 0.22, 0.5])
    def test_closed_forms_keep_the_bits_of_scipy_stats(self, alpha):
        # the closed forms come from scipy.special; each value must equal the
        # scipy.stats expression it replaced, bit for bit (VaR is the negated
        # quantile: negation commutes with rounding to nearest)
        d = Normal(mu=0.3, sigma=1.7)
        density = stats.norm.pdf(stats.norm.ppf(alpha))
        pairs = [
            (_normal_density_at_quantile(alpha), float(density)),
            (-d.quantile(alpha), float(-d.mu - d.sigma * stats.norm.ppf(alpha))),
            (d.es(alpha), float(-d.mu + d.sigma * density / alpha)),
        ]
        for nu in (1.5, 3.0, 4.0, 5.0, 10.0, 100.0):
            q = stats.t.ppf(alpha, nu)
            pairs.append((-StudentT(nu).quantile(alpha), float(-q)))
            pairs.append((
                StudentT(nu).es(alpha),
                float(stats.t.pdf(q, nu) * (nu + q * q) / (alpha * (nu - 1.0))),
            ))
        assert [new.hex() for new, _ in pairs] == [old.hex() for _, old in pairs]


FINITE = st.floats(min_value=-1e300, max_value=1e300)
POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def nigs(draw):
    b = draw(FINITE)
    a = draw(st.floats(min_value=abs(b), max_value=1e301, exclude_min=True))
    return Nig(a, b, draw(FINITE), draw(POSITIVE))


DISTRIBUTIONS = st.one_of(
    st.builds(Normal, FINITE, POSITIVE),
    st.builds(StudentT, st.floats(min_value=1.0, max_value=1e300, exclude_min=True)),
    nigs(),
)


class TestLabels:
    @pytest.mark.parametrize(
        "text",
        # the last one would share normal:0:1 at six significant digits
        ["normal:0:1", "t:5", "nig:0.4:0.14:0:1", "nig:0.55:-0.3025:0:1", "normal:0:1.0000001"],
    )
    def test_round_trip(self, text):
        assert parse_dist(text).label == text

    @settings(max_examples=200, deadline=None)
    @given(dist=DISTRIBUTIONS)
    def test_label_parses_back_to_the_distribution(self, dist):
        assert parse_dist(dist.label) == dist

    @pytest.mark.parametrize("base", [Normal(), Nig(0.4, 0.14), HorizonSum(StudentT(5.0), 2)])
    def test_horizon_sum_takes_a_student_t_only(self, base):
        # normal and NIG sums have closed forms, so horizon never builds one
        with pytest.raises(ValueError, match=r"^base must be a StudentT"):
            HorizonSum(base, 10)

    def test_rejects_garbage(self):
        for bad in ("gaussian", "t", "nig:1", "normal:a:b", ""):
            with pytest.raises(ValueError):
                parse_dist(bad)


class TestNigMoments:
    def test_against_scipy_parametrization(self):
        # scipy's norminvgauss(a, b) equals our Nig(a, b) when delta = 1
        spec = Nig(0.4, 0.14)
        m, v, s, k = stats.norminvgauss.stats(0.4, 0.14, moments="mvsk")
        got = nig_moments(spec)
        assert got.mean == pytest.approx(float(m), rel=1e-10)
        assert got.variance == pytest.approx(float(v), rel=1e-10)
        assert got.skewness == pytest.approx(float(s), rel=1e-10)
        assert got.excess_kurtosis == pytest.approx(float(k), rel=1e-10)

    def test_gamma_and_sign(self):
        spec = Nig(0.4, -0.14)
        assert spec.gamma == pytest.approx(np.sqrt(0.4**2 - 0.14**2), abs=1e-15)
        assert nig_moments(spec).skewness < 0.0

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            Nig(0.4, 0.5)
        with pytest.raises(ValueError):
            Nig(-1.0, 0.0)
        with pytest.raises(ValueError):
            Nig(0.4, 0.1, 0.0, -2.0)


# computed once: each computation takes tens of milliseconds, and a
# quantile by Newton steps takes a few mixture expectations per step
_NIG_NODES, _NIG_WEIGHTS = np.polynomial.legendre.leggauss(600)


def nig_mixture(spec, q, kernel):
    """E[kernel(z, V)] at each q, z = (q - mu - b*V) / sqrt(V), V inverse
    Gaussian of mean delta/gamma and shape delta^2 (Barndorff-Nielsen 1997):
    600 Gauss-Legendre nodes in log V on [log(delta/gamma) - 14,
    log(delta/gamma) + 6]."""
    mean, shape = spec.delta / spec.gamma, spec.delta**2
    half = 10.0
    v = np.exp(np.log(mean) - 4.0 + half * _NIG_NODES)
    density = np.sqrt(shape / (2.0 * np.pi * v**3)) * np.exp(
        -shape * (v - mean) ** 2 / (2.0 * mean**2 * v)
    )
    weights = half * _NIG_WEIGHTS * density * v  # dV = V d(log V)
    q = np.asarray(q, dtype=float)  # 1-D; about 1 000 points x 600 nodes at a time
    return np.concatenate(
        [
            kernel((block[:, None] - spec.mu - spec.b * v) / np.sqrt(v), v) @ weights
            for block in np.array_split(q, max(1, q.size // 1000))
        ]
    )


def nig_cdf(spec, q):
    """F(q) = E[Phi(z)], see nig_mixture."""
    return nig_mixture(spec, q, lambda z, v: ndtr(z))


class TestSamplers:
    def test_inverse_gaussian_moments(self):
        rng = np.random.default_rng(0)
        mean, shape = 1.7, 2.3
        y = inverse_gaussian_transform(
            mean, shape, rng.standard_normal(400_000), rng.random(400_000)
        )
        assert np.all(y > 0.0)
        assert y.mean() == pytest.approx(mean, rel=0.01)
        assert y.var() == pytest.approx(mean**3 / shape, rel=0.03)

    def test_nig_sample_matches_moments(self):
        spec = Nig(0.55, 0.3025)
        rng = np.random.default_rng(1)
        y = sample(spec, 400_000, rng)
        want = nig_moments(spec)
        assert y.mean() == pytest.approx(want.mean, abs=4 * np.sqrt(want.variance / y.size))
        assert y.var() == pytest.approx(want.variance, rel=0.05)
        assert stats.skew(y) == pytest.approx(want.skewness, abs=0.1)

    def test_nig_mixture_cdf_matches_scipy(self):
        q = np.linspace(-8.0, 6.0, 9)
        want = stats.norminvgauss.cdf(q, 0.4, 0.14)
        assert np.max(np.abs(nig_cdf(Nig(0.4, 0.14), q) - want)) < 1e-12

    def test_nig_sample_distribution(self):
        spec = Nig(0.4, 0.14)
        rng = np.random.default_rng(2)
        y = sample(spec, 20_000, rng)
        stat = stats.kstest(y, lambda q: nig_cdf(spec, q))
        assert stat.pvalue > 1e-3

    @pytest.mark.parametrize("spec", [Nig(0.4, 0.14), Nig(0.55, -0.3025, 0.2, 1.5)])
    def test_nig_sample_rounds_like_the_mixture_formula(self, spec):
        # the transform works in place; each value must round exactly as the
        # textbook expressions on the same draws (y, u, then z)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(50_000) ** 2
        u = rng.random(50_000)
        z = rng.standard_normal(50_000)
        mean, shape = spec.delta / spec.gamma, spec.delta**2
        half = mean / (2.0 * shape)
        x = mean + half * (mean * y - np.sqrt(4.0 * mean * shape * y + (mean * y) ** 2))
        v = np.where(u <= mean / (mean + x), x, mean * mean / x)
        want = spec.mu + spec.b * v + np.sqrt(v) * z
        got = sample(spec, 50_000, np.random.default_rng(8))
        assert np.array_equal(got, want)

    def test_sample_dispatch_normal_scaling(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = sample(Normal(2.0, 3.0), 100, rng1)
        b = 2.0 + 3.0 * rng2.standard_normal(100)
        assert np.array_equal(a, b)

    def test_sample_dispatch_horizon_sum(self):
        # only the oracle draws h-day sums; the study sums its own rows
        y = distributions._oracle_sample(HorizonSum(StudentT(4.0), 10), 50_000, 6)
        # sum of 10 iid t(4): variance 10 * nu/(nu-2) = 20
        assert y.mean() == pytest.approx(0.0, abs=0.1)
        assert y.var() == pytest.approx(20.0, rel=0.1)

    @pytest.mark.parametrize(
        "dist", [HorizonSum(StudentT(4.0), 10), HorizonSum(StudentT(5.0), 1)]
    )
    def test_t_oracle_keeps_the_bits_of_chi_square_draws(self, dist):
        # the t value z * sqrt(nu / w), w chi-square, each day drawn whole:
        # all w first, then all z. A half that is not a whole number of
        # chunks leaves a short last chunk
        half = 3 * distributions._ORACLE_CHUNK + 108
        rng = np.random.default_rng(6)
        total = np.zeros(half)
        for _ in range(dist.h):
            w = rng.chisquare(dist.base.nu, half)
            total += rng.standard_normal(half) * np.sqrt(dist.base.nu / w)
        want = np.empty(2 * half)
        want[0::2], want[1::2] = total, -total
        assert np.array_equal(distributions._oracle_sample(dist, 2 * half, 6), want)


class TestHorizon:
    def test_convolution_parameters(self):
        out = Nig(0.4, 0.14, 0.3, 1.0).horizon(10)
        assert out == Nig(0.4, 0.14, 3.0, 10.0)

    def test_convolution_matches_summed_moments(self):
        one = nig_moments(Nig(0.4, -0.22))
        ten = nig_moments(Nig(0.4, -0.22).horizon(10))
        assert ten.mean == pytest.approx(10 * one.mean, rel=1e-12)
        assert ten.variance == pytest.approx(10 * one.variance, rel=1e-12)

    def test_target_dispatch(self):
        assert Normal(0.2, 1.0).horizon(4) == Normal(0.8, 2.0)
        assert StudentT(5.0).horizon(10) == HorizonSum(StudentT(5.0), 10)
        assert Nig(0.4, 0.14).horizon(10) == Nig(0.4, 0.14, 0.0, 10.0)
        d = StudentT(5.0)
        assert d.horizon(1) is d
        for d in (Normal(0.2, 1.5), Nig(0.4, 0.14, 0.3, 1.2)):
            assert d.horizon(1) == d

    @pytest.mark.parametrize(
        "target, passes",
        [
            (Normal(0.2, 1.0), 0),
            (StudentT(5.0), 0),
            (Nig(0.4, 0.14), 1),
            (HorizonSum(StudentT(5.0), 10), 10),
            (HorizonSum(StudentT(5.0), 3), 3),
        ],
    )
    def test_oracle_passes(self, target, passes):
        # closed forms cost nothing, an h-day sum one pass per day
        assert target.oracle_passes == passes


class TestTrueRisk:
    def test_closed_forms_are_used(self):
        tr = true_risk(Normal(), 0.025)
        assert tr.method == "closed_form"
        assert tr.standard_error == 0.0
        assert tr.es_alpha == pytest.approx(2.337802792201413, abs=1e-12)

    def test_oracle_is_deterministic(self):
        a = true_risk(Nig(0.4, 0.14), 0.025, oracle_k=100_000, seed=3)
        b = true_risk(Nig(0.4, 0.14), 0.025, oracle_k=100_000, seed=3)
        assert a.es_alpha == b.es_alpha
        assert a.var_alpha == b.var_alpha

    def test_oracle_k_rounds_up_to_whole_batches(self):
        tr = true_risk(Nig(0.4, 0.14), 0.1, oracle_k=4001, seed=0)
        assert tr.oracle_k == 4040

    # the plain t(5) is forced through the oracle as its one-day sum
    ORACLE_TARGETS = [
        Nig(0.4, 0.14),
        HorizonSum(StudentT(5.0), 10),
        HorizonSum(StudentT(5.0), 1),
    ]
    ORACLE_IDS = ["nig", "t5-10day", "t5-forced"]

    @pytest.mark.parametrize("dist", ORACLE_TARGETS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("levels", [[0.025, 0.01], [0.01, 0.025], [0.0123, 0.3, 0.005]])
    def test_later_levels_keep_var_and_se_bits(self, dist, levels):
        # one sample partitioned in place at the first level: the first
        # level's var, es and se, and every level's var and se, are those of
        # a one-level call; a later level's es sums another arrangement
        many = true_risk_levels(dist, levels, oracle_k=50_000, seed=7)
        assert list(many) == levels
        for j, a in enumerate(levels):
            one = true_risk_levels(dist, [a], oracle_k=50_000, seed=7)[a]
            got = many[a]
            assert (got.var_alpha, got.standard_error) == (one.var_alpha, one.standard_error)
            if j == 0:
                assert got.es_alpha == one.es_alpha
            else:
                assert got.es_alpha == pytest.approx(one.es_alpha, rel=1e-12, abs=0.0)
        # a deeper tail has the larger es
        es = [many[a].es_alpha for a in sorted(levels)]
        assert es == sorted(es, reverse=True)

    @pytest.mark.parametrize("dist", ORACLE_TARGETS, ids=ORACLE_IDS)
    def test_oracle_holds_one_sample_sized_array(self, dist):
        # drawn, transformed and partitioned inside one k-double buffer:
        # no stage holds a second sample-sized array
        k = 1_000_000
        tracemalloc.start()
        try:
            true_risk_levels(dist, [0.025, 0.01], oracle_k=k, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * k

    @pytest.mark.parametrize("alpha", [0.005, 0.025])
    def test_study_rows_do_not_depend_on_the_other_levels(self, alpha):
        # var1 adds the 1% level to the oracle, below 0.025 and above 0.005;
        # es1's rows hold either way. Read as a later level, the es at
        # alpha moves in the last bits in at least one of these four groups
        def es1_rows(estimators):
            config = BenchConfig(
                alpha=alpha,
                k=400,
                oracle_k=40_000,
                seed=3,
                distributions=("nig:0.4:0.14:0:1", "nig:0.4:-0.22:0:1"),
                schemes=("iid", "overlapping:10"),
                estimators=estimators,
            )
            return [r for r in run_study(config).rows if r.estimator == "es1"]

        assert es1_rows(("es1",)) == es1_rows(("var1", "es1"))

    # (var_alpha, es_alpha, standard_error) as float.hex at oracle_k = 100 000,
    # seed 0, recorded with one flat partition per oracle batch, a path
    # independent of the row-wise tail kernel; 0.0123 leaves a fractional
    # boundary weight in every batch of 5 000 draws, 0.025 none. The plain
    # t(5) reaches the oracle as its one-day sum (its closed form is its own
    # reference); its pins were recorded before it shared the h-day sums' day
    # loop
    ORACLE_BITS = {
        (Nig(0.4, 0.14), 0.0123): (
            "0x1.a68f5536af558p+1", "0x1.22940a1adad0ap+2", "0x1.7931cff3b6f21p-5"
        ),
        (Nig(0.4, 0.14), 0.025): (
            "0x1.46341b2c5c259p+1", "0x1.d83dfbef9010dp+1", "0x1.00b82e3421bdfp-5"
        ),
        (HorizonSum(StudentT(5.0), 10), 0.0123): (
            "0x1.2d16abaf1e868p+3", "0x1.6734805f1f9c5p+3", "0x1.2e3485f5221f1p-4"
        ),
        (HorizonSum(StudentT(5.0), 10), 0.025): (
            "0x1.02cb83914dc54p+3", "0x1.3d9412cac3540p+3", "0x1.b3dba20342667p-5"
        ),
        (HorizonSum(StudentT(5.0), 1), 0.0123): (
            "0x1.93a1d447f94f4p+1", "0x1.0f9579870e37cp+2", "0x1.96d24fa2c3570p-5"
        ),
        (HorizonSum(StudentT(5.0), 1), 0.025): (
            "0x1.4b17a4f139d3ep+1", "0x1.c365af39b3be4p+1", "0x1.00c2fd3038d2ep-5"
        ),
    }

    @pytest.mark.parametrize("dist, alpha", list(ORACLE_BITS))
    def test_oracle_bits_are_pinned(self, dist, alpha):
        tr = true_risk(dist, alpha, oracle_k=100_000)
        got = (tr.var_alpha.hex(), tr.es_alpha.hex(), tr.standard_error.hex())
        assert got == self.ORACLE_BITS[dist, alpha]

    @pytest.mark.parametrize("dist", [Normal(), Nig(0.4, 0.14)], ids=["closed-form", "oracle"])
    def test_no_level_fails_before_any_draw(self, monkeypatch, dist):
        def drawn(*args):
            raise AssertionError("the oracle sample was drawn")

        monkeypatch.setattr(distributions, "_oracle_sample", drawn)
        with pytest.raises(ValueError, match=r"^alphas must name at least one level$"):
            true_risk_levels(dist, [])

    def test_validation(self):
        with pytest.raises(ValueError):
            TrueRisk(var_alpha=2.0, es_alpha=1.0, method="closed_form", standard_error=0.0)
        with pytest.raises(ValueError):
            TrueRisk(var_alpha=1.0, es_alpha=2.0, method="guesswork", standard_error=0.0)

    def test_nig_skew_ordering(self):
        # the left-skewed twin carries the heavier loss tail
        neg = true_risk(Nig(0.4, -0.14), 0.025, oracle_k=200_000, seed=5)
        pos = true_risk(Nig(0.4, 0.14), 0.025, oracle_k=200_000, seed=5)
        assert neg.es_alpha > pos.es_alpha
