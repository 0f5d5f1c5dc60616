import math
import threading

import numpy as np
import pytest
from scipy import stats
from test_acceptance import apply_l_estimator, check_partial_integrals
from test_bench import tiny_config
from test_distributions import nig_mixture, sample, scipy_nig

from riskbench import bench, consistency
from riskbench.consistency import (
    ConsistencyRow,
    SpectrumSpec,
    build_spectral_weights,
    build_spectral_weights_alt,
    empirical_consistency,
    es_spectrum,
    uniform_spectrum,
)
from riskbench.distributions import Nig, Normal, StudentT, parse_dist, true_risk
from riskbench.sampling import RandomnessContract

ALPHA = 0.025


class TestPartialIntegrals:
    def test_integral_builder_is_exact_on_cell_boundaries(self):
        spectrum = es_spectrum(ALPHA)
        n = 200
        grid = [k / n for k in range(1, n + 1, 13)]
        errs = check_partial_integrals(spectrum, "integral", grid, [n])
        assert errs[n] <= 1e-12

    def test_error_bounded_by_sup_over_n(self):
        spectrum = es_spectrum(ALPHA)
        grid = list(np.linspace(0.001, 1.0, 113))
        errs = check_partial_integrals(spectrum, "integral", grid, [100, 1000, 10_000])
        sup = 1.0 / ALPHA
        for n, err in errs.items():
            assert err <= sup / n + 1e-12

    def test_error_shrinks_with_n(self):
        # the step density deviates from phi only inside the cell containing
        # alpha, so probe the middle of that cell; sizes are chosen with
        # fractional alpha*n because integer alpha*n makes the builder exact
        spectrum = es_spectrum(ALPHA)
        errs = {}
        for n in (130, 1310, 13_010):
            probe = (np.floor(ALPHA * n) + 0.5) / n
            errs[n] = check_partial_integrals(spectrum, "integral", [probe], [n])[n]
        assert errs[130] > errs[1310] > errs[13_010] > 1e-9

    def test_exact_when_alpha_n_is_integer(self):
        spectrum = es_spectrum(ALPHA)
        grid = list(np.linspace(0.001, 1.0, 229))
        errs = check_partial_integrals(spectrum, "integral", grid, [1000, 10_000])
        assert all(err <= 1e-12 for err in errs.values())


class TestEmpirical:
    def test_median_error_ladder_decreases(self):
        spectrum = es_spectrum(ALPHA)
        rows = empirical_consistency(
            Normal(), spectrum, "integral", [100, 1000, 10_000], reps=30, seed=0
        )
        assert [r.n for r in rows] == [100, 1000, 10_000]
        meds = [r.median_abs_error for r in rows]
        assert meds[0] > meds[1] > meds[2]
        assert all(r.iqr >= 0.0 for r in rows)

    @pytest.mark.parametrize("dist", ["normal:0:1", "t:5", "nig:0.4:0.14:0:1"])
    def test_uniform_ladder_falls(self, dist):
        # the sample mean is scored against -E[X], so its error shrinks like
        # 1/sqrt(n) instead of levelling off at the distance to the ES
        rows = empirical_consistency(
            parse_dist(dist), uniform_spectrum(), "integral", [100, 1000, 10_000],
            reps=30, seed=0,
        )
        meds = [r.median_abs_error for r in rows]
        assert meds[0] > meds[1] > meds[2]
        assert meds[2] < 0.05

    @pytest.mark.parametrize(
        "text, target",
        # nig:0.4:0.14:0:1 has mean delta*b/gamma = 0.37363...
        [("nig:0.4:0.14:0:1", -0.37363), ("normal:0.3:2", -0.3), ("t:5", 0.0)],
        ids=["nig:0.4:0.14:0:1", "normal:0.3:2", "t:5"],
    )
    def test_uniform_target_is_the_negated_mean(self, text, target):
        # a sample of 10^5 scores the mean within a few standard errors (sd
        # 1.7 / 316 for the NIG, 2 / 316 for the normal, 1.3 / 316 for the t)
        dist = parse_dist(text)
        (row,) = empirical_consistency(
            dist, uniform_spectrum(), "integral", [100_000], reps=5, seed=2
        )
        assert -dist.mean == pytest.approx(target, abs=1e-4)
        assert row.median_abs_error < 0.03

    def test_a_spectrum_is_scored_against_its_own_risk(self):
        # a spectrum built outside the library: the sample mean, whose
        # estimates of a standard normal lie within 1 of 0, scored against a
        # risk of 100, which the ladder asks for once
        flat = uniform_spectrum()
        asked = []

        def risk(dist):
            asked.append(dist)
            return 100.0

        other = SpectrumSpec(flat.evaluator, "flat", risk, flat.cells, flat.integral)
        dist = Normal()
        rows = empirical_consistency(dist, other, "integral", [100, 1000], reps=5, seed=0)
        assert asked == [dist]
        assert all(99.0 < row.median_abs_error < 101.0 for row in rows)

    def test_deterministic_given_seed(self):
        spectrum = es_spectrum(ALPHA)
        a = empirical_consistency(Normal(), spectrum, "integral", [200], reps=10, seed=3)
        b = empirical_consistency(Normal(), spectrum, "integral", [200], reps=10, seed=3)
        assert a[0].median_abs_error == b[0].median_abs_error
        assert a[0].iqr == b[0].iqr

    @pytest.mark.parametrize("builder", ["integral", "alternative"])
    @pytest.mark.parametrize(
        "dist", [Normal(), StudentT(5.0), Nig(0.4, 0.14)], ids=lambda d: d.label
    )
    def test_replications_draw_from_their_named_streams(self, monkeypatch, dist, builder):
        # the es rows sort only their weighted head, the uniform row (every
        # weight non-zero) its whole sample; both match a full sort bit for
        # bit, in the calling thread and split over three threads
        build = {"integral": build_spectral_weights, "alternative": build_spectral_weights_alt}
        contract = RandomnessContract(11)
        ladders = (
            (es_spectrum(ALPHA), [100, 300], true_risk(dist, ALPHA).es_alpha),
            (uniform_spectrum(), [200], -dist.mean),
        )
        for cpus in (1, 3):
            monkeypatch.setattr(consistency, "_usable_cpus", lambda cpus=cpus: cpus)
            for spectrum, sizes, reference in ladders:
                assert spectrum.risk(dist) == reference
                rows = empirical_consistency(dist, spectrum, builder, sizes, reps=7, seed=11)
                for row in rows:
                    w = build[builder](spectrum, row.n)
                    tag = f"consistency|{spectrum.name}-{builder}|n={row.n}"
                    errors = [
                        abs(
                            apply_l_estimator(w, sample(dist, row.n, contract.stream(tag, rep)))
                            - reference
                        )
                        for rep in range(7)
                    ]
                    q25, q50, q75 = np.percentile(errors, [25.0, 50.0, 75.0])
                    assert row.median_abs_error == float(q50)
                    assert row.iqr == float(q75 - q25)

    def test_the_head_sort_does_not_lean_on_the_partition_order(self):
        # past kth a partition may leave the values in any order, but numpy's
        # AVX-512 partition leaves element kth + 1 sorted too, where a head
        # one short would score it unseen: this row reverses the values past kth
        class TailReversed(np.ndarray):
            def partition(self, kth, axis=-1, **kwargs):
                super().partition(kth, axis=axis, **kwargs)
                tail = self[..., kth + 1 :]
                tail[...] = tail[..., ::-1].copy()

        class TailReversedNormal(Normal):
            def transform(self, raw):
                return super().transform(raw).view(TailReversed)

        for builder in ("integral", "alternative"):
            ladder = (es_spectrum(ALPHA), builder, [100, 1000], 7, 5)
            rows = empirical_consistency(TailReversedNormal(), *ladder)
            assert rows == empirical_consistency(Normal(), *ladder)

    def test_quartiles_match_numpy_percentile_bit_for_bit(self):
        # errors of every size a ladder may have, over twelve decades of
        # magnitude, some rounded so that neighbours tie
        rng = np.random.default_rng(38)
        for size in range(2, 300):
            for _ in range(6):
                errors = np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-12.0, 3.0)
                if rng.random() < 0.3:
                    errors = np.round(errors, int(rng.integers(0, 3)))
                want = np.percentile(errors, [25.0, 50.0, 75.0])
                got = consistency._quartiles(errors)
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_a_ladder_leaves_no_thread_behind(self, monkeypatch):
        # a study forks its workers only while no other thread is alive, so
        # a leaked pool thread would make every later study serial
        threads = threading.active_count()
        monkeypatch.setattr(consistency, "_usable_cpus", lambda: 3)
        empirical_consistency(
            Normal(), es_spectrum(ALPHA), "integral", [100, 1000], reps=7, seed=0
        )
        assert threading.active_count() == threads
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        assert bench.run_study(tiny_config(k=300)).metadata["timings"]["workers"] == 2

    def test_needs_sizes(self):
        spectrum = es_spectrum(ALPHA)
        with pytest.raises(ValueError, match="need at least one sample size"):
            empirical_consistency(Normal(), spectrum, "integral", [], reps=5, seed=5)

    def test_row_type(self):
        spectrum = es_spectrum(ALPHA)
        rows = empirical_consistency(
            Normal(), spectrum, "alternative", [100], reps=5, seed=5
        )
        assert isinstance(rows[0], ConsistencyRow)

    def test_a_row_that_is_not_finite_is_refused(self):
        with pytest.raises(ValueError, match="^median_abs_error at n=100 is nan, not finite$"):
            ConsistencyRow(100, float("nan"), 1.0)
        with pytest.raises(ValueError, match="^iqr at n=7 is inf, not finite$"):
            ConsistencyRow(7, 1.0, float("inf"))


def _lower_normal(z):
    """E[(z - Z)^+] and E[((z - Z)^+)^2] for a standard normal Z."""
    cdf, pdf = stats.norm.cdf(z), stats.norm.pdf(z)
    return z * cdf + pdf, (z * z + 1.0) * cdf + z * pdf


def _lower_partial_moments(dist, q):
    """E[(q - X)^+] and E[((q - X)^+)^2]: in closed form for the normal and
    the t, for the NIG by nig_mixture over X given V, a normal."""
    if isinstance(dist, Normal):
        m1, m2 = _lower_normal((q - dist.mu) / dist.sigma)
        return dist.sigma * m1, dist.sigma**2 * m2
    if isinstance(dist, StudentT):
        # E[T; T <= q] = -(nu + q^2) f(q) / (nu - 1); E[T^2; T <= q] from
        # t^2 = nu * (1 + t^2 / nu) - nu, where (1 + t^2 / nu) f(t) is a
        # rescaled t(nu - 2) density
        nu = dist.nu
        cdf = stats.t.cdf(q, nu)
        t1 = -(nu + q * q) * stats.t.pdf(q, nu) / (nu - 1.0)
        wider = stats.t.cdf(q * math.sqrt((nu - 2.0) / nu), nu - 2.0)
        t2 = nu * ((nu - 1.0) / (nu - 2.0) * wider - cdf)
        return q * cdf - t1, q * q * cdf - 2.0 * q * t1 + t2
    m1 = nig_mixture(dist, [q], lambda z, v: np.sqrt(v) * _lower_normal(z)[0])[0]
    m2 = nig_mixture(dist, [q], lambda z, v: v * _lower_normal(z)[1])[0]
    return m1, m2


def _variance(dist):
    if isinstance(dist, Normal):
        return dist.sigma**2
    if isinstance(dist, StudentT):
        return dist.nu / (dist.nu - 2.0)
    return nig_mixture(dist, [dist.mean], lambda z, v: v * (z * z + 1.0))[0]


def test_partial_moments_match_quadrature():
    for dist, law in (
        (Normal(0.3, 2.0), stats.norm(0.3, 2.0)),
        (StudentT(5.0), stats.t(5.0)),
        (Nig(0.4, 0.14), scipy_nig(Nig(0.4, 0.14))),
    ):
        for level in (0.01, 0.025, 0.3):
            q = float(law.ppf(level))
            want = [law.expect(lambda x, k=k: (q - x) ** k, ub=q) for k in (1, 2)]
            assert _lower_partial_moments(dist, q) == pytest.approx(want, rel=1e-8)
        assert _variance(dist) == pytest.approx(law.var(), rel=1e-10)


class TestCentralLimit:
    SEED = 23  # fixed before any ratio was seen
    REPS = 200

    @staticmethod
    def sigma(dist, spectrum):
        """sigma_phi, the limit sd of sqrt(n) * (estimate - risk). The ES at
        alpha is -(alpha * q - E[(q - X)^+]) / alpha with q the alpha-quantile,
        and the sample version moves with q only to second order, so
        sigma_phi = sd((q - X)^+) / alpha; the sample mean's is sd(X)."""
        if spectrum.name == "uniform":
            return math.sqrt(_variance(dist))
        q = float(scipy_nig(dist).ppf(ALPHA)) if isinstance(dist, Nig) else dist.quantile(ALPHA)
        m1, m2 = _lower_partial_moments(dist, q)
        return math.sqrt(m2 - m1 * m1) / ALPHA

    def test_median_error_matches_the_normal_limit(self):
        """Each ladder's median |error| over 0.6745 * sigma_phi / sqrt(n),
        the median |error| of its normal limit, lies within four standard
        errors of 1. The sample median of 200 |N(0, s^2)| has sd
        s / (4 phi(0.6745) sqrt(200)), 8.2% of 0.6745 s, so the band is
        about 1 +- 0.33: it catches a wrong variance or a gross bias, not a
        2% level error (es weights built at 1.02 alpha gave 1.20-1.44 only
        at n = 10^5)."""
        z = stats.norm.ppf(0.75)
        se = 1.0 / (4.0 * stats.norm.pdf(z) * z * math.sqrt(self.REPS))
        ratios = {}
        for dist in (Normal(), StudentT(5.0), Nig(0.4, 0.14)):
            for spectrum in (es_spectrum(ALPHA), uniform_spectrum()):
                sigma = self.sigma(dist, spectrum)
                rows = empirical_consistency(
                    dist, spectrum, "integral", [1000, 10_000], self.REPS, self.SEED
                )
                for row in rows:
                    key = f"{dist.label} {spectrum.name} n={row.n}"
                    ratios[key] = row.median_abs_error / (z * sigma / math.sqrt(row.n))
        outside = {key: r for key, r in ratios.items() if abs(r - 1.0) > 4.0 * se}
        assert not outside, f"outside 1 +- {4.0 * se:.3f}: {outside}; all: {ratios}"


def test_unknown_discretization_is_named():
    spectrum = es_spectrum(ALPHA)
    with pytest.raises(ValueError, match="unknown discretization 'midpoint'"):
        check_partial_integrals(spectrum, "midpoint", [0.5], [10])
    with pytest.raises(ValueError, match="unknown discretization 'midpoint'"):
        empirical_consistency(Normal(), spectrum, "midpoint", [100], reps=5, seed=0)
