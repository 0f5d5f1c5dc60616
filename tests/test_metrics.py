import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from test_acceptance import apply_l_estimator
from test_distributions import nig_mixture, sample

from riskbench.core import score_sorted_rows
from riskbench.distributions import (
    Nig,
    Normal,
    StudentT,
    TrueRisk,
    nig_moments,
    parse_dist,
    true_risk,
)
from riskbench.estimators import _snapped_split, build_estimator, tail_levels, tail_split
from riskbench.metrics import (
    MetricReport,
    _evaluate_replications,
    _metrics_from,
    reference_value,
)
from riskbench.sampling import RandomnessContract, Scheme, parse_scheme

ALPHA = 0.1
N = 40
K = 600


def replay_draws(distribution, scheme, K, contract):
    """Replay the stream contract one replication at a time: a fresh stream
    per (tag, k), the local sample helper, and rolling sums by an explicit
    prefix sum. Returns (samples (K, n), companions (K,))."""
    tag = f"{distribution.label}|{scheme.label}"
    n, h = scheme.n, scheme.h
    samples = np.empty((K, n))
    companions = np.empty(K)
    for k in range(K):
        rng = contract.stream(f"sample|{tag}", k)
        base = sample(distribution, n + h - 1, rng)
        if base.size == n:
            samples[k] = base
        else:
            csum = np.concatenate(([0.0], np.cumsum(base)))
            samples[k] = csum[h:] - csum[:n]
        rng = contract.stream(f"companion|{tag}", k)
        companions[k] = float(np.sum(sample(distribution, h, rng)))
    return samples, companions


def naive_cell(distribution, scheme, estimators, K, contract):
    """The replayed draws scored one replication at a time, no vectorization."""
    samples, companions = replay_draws(distribution, scheme, K, contract)
    estimates = np.empty((K, len(estimators)))
    for k, row in enumerate(samples):
        for i, spec in enumerate(estimators):
            estimates[k, i] = apply_l_estimator(spec.weights, row)
    return estimates, companions


def naive_metrics(estimates, companions, alpha, reference):
    err = estimates - reference
    ae = np.mean(np.abs(err)) / reference
    se = math.sqrt(np.mean(err**2)) / reference
    sb = np.mean(estimates) / reference - 1.0
    secured = companions + estimates
    # es1 of the secured outcomes from the mean of a partitioned copy,
    # independent of the tail kernel the study reads
    m = _snapped_split(alpha * len(secured))[0]
    es1 = -np.mean(np.partition(secured, m)[:m])
    rb = -es1 / reference
    prefix = np.cumsum(np.sort(secured))
    hits = np.nonzero(prefix >= 0.0)[0]
    ct = (hits[0] + 1) / len(secured) if hits.size else 1.0
    return ae, se, sb, rb, ct


class TestAgainstNaiveReplay:
    def setup_method(self):
        self.contract = RandomnessContract(99)
        self.specs = [build_estimator("es1", ALPHA, N), build_estimator("es2", ALPHA, N)]
        self.estimators = self.specs + [build_estimator("var", ALPHA, N)]
        self.true = true_risk(Normal(), ALPHA)

    def test_vectorized_path_matches_replay(self):
        got_est, got_comp = _evaluate_replications(
            Normal(), Scheme(N, 1), self.estimators, range(K), self.contract
        )
        want_est, want_comp = naive_cell(Normal(), Scheme(N, 1), self.estimators, K, self.contract)
        assert np.array_equal(got_comp, want_comp)
        assert np.allclose(got_est, want_est, rtol=0.0, atol=1e-12)

    def test_group_metrics_match_replay(self):
        refs = [reference_value(e, self.true) for e in self.estimators]
        got_est, got_comp = _evaluate_replications(
            Normal(), Scheme(N, 1), self.estimators, range(K), self.contract
        )
        est, comp = naive_cell(Normal(), Scheme(N, 1), self.estimators, K, self.contract)
        for i, spec in enumerate(self.estimators):
            rep = _metrics_from(got_est[:, i], got_comp, spec.alpha, refs[i])
            ae, se, sb, rb, ct = naive_metrics(est[:, i], comp, ALPHA, refs[i])
            assert rep.ae == pytest.approx(ae, abs=1e-12)
            assert rep.se == pytest.approx(se, abs=1e-12)
            assert rep.sb == pytest.approx(sb, abs=1e-12)
            assert rep.rb == rb
            assert rep.ct == pytest.approx(ct, abs=1e-15)

    def test_group_membership_does_not_change_bits(self):
        solo, _ = _evaluate_replications(
            Normal(), Scheme(N, 1), [self.specs[0]], range(K), self.contract
        )
        grouped, _ = _evaluate_replications(
            Normal(), Scheme(N, 1), self.estimators, range(K), self.contract
        )
        assert np.array_equal(solo[:, 0], grouped[:, 0])

    def test_overlapping_scheme_same_contract(self):
        scheme = Scheme(N, 5)
        got_est, got_comp = _evaluate_replications(
            StudentT(5.0), scheme, self.specs, range(200), self.contract
        )
        want_est, want_comp = naive_cell(StudentT(5.0), scheme, self.specs, 200, self.contract)
        assert np.array_equal(got_comp, want_comp)
        assert np.allclose(got_est, want_est, rtol=0.0, atol=1e-12)


class TestBlockDraws:
    STUDY = [
        build_estimator(name, 0.025, 250)
        for name in ("var1", "es1", "es2", "es3", "es4", "es5", "es6")
    ]

    @pytest.mark.parametrize("scheme", ["iid", "overlapping:10"])
    @pytest.mark.parametrize("dist", ["normal:0:1", "t:5", "nig:0.4:0.14:0:1"])
    def test_block_path_equals_the_replay(self, dist, scheme):
        # raw draws per replication, transforms per block: every bit of the
        # rows and companions must match the one-replication replay. K = 300
        # gives tiles of 128, 128 and 44, so a partial tile is covered; the
        # replay scores its rows in the same tiles with the same kernel.
        distribution, sch = parse_dist(dist), parse_scheme(scheme, 250)
        K, tile, contract = 300, 128, RandomnessContract(2024)
        got_est, got_comp = _evaluate_replications(
            distribution, sch, self.STUDY, range(K), contract
        )
        samples, want_comp = replay_draws(distribution, sch, K, contract)
        samples.sort(axis=1)
        tiles = [samples[t : t + tile] for t in range(0, K, tile)]
        want_est = np.column_stack(
            [
                np.concatenate([score_sorted_rows(spec.weights, rows) for rows in tiles])
                for spec in self.STUDY
            ]
        )
        assert np.array_equal(got_comp, want_comp)
        assert np.array_equal(got_est, want_est)

    def test_tile_aligned_slices_are_the_whole_run(self):
        # the study's slice tasks: ranges that start on tile boundaries, the
        # last one short, give the rows of one whole-group call bit for bit
        distribution, sch = parse_dist("nig:0.4:0.14:0:1"), parse_scheme("overlapping:10", 250)
        K, contract = 700, RandomnessContract(7)
        whole = _evaluate_replications(distribution, sch, self.STUDY, range(K), contract)
        slices = [range(s0, min(s0 + 256, K)) for s0 in range(0, K, 256)]
        parts = [
            _evaluate_replications(distribution, sch, self.STUDY, part, contract)
            for part in slices
        ]
        for got, want in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("replications", [range(100, 300), range(0, 300, 2)])
    def test_slices_must_start_on_a_tile_boundary(self, replications):
        with pytest.raises(ValueError, match="^replications must be a unit-step range"):
            _evaluate_replications(
                Normal(), Scheme(250, 1), self.STUDY, replications, RandomnessContract(1)
            )

    @pytest.mark.parametrize("dist", ["normal:0:1", "t:5", "nig:0.4:0.14:0:1"])
    def test_block_arrays_stay_small_beside_the_chunk(self, dist):
        # the K x (estimators + 1) outputs are the loop's floor; the tile's raw
        # arrays, their transforms and its row buffer may add at most 2 MB
        K, n = 4096, 250
        tracemalloc.start()
        try:
            _evaluate_replications(
                parse_dist(dist), Scheme(n, 10), self.STUDY, range(K), RandomnessContract(3)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K * (len(self.STUDY) + 1) * 8 + 2_000_000


class TestMetricDefinitions:
    def test_reference_dispatch(self):
        true = TrueRisk(var_alpha=2.0, es_alpha=3.0, method="closed_form", standard_error=0.0)
        assert reference_value(build_estimator("var", 0.05, 100), true) == 2.0
        assert reference_value(build_estimator("es1", 0.05, 100), true) == 3.0

    def test_never_crossed_flag(self):
        companions = np.random.default_rng(1).standard_normal(50)
        rep = _metrics_from(np.full(50, -1e9), companions, ALPHA, 1.0)
        assert rep.ct == 1.0
        assert not rep.ct_crossed

    def test_instant_crossing(self):
        companions = np.random.default_rng(1).standard_normal(50)
        rep = _metrics_from(np.full(50, 1e9), companions, ALPHA, 1.0)
        assert rep.ct == pytest.approx(1.0 / 50.0)
        assert rep.ct_crossed

    def test_exact_estimates_have_zero_se_and_zero_stderr(self):
        # every estimate on the reference: no squared error, so the se
        # standard error is 0 rather than 0/0
        companions = np.random.default_rng(1).standard_normal(50)
        rep = _metrics_from(np.full(50, 2.0), companions, ALPHA, 2.0)
        assert (rep.ae, rep.se, rep.sb) == (0.0, 0.0, 0.0)
        assert (rep.ae_stderr, rep.se_stderr, rep.sb_stderr) == (0.0, 0.0, 0.0)

    def test_inputs_are_left_unchanged(self):
        # the rb tail partitions the secured outcomes in place, and only them
        rng = np.random.default_rng(3)
        estimates, companions = rng.standard_normal(200) + 2.0, rng.standard_normal(200)
        kept = estimates.copy(), companions.copy()
        _metrics_from(estimates, companions, ALPHA, 2.0)
        assert np.array_equal(estimates, kept[0]) and np.array_equal(companions, kept[1])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MetricReport(
                ae=-0.1, se=0.1, sb=0.0, rb=0.0, ct=0.5,
                ae_stderr=0.0, se_stderr=0.0, sb_stderr=0.0,
            )
        with pytest.raises(ValueError):
            MetricReport(
                ae=0.1, se=0.05, sb=0.2, rb=0.0, ct=0.5,
                ae_stderr=0.0, se_stderr=0.0, sb_stderr=0.0,
            )
        with pytest.raises(ValueError):
            MetricReport(
                ae=0.1, se=0.2, sb=0.1, rb=0.0, ct=0.0,
                ae_stderr=0.0, se_stderr=0.0, sb_stderr=0.0,
            )

    def test_tail_gates_share_the_snapped_floor(self):
        # alpha*K = 0.9999999999999999 here: a plain int() floor gives 0, while
        # the tail kernel snaps it to a one-outcome tail
        alpha, k = 1.0 / 49.0, 49
        assert alpha * k < 1.0
        assert tail_split(alpha, k) == (1, 0.0)
        assert tail_levels([alpha], np.arange(k) + 5.0)[0][1] == -5.0
        # the metric level is the spec's own: n = 49 snaps to a one-outcome tail too
        spec = build_estimator("es1", alpha, k)
        estimates, companions = _evaluate_replications(
            Normal(), Scheme(k, 1), [spec], range(k), RandomnessContract(1)
        )
        rep = _metrics_from(estimates[:, 0], companions, spec.alpha, 1.0)
        assert rep.rb == naive_metrics(estimates[:, 0], companions, alpha, 1.0)[3]

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError, match="true risk must be a positive finite number"):
            _metrics_from(np.full(50, 1.0), np.zeros(50), ALPHA, -2.0)


# Exact order-statistic means, the independent reference for bias checks
# (David and Nagaraja 2003, ch. 2-3): E[X_(i:n)] = int_0^1 Q(u) b_{i,n}(u) du
# with b_{i,n} the Beta(i, n-i+1) density. Gauss-Legendre nodes sit in log u
# on (1e-30, 1/2] and in log(1 - u) on [1/2, 1 - 1e-30), so each tail of Q
# is resolved on its own scale; the mass cut off beyond 1e-30 is negligible
# for the normal, t(5) and NIG laws used here.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)
_LOG_FLOOR = math.log(1e-30)


def _log_nodes(top):
    """Nodes u on (1e-30, top], spaced in log u, with weights that carry du = u d(log u)."""
    half = 0.5 * (math.log(top) - _LOG_FLOOR)
    u = np.exp(_LOG_FLOOR + half * (_GL_NODES + 1.0))
    return u, half * _GL_WEIGHTS * u


def exact_order_statistic_means(law, n, positions):
    """E[X_(i:n)] at the 1-based positions, for law = (Q(u), Q(1 - v))."""
    from scipy.special import betaln

    lower, upper = law
    u, w = _log_nodes(0.5)
    log_u, log_rest = np.log(u), np.log1p(-u)
    below, above = w * lower(u), w * upper(u)
    means = []
    for i in positions:
        c = betaln(i, n - i + 1)
        means.append(
            below @ np.exp((i - 1) * log_u + (n - i) * log_rest - c)
            + above @ np.exp((i - 1) * log_rest + (n - i) * log_u - c)
        )
    return np.array(means)


def quantile_es(law, alpha):
    """ES = -(1/alpha) int_0^alpha Q(u) du, on log-spaced nodes as for the means."""
    u, w = _log_nodes(alpha)
    return -float(w @ law[0](u)) / alpha


def _law(dist):
    """(Q(u), Q(1 - v)) of a Normal, StudentT or Nig: the closed-form
    quantile, which takes one level at a time, node by node and mirrored
    about the mean (both laws are symmetric), or the NIG quantiles of
    _nig_quantile."""
    if not isinstance(dist, Nig):
        q = np.vectorize(dist.quantile)
        return q, lambda v: 2 * dist.mean - q(v)
    return lambda u: _nig_quantile(dist, u, 1.0), lambda v: _nig_quantile(dist, v, -1.0)


def _nig_quantile(dist, p, sign):
    """The q with tail(q) = p: tail is the mixture CDF E[Phi(z)] of nig_cdf
    for sign 1 and its complement E[Phi(-z)] for sign -1, taken as such so
    that no 1 - F cancels in the upper tail.

    Vectorized Newton steps on log tail(q) = log p, whose slope is the mixture
    density E[phi(z) / sqrt(V)] over tail(q): in log form the far tails, where
    that slope tends to a constant, take a few steps. They start from the
    normal quantile of the same mean and variance.
    """
    tail = lambda q: nig_mixture(dist, q, lambda z, v: ndtr(sign * z))
    density = lambda q: nig_mixture(
        dist, q, lambda z, v: np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi * v)
    )
    moments = nig_moments(dist)
    q = moments.mean + sign * math.sqrt(moments.variance) * ndtri(p)
    for _ in range(50):
        t = tail(q)
        step = sign * (np.log(t) - np.log(p)) * t / density(q)
        q = q - step
        if np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(q))):
            return q
    raise AssertionError(f"no NIG quantile after 50 Newton steps, last step {step}")


class TestOrderStatisticMeans:
    def test_small_n_closed_forms(self):
        # E[X_(1:2)] = -1/sqrt(pi); E[X_(1:3)] = -1.5/sqrt(pi); E[X_(2:3)] = 0
        (m12,) = exact_order_statistic_means(_law(Normal()), 2, [1])
        assert abs(m12 + 1.0 / math.sqrt(math.pi)) < 1e-10
        m13, m23 = exact_order_statistic_means(_law(Normal()), 3, [1, 2])
        assert abs(m13 + 1.5 / math.sqrt(math.pi)) < 1e-10
        assert abs(m23) < 1e-10

    def test_nig_quantiles_match_scipy(self):
        # the law of the study test below; scipy integrates the Bessel
        # density, so its far tails lose digits (about 1e-8 relative at
        # u = 1e-6 here), but not at these levels
        from scipy.stats import norminvgauss

        dist = Nig(0.4, 0.14)
        law = norminvgauss(dist.a, dist.b)
        levels = np.array([0.01, 0.025, 0.1, 0.5])
        lower, upper = _law(dist)
        assert np.max(np.abs(lower(levels) - law.ppf(levels))) < 1e-10
        assert np.max(np.abs(upper(levels) - law.isf(levels))) < 1e-10

    @pytest.mark.parametrize("dist", [Normal(), StudentT(5.0)])
    def test_quantile_integral_matches_the_closed_form_es(self, dist):
        # the integral that gives the NIG reference below, checked where a
        # closed form exists
        for alpha in (0.025, 0.1):
            got = quantile_es(_law(dist), alpha)
            assert got == pytest.approx(true_risk(dist, alpha).es_alpha, rel=1e-10)

    def test_bias_predicted_from_order_statistics(self):
        # -sum_i w_i E[X_(i:n)] must match the simulated mean estimate
        spec = build_estimator("es1", ALPHA, N)
        nz = np.nonzero(spec.weights)[0]
        means = exact_order_statistic_means(_law(Normal()), N, nz + 1)
        predicted = -float(np.dot(spec.weights[nz], means))

        contract = RandomnessContract(4)
        est, _ = _evaluate_replications(Normal(), Scheme(N, 1), [spec], range(40_000), contract)
        simulated = float(est.mean())
        sim_err = float(est.std(ddof=1)) / math.sqrt(est.size)
        assert abs(predicted - simulated) < 5 * sim_err

    # the study's sb of every i.i.d. ES cell against -<w, mu>/rho - 1, mu the
    # exact head means and rho the exact ES; K and the seed were fixed before
    # any result was seen
    @pytest.mark.parametrize("text", ["normal:0:1", "t:5", "nig:0.4:0.14:0:1"])
    def test_study_bias_matches_exact_means(self, text):
        n, alpha = 250, 0.025
        dist = parse_dist(text)
        law = _law(dist)
        rho = quantile_es(law, alpha) if isinstance(dist, Nig) else true_risk(dist, alpha).es_alpha
        specs = [build_estimator(f"es{j}", alpha, n) for j in range(1, 7)]
        head = 1 + max(int(np.flatnonzero(s.weights)[-1]) for s in specs)
        means = exact_order_statistic_means(law, n, range(1, head + 1))
        estimates, companions = _evaluate_replications(
            dist, Scheme(n, 1), specs, range(20_000), RandomnessContract(11)
        )
        for i, spec in enumerate(specs):
            report = _metrics_from(estimates[:, i], companions, spec.alpha, rho)
            exact = -float(spec.weights[:head] @ means) / rho - 1.0
            assert abs(report.sb - exact) < 4 * report.sb_stderr, spec.name
