import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import apply_l_estimator, monotone_simplex, permutation_closure_oracle

from riskbench.core import SupremumCre, WeightVector


class TestSample:
    # a sample reaches apply_l_estimator as a plain array, checked at the boundary
    def test_sample_rejects_nan(self):
        with pytest.raises(ValueError):
            apply_l_estimator(np.array([0.5, 0.5]), np.array([0.0, np.nan]))

    def test_sample_rejects_matrix(self):
        with pytest.raises(ValueError):
            apply_l_estimator(np.ones(4) / 4, np.zeros((2, 2)))


class TestWeightVector:
    def test_accepts_simplex(self):
        w = WeightVector(np.array([0.5, 0.3, 0.2]))
        assert w.n == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.4]))

    def test_sum_tolerance_is_tight(self):
        # 1e-12 away from one is accepted, 1e-10 away is not
        WeightVector(np.array([0.5, 0.5 + 1e-13]))
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.5 + 1e-10]))

    def test_monotone_flag_enforces_order(self):
        WeightVector(np.array([0.6, 0.4]), monotone_flag=True)
        with pytest.raises(ValueError):
            WeightVector(np.array([0.4, 0.6]), monotone_flag=True)

    def test_general_scheme_allows_non_unit_sum(self):
        # a plain array carries no simplex constraint: sum 1.25 scores as given
        # sorted (1, 2, 3): -(0.5*1 + 0.25*2 + 0.5*3) = -2.5
        assert apply_l_estimator(np.array([0.5, 0.25, 0.5]), [3.0, 1.0, 2.0]) == -2.5

    def test_weights_are_read_only(self):
        w = WeightVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            w.weights[0] = 0.0


class TestApplyLEstimator:
    def test_hand_computed_value(self):
        # sorted(-1, 2, 5), weights (0.5, 0.3, 0.2): -(0.5*-1 + 0.3*2 + 0.2*5) = -1.1
        w = WeightVector(np.array([0.5, 0.3, 0.2]))
        got = apply_l_estimator(w, np.array([5.0, -1.0, 2.0]))
        assert got == pytest.approx(-1.1, abs=1e-15)

    def test_length_mismatch(self):
        w = WeightVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            apply_l_estimator(w, np.zeros(3))

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        w = WeightVector(monotone_simplex(rng, n))
        x = rng.normal(size=n)
        v0 = apply_l_estimator(w, x)
        assert apply_l_estimator(w, rng.permutation(x)) == v0

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_cash_additivity_when_sum_is_one(self, n, seed):
        rng = np.random.default_rng(seed)
        w = WeightVector(rng.dirichlet(np.ones(n)))
        x = rng.normal(size=n)
        m = float(rng.normal())
        lhs = apply_l_estimator(w, x + m)
        rhs = apply_l_estimator(w, x) - m
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(m) + np.abs(x).max()))


class TestSupremum:
    def test_value_is_max_over_candidates(self):
        cands = (
            WeightVector(np.array([1.0, 0.0]), monotone_flag=True),
            WeightVector(np.array([0.5, 0.5]), monotone_flag=True),
        )
        m = SupremumCre(cands)
        # x = (-3, 1): candidate 0 gives 3, candidate 1 gives 1
        assert m.rows(np.array([[1.0, -3.0]]))[0] == 3.0

    def test_rejects_non_monotone_candidate(self):
        with pytest.raises(ValueError):
            SupremumCre((WeightVector(np.array([0.4, 0.6])),))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            SupremumCre(
                (
                    WeightVector(np.array([1.0]), monotone_flag=True),
                    WeightVector(np.array([0.5, 0.5]), monotone_flag=True),
                )
            )

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_agrees_on_monotone_candidates(self, n, n_cand, seed):
        # For non-increasing weights the rearrangement inequality makes the
        # sorted evaluation attain the permutation sup, so the two must agree.
        rng = np.random.default_rng(seed)
        cands = tuple(
            WeightVector(monotone_simplex(rng, n), monotone_flag=True)
            for _ in range(n_cand)
        )
        m = SupremumCre(cands)
        x = rng.normal(size=n) * 3.0
        direct = m.rows(x[None])[0]
        brute = permutation_closure_oracle(m, x)
        assert brute == pytest.approx(direct, abs=1e-9 * (1 + np.abs(x).max()))

    def test_oracle_guard(self):
        w = WeightVector(np.ones(9) / 9, monotone_flag=True)
        with pytest.raises(ValueError):
            permutation_closure_oracle(SupremumCre((w,)), np.zeros(9))

