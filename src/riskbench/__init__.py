"""Weighted order-statistic risk estimators: axioms, weights, benchmarks."""
