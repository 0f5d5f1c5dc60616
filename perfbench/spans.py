"""Outside-in layer tracer for riskbench.

Wrappers are installed on the name in the module that looks a function up
(``riskbench.metrics.draw_values``, ``riskbench.bench.true_risk_levels``,
...), so riskbench's source is never edited. Each wrapped call records one
span: its name, its parent span, and its start and end times. Spans stay in
memory until the run ends; ``Tracer.layers`` then turns them into per-layer
busy time, self time (span minus its child spans) and call counts.

A hook whose target no longer exists is skipped and reported in
``Tracer.missing``, so a refactor of riskbench leaves the untraced
benchmark untouched and only zeroes the layers it moved.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (owner path, attribute, span name, extra). The span name is
# "<layer>.<operation>", the layer being the riskbench module whose code the
# span times. `extra` names a count taken from each call, or "estimator_arg"
# to also trace the estimator callable passed as the first argument.
HOOKS = (
    ("bench", "run_study", "bench.run_study", None),
    ("bench.ResultTable", "to_csv", "bench.serialize", "output_bytes"),
    ("bench", "build_estimator", "estimators.build", None),
    ("cli", "build_estimator", "estimators.build", None),
    ("bench", "true_risk_levels", "distributions.oracle", "oracle_draws"),
    ("consistency", "true_risk", "distributions.oracle", "oracle_draws"),
    ("distributions", "es2_tail_average", "estimators.tail_average", None),
    ("distributions", "empirical_quantile_var", "estimators.tail_average", None),
    ("bench", "run_group", "metrics.run_group", None),
    ("sampling.RandomnessContract", "stream", "sampling.stream", None),
    ("metrics", "draw_values", "sampling.draw_values", None),
    ("metrics", "draw_secured_companion", "sampling.companion", None),
    ("sampling", "draw_from", "distributions.sample", "variates"),
    ("consistency", "draw_dist", "distributions.sample", "variates"),
    ("cli", "check_all", "coherence.check_all", "estimator_arg"),
    ("coherence", "check_axiom", "coherence.check_axiom", None),
    ("cli", "extract_comonotonic_weights", "coherence.extract", "estimator_arg"),
    ("estimators", "apply_l_estimator", "core.apply_l_estimator", None),
    ("coherence", "apply_l_estimator", "core.apply_l_estimator", None),
    ("consistency", "apply_l_estimator", "core.apply_l_estimator", None),
    ("cli", "expectile_estimate", "estimators.expectile", None),
    ("cli", "gaussian_plugin_es", "estimators.gaussian", None),
    ("cli", "empirical_consistency", "consistency.empirical", None),
)

# Spans wrapping the estimator callable that coherence receives as an
# argument: the time coherence spends waiting on the estimator under test.
ESTIMATOR_SPAN = "coherence.estimator"


def _oracle_draws(result) -> int:
    """Oracle sample size behind a true-risk result (0 for closed forms)."""
    risks = result.values() if isinstance(result, dict) else (result,)
    return max((r.oracle_k or 0 for r in risks), default=0)


class Tracer:
    """Span recorder. Single-threaded: the benchmark runs riskbench with its
    default single worker, so a stack gives every span its parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def wrap(self, name: str, fn, extra=None):
        span_id = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra == "estimator_arg":
                args = (self.wrap(ESTIMATOR_SPAN, args[0]),) + args[1:]
            index = len(self.start)
            self.name_id.append(span_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if extra == "variates":
                self.count("distributions.variates", args[1])
            elif extra == "oracle_draws":
                self.count("distributions.oracle_draws", _oracle_draws(result))
            elif extra == "output_bytes":
                self.count("bench.output_bytes", len(result.encode()))
            return result

        return traced

    def install(self, riskbench_modules: dict) -> None:
        """Wrap every hook target found in the given {name: module} map."""
        for path, attr, name, extra in HOOKS:
            owner_name, _, cls_name = path.partition(".")
            owner = riskbench_modules.get(owner_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, fn, extra))

    def layers(self) -> dict[str, dict[str, float]]:
        """{span name: {"busy_s", "self_s", "calls"}} over every recorded span."""
        ids = np.array(self.name_id, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child_s
        k = len(self.names)
        busy = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: {
                "busy_s": float(busy[i]),
                "self_s": float(self_s[i]),
                "calls": int(calls[i]),
            }
            for i, name in enumerate(self.names)
        }
