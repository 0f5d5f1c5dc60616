"""Command line front end.

Subcommands map one-to-one onto the library surface: `weights` prints an
estimator's order-statistic weights, `extract` recovers them from a black
box, `coherence` runs the axiom battery, `true-risk` evaluates a
distribution's reference risk, `consistency` tabulates spectral error
against sample size, and `bench` runs the Monte Carlo study.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .bench import BenchConfig, _flagged, format_metric_table, run_study
from .coherence import NotComonotonicError, check_all, extract_comonotonic_weights
from .consistency import DISCRETIZATIONS, empirical_consistency, es_spectrum, uniform_spectrum
from .distributions import DEFAULT_ORACLE_K, check_oracle_k, parse_dist, true_risk
from .estimators import (
    ESTIMATORS,
    LEstimatorSpec,
    _check_level,
    build_estimator,
    expectile_rows,
    gaussian_plugin_rows,
)


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"need at least {least}, got {value}")
        return value

    return parse


def _sizes(text: str) -> list[int]:
    """An argparse type: one or more distinct sample sizes, comma separated."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        sizes = []
    if not sizes or len(set(sizes)) < len(sizes):  # a repeated size prints its row twice
        raise argparse.ArgumentTypeError(f"expected distinct comma separated sizes, got {text!r}")
    return sizes


def _add_weights(sub) -> None:
    p = sub.add_parser("weights", help="print an estimator's order-statistic weights")
    p.add_argument("--estimator", required=True)
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--n", type=_at_least(1), default=250)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON object")
    fmt.add_argument("--csv", action="store_true", help="emit position,weight lines")
    p.set_defaults(run=_cmd_weights)


def _cmd_weights(args) -> int:
    spec = _estimator_spec(args.estimator, args.alpha, args.n, sorted(ESTIMATORS))
    w = spec.weights
    if args.json:
        payload = {
            "estimator": spec.name,
            "alpha": spec.alpha,
            "n": spec.n,
            "is_cre": spec.is_cre,
            "sum": repr(float(w.sum())),
            "weights": [repr(float(v)) for v in w],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args.csv:
        print("position,weight")
        for i, v in enumerate(w, start=1):
            print(f"{i},{float(v)!r}")
        return 0
    print(f"estimator: {spec.name}  alpha: {spec.alpha}  n: {spec.n}")
    print(f"is_cre: {spec.is_cre}  sum: {float(w.sum())!r}")
    nz = np.nonzero(w)[0]
    last = int(nz[-1]) + 1 if nz.size else 0
    for i in range(last):
        print(f"  a[{i + 1}] = {float(w[i])!r}")
    if last < w.size:
        print(f"  a[{last + 1}..{w.size}] = 0.0")
    return 0


def _add_coherence(sub) -> None:
    p = sub.add_parser("coherence", help="test an estimator against the risk axioms")
    p.add_argument(
        "--estimator",
        required=True,
        help="a weight-based estimator name, or gaussian / expvar",
    )
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--n", type=_at_least(1), default=250)
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_coherence)


# the functionals --estimator names besides the weight-based ones
_BLACK_BOXES = ("expvar", "gaussian")


def _estimator_spec(name: str, alpha: float, n: int, known) -> LEstimatorSpec:
    """The weights --estimator names, in any case, at --alpha and --n. Each
    input is checked here, before any compute, and a bad one names its flag;
    known lists the names the flag takes."""
    name = name.lower()
    if name not in ESTIMATORS:
        raise ValueError(f"--estimator: unknown estimator {name!r}; expected one of {known}")
    if name != "var1":  # var1 ignores --alpha
        _flagged("--alpha", _check_level, alpha)
    return _flagged("--n", build_estimator, name, alpha, n)  # the size rule of a known name


def _resolve_functional(name: str, alpha: float, n: int):
    """The block function of the functional --estimator names, in any case.
    The name, --alpha and --n are checked here, before any probe is drawn."""
    name = name.lower()
    if name not in _BLACK_BOXES:
        return _estimator_spec(name, alpha, n, sorted([*ESTIMATORS, *_BLACK_BOXES])).rows
    if name == "expvar" and not 0.0 < alpha <= 0.5:
        raise ValueError(f"--alpha: expvar needs a level in (0, 1/2], got {alpha}")
    _flagged("--alpha", _check_level, alpha)
    if name == "gaussian" and n < 2:
        raise ValueError(f"--n: gaussian needs n >= 2, got {n}")
    kernel = gaussian_plugin_rows if name == "gaussian" else expectile_rows
    return functools.partial(kernel, alpha)


def _cmd_coherence(args) -> int:
    fn = _resolve_functional(args.estimator, args.alpha, args.n)
    report = check_all(fn, args.n, trials=args.trials, seed=args.seed)
    if args.json:
        print(report.to_json())
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.axiom:<24} {status}  ({check.trials} trials)")
            if check.witness is not None:
                print(f"    {check.witness.description}")
                print(
                    f"    lhs={check.witness.lhs!r} rhs={check.witness.rhs!r} "
                    f"defect={check.witness.defect!r}"
                )
    return 0 if report.all_pass else 1


def _add_true_risk(sub) -> None:
    p = sub.add_parser("true-risk", help="reference risk of a distribution")
    p.add_argument("--dist", required=True, help="e.g. normal:0:1, t:5, nig:a:b:mu:delta")
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--oracle-k", type=_at_least(1), default=DEFAULT_ORACLE_K)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(run=_cmd_true_risk)


def _cmd_true_risk(args) -> int:
    _flagged("--alpha", _check_level, args.alpha)
    dist = _flagged("--dist", parse_dist, args.dist)
    if dist.oracle_passes:
        _flagged("--oracle-k", check_oracle_k, args.oracle_k, [args.alpha])
    where = f"--dist {args.dist} at level {args.alpha}"
    risk = _flagged(where, true_risk, dist, args.alpha, oracle_k=args.oracle_k, seed=args.seed)
    payload = {
        "dist": args.dist,
        "alpha": args.alpha,
        "var_alpha": risk.var_alpha,
        "es_alpha": risk.es_alpha,
        "method": risk.method,
        "standard_error": risk.standard_error,
    }
    if risk.method == "mc_oracle":
        payload["oracle_k"] = risk.oracle_k
        payload["oracle_seed"] = risk.oracle_seed
    print(json.dumps(payload, indent=2))
    return 0


def _add_consistency(sub) -> None:
    p = sub.add_parser(
        "consistency", help="empirical error of a spectral approximation vs sample size"
    )
    p.add_argument("--spectrum", choices=("es", "uniform"), default="es")
    p.add_argument("--alpha", type=float, default=0.025, help="the es spectrum's level")
    p.add_argument("--builder", choices=tuple(DISCRETIZATIONS), default="integral")
    p.add_argument("--n", type=_sizes, default="100,1000,10000", help="comma separated sizes")
    p.add_argument("--dist", default="normal:0:1")
    p.add_argument("--reps", type=_at_least(2), default=50)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(run=_cmd_consistency)


def _cmd_consistency(args) -> int:
    dist = _flagged("--dist", parse_dist, args.dist)
    if args.spectrum == "es":
        spectrum = _flagged("--alpha", es_spectrum, args.alpha)
        if dist.oracle_passes:  # the es target's oracle
            _flagged("--alpha", check_oracle_k, DEFAULT_ORACLE_K, [args.alpha])
    else:
        spectrum = uniform_spectrum()
    for n in args.n:  # each size's weights must exist before any draw
        _flagged("--n", DISCRETIZATIONS[args.builder], spectrum, n)
    rows = empirical_consistency(dist, spectrum, args.builder, args.n, args.reps, args.seed)
    print("n,median_abs_error,iqr")
    for row in rows:
        print(f"{row.n},{row.median_abs_error!r},{row.iqr!r}")
    return 0


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="run the Monte Carlo estimator study")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--out", help="write results here instead of stdout")
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--k", type=_at_least(1), help="replications per cell")
    p.add_argument("--oracle-k", type=_at_least(1), dest="oracle_k")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--table", action="store_true", help="also print the formatted metric table"
    )
    p.set_defaults(run=_cmd_bench)


def _cmd_bench(args) -> int:
    if args.config is None:
        config = BenchConfig()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = BenchConfig.from_json(fh.read())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            # the file and its JSON; a bad field names the field itself
            raise ValueError(f"--config: {exc}") from None
    for name in ("seed", "k", "oracle_k"):
        value = getattr(args, name)
        if value is not None:
            config = _flagged(f"--{name.replace('_', '-')}", replace, config, **{name: value})
    # the path to write, checked before the study runs
    out = args.out
    if out is not None and (
        not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")
    ):
        raise ValueError(f"--out: {out!r} is not a file in an existing directory")
    table = run_study(config)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(table.rows)} rows to {out}")
    else:
        sys.stdout.write(text)
    if args.table:
        print(format_metric_table(table))
    return 0


def _add_extract(sub) -> None:
    p = sub.add_parser(
        "extract", help="recover order-statistic weights from a black-box estimator"
    )
    p.add_argument("--estimator", required=True, help="estimator name, or gaussian / expvar")
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--n", type=_at_least(1), default=250)
    p.set_defaults(run=_cmd_extract)


def _cmd_extract(args) -> int:
    fn = _resolve_functional(args.estimator, args.alpha, args.n)
    try:
        w = extract_comonotonic_weights(fn, args.n)
    except NotComonotonicError as exc:
        print(f"not representable as order-statistic weights: {exc}", file=sys.stderr)
        return 1
    print("position,weight")
    for i, v in enumerate(w.weights, start=1):
        print(f"{i},{float(v)!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="coherent risk estimators as weighted order statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_weights(sub)
    _add_coherence(sub)
    _add_true_risk(sub)
    _add_consistency(sub)
    _add_bench(sub)
    _add_extract(sub)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        # bad input that no one flag's type sees (a config file or field, a name,
        # a rule across flags) gets argparse's one-line report and exit status 2
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
