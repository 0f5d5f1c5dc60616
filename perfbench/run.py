"""riskbench benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a riskbench source tree. Each workload is run
repeatedly, every time in a fresh child process (perfbench/child.py) that
imports riskbench from ``src/`` and calls its public API, until ``--seconds``
have passed and at least MIN_CHILDREN children have finished. Every op
output is checked: against the golden digest in perfbench/golden.json when
one is recorded for the exact inputs, and always against invariants that
hold on every seed (grid shape, finite metrics, expected axiom
verdicts with real witnesses, simplex weights, a shrinking error ladder) and
against the other children of the same run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over the children, times scaled to the reference machine speed
(see REFERENCE_S); with ``--trace 1`` it carries the per-layer
metrics of traced children, interleaved with untraced ones so that the
tracing overhead is measured too. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

MAIN_SEED = 42
HELD_OUT_SEED = 1729

MIN_CHILDREN = 3
# The shared machine's speed swings by up to a third within minutes, and
# every time metric swings with it. Each child therefore also times a fixed
# kernel that runs none of riskbench's code (child._reference_s); a run's
# times are scaled by REFERENCE_S over the median kernel time of the run.
# REFERENCE_S is that median on the 2-vCPU machine the benchmark was
# defined on, so reported seconds are seconds at that machine's typical speed.
REFERENCE_S = 0.044
# Stop starting children once this much time has passed, so that a run
# ends well inside the 180 s a run may take.
RUN_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0

ALPHA = 0.025
N = 250
ESTIMATORS = ("var1", "es1", "es2", "es3", "es4", "es5", "es6")
METRICS = ("ae", "se", "sb", "rb", "ct")
AXIOMS = (
    "monotonicity",
    "cash_additivity",
    "positive_homogeneity",
    "subadditivity",
    "law_invariance",
    "comonotonic_additivity",
)
COHERENCE_TRIALS = 300
# riskbench's fixed adversarial deck precedes the random probes (n >= 2).
DECK_PROBES = 10
EXPECTED_FAILURES = {
    "es1": (),
    "es2": (),
    "es3": (),
    "expvar": ("comonotonic_additivity",),
    "gaussian": ("monotonicity", "comonotonic_additivity"),
}
EXTRACTABLE = ("es1", "es2", "es3")
CONSISTENCY_SIZES = (100, 1000, 10_000, 100_000)
CONSISTENCY_REPS = 50

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (span name or counter, field, unit). Field "busy_s" is
# the time inside the span, "self_s" that time minus its child spans, and
# "calls" the span count; "counter" reads a count kept by the tracer.
PER_LAYER = {
    "sampling.stream_s": ("sampling.stream", "busy_s", "s"),
    "sampling.stream_calls": ("sampling.stream", "calls", "count"),
    "distributions.sample_s": ("distributions.sample", "busy_s", "s"),
    "distributions.sample_calls": ("distributions.sample", "calls", "count"),
    "distributions.variates": ("distributions.variates", "counter", "count"),
    "sampling.draw_values_self_s": ("sampling.draw_values", "self_s", "s"),
    "sampling.companion_s": ("sampling.companion", "busy_s", "s"),
    "sampling.companion_calls": ("sampling.companion", "calls", "count"),
    "metrics.run_group_s": ("metrics.run_group", "busy_s", "s"),
    "metrics.self_s": ("metrics.run_group", "self_s", "s"),
    "metrics.groups": ("metrics.run_group", "calls", "count"),
    "distributions.oracle_s": ("distributions.oracle", "busy_s", "s"),
    "distributions.oracle_calls": ("distributions.oracle", "calls", "count"),
    "distributions.oracle_draws": ("distributions.oracle_draws", "counter", "count"),
    "estimators.tail_average_s": ("estimators.tail_average", "busy_s", "s"),
    "estimators.tail_average_calls": ("estimators.tail_average", "calls", "count"),
    "coherence.check_axiom_s": ("coherence.check_axiom", "busy_s", "s"),
    "coherence.self_s": (
        ("coherence.check_all", "coherence.check_axiom", "coherence.extract"),
        "self_s",
        "s",
    ),
    "coherence.estimator_s": ("coherence.estimator", "busy_s", "s"),
    "coherence.estimator_calls": ("coherence.estimator", "calls", "count"),
    "coherence.extract_s": ("coherence.extract", "busy_s", "s"),
    "core.apply_l_estimator_s": ("core.apply_l_estimator", "busy_s", "s"),
    "core.apply_l_estimator_calls": ("core.apply_l_estimator", "calls", "count"),
    "estimators.expectile_s": ("estimators.expectile", "busy_s", "s"),
    "estimators.expectile_calls": ("estimators.expectile", "calls", "count"),
    "estimators.gaussian_s": ("estimators.gaussian", "busy_s", "s"),
    "consistency.empirical_s": ("consistency.empirical", "busy_s", "s"),
    "consistency.self_s": ("consistency.empirical", "self_s", "s"),
    "bench.run_study_s": ("bench.run_study", "busy_s", "s"),
    "bench.self_s": ("bench.run_study", "self_s", "s"),
    "bench.serialize_s": ("bench.serialize", "busy_s", "s"),
    "bench.output_bytes": ("bench.output_bytes", "counter", "bytes"),
    "estimators.build_s": ("estimators.build", "busy_s", "s"),
}
OVERHEAD_METRIC = ("trace.overhead_frac", "frac")


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Op:
    """One public-API call. `child` is all the child process sees; `kind` and
    `expect` stay in this process for checking the output."""

    child: dict
    kind: str
    expect: dict

    def key(self) -> str:
        blob = json.dumps(self.child, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    work: int  # fixed count of units done per child
    work_name: str  # "replications" or "evals"


def study_op(distributions, schemes, k, seed, oracle_k=10_000_000, estimators=ESTIMATORS):
    config = {
        "alpha": ALPHA,
        "n": N,
        "k": k,
        "seed": seed,
        "oracle_k": oracle_k,
        "distributions": list(distributions),
        "schemes": list(schemes),
        "estimators": list(estimators),
    }
    expect = {
        "distributions": list(distributions),
        "schemes": list(schemes),
        "estimators": list(estimators),
        "n": N,
        "k": k,
    }
    return Op({"config": json.dumps(config, sort_keys=True)}, "study", expect)


def coherence_op(estimator, alpha, n, seed, trials=COHERENCE_TRIALS):
    argv = ["coherence", "--estimator", estimator, "--alpha", repr(alpha), "--n", str(n),
            "--trials", str(trials), "--seed", str(seed), "--json"]
    expect = {"failures": list(EXPECTED_FAILURES[estimator]), "trials": DECK_PROBES + trials}
    return Op({"argv": argv}, "coherence", expect)


def extract_op(estimator, n=N):
    argv = ["extract", "--estimator", estimator, "--alpha", repr(ALPHA), "--n", str(n)]
    return Op({"argv": argv}, "extract", {"rc": 0 if estimator in EXTRACTABLE else 1, "n": n})


def consistency_op(seed, sizes=CONSISTENCY_SIZES, reps=CONSISTENCY_REPS):
    argv = ["consistency", "--spectrum", "es", "--builder", "integral", "--alpha", repr(ALPHA),
            "--n", ",".join(str(s) for s in sizes), "--dist", "normal:0:1",
            "--reps", str(reps), "--seed", str(seed)]
    return Op({"argv": argv}, "consistency", {"sizes": list(sizes)})


def replications(ops) -> int:
    return sum(
        len(op.expect["distributions"]) * len(op.expect["schemes"]) * op.expect["k"]
        for op in ops
        if op.kind == "study"
    )


def study_closed(seed: int) -> Workload:
    # The paper's pinned study cells. Every reference is closed form, so the
    # time is the replication loop: streams, draws, companions, sort+matvec.
    ops = (
        study_op(["normal:0:1"], ["iid", "overlapping:10"], 10_000, seed),
        study_op(["t:5"], ["iid"], 10_000, seed),
    )
    return Workload(ops, replications(ops), "replications")


def study_oracle(seed: int) -> Workload:
    # NIG targets and the t(5) 10-day sum have no closed form: each of the
    # five groups draws a 10^7 antithetic oracle sample, so the oracle and
    # its memory dominate and the replication loop (small K) barely shows.
    ops = (
        study_op(
            ["nig:0.4:0.14:0:1", "nig:0.55:-0.3025:0:1", "t:5"],
            ["iid", "overlapping:10"],
            1_000,
            seed,
        ),
    )
    return Workload(ops, replications(ops), "replications")


def axioms(seed: int, evals: int) -> Workload:
    # The axiom battery, extraction and consistency ladder: estimator calls
    # one row at a time, no study layer at all.
    ops = [
        coherence_op(name, alpha, n, seed)
        for name in ("es1", "es2", "es3")
        for alpha, n in ((0.2, 10), (ALPHA, 100), (ALPHA, N))
    ]
    ops += [coherence_op(name, ALPHA, N, seed) for name in ("expvar", "gaussian")]
    ops += [extract_op(name) for name in ESTIMATORS]
    ops.append(consistency_op(seed))
    return Workload(tuple(ops), evals, "evals")


WORKLOADS = ("study-closed", "study-oracle", "axioms")


def build_workload(name: str, seed: int, golden: dict) -> Workload:
    if name == "study-closed":
        return study_closed(seed)
    if name == "study-oracle":
        return study_oracle(seed)
    if name == "axioms":
        return axioms(seed, golden["axioms_evals"])
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Output checks


def digest(op: Op, result: dict) -> str:
    """What the golden file pins for one op's output."""
    if op.kind == "study":
        payload = result["output"]
    elif op.kind == "coherence":
        checks = json.loads(result["output"])
        payload = json.dumps(
            [
                result["rc"],
                [
                    [
                        c["axiom"],
                        c["passed"],
                        c["trials"],
                        repr(c["witness"]["lhs"]) if "witness" in c else None,
                        repr(c["witness"]["rhs"]) if "witness" in c else None,
                    ]
                    for c in checks
                ],
            ]
        )
    else:
        payload = json.dumps([result["rc"], result["output"] if result["rc"] == 0 else ""])
    return hashlib.sha256(payload.encode()).hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_study(op: Op, result: dict):
    e = op.expect
    lines = result["output"].splitlines()
    if lines[:1] != ["distribution,scheme,estimator,alpha,n,K,metric,value,mc_stderr"]:
        return "unexpected CSV header"
    want = [
        (d, s, est, m)
        for d in e["distributions"]
        for s in e["schemes"]
        for est in e["estimators"]
        for m in METRICS
    ]
    rows = [line.split(",") for line in lines[1:]]
    if [tuple(r[:3] + r[6:7]) for r in rows] != want:
        return "CSV rows do not follow the study grid"
    values = {}
    for r in rows:
        if r[4] != str(e["n"]) or r[5] != str(e["k"]):
            return f"row {r[:3]} carries n={r[4]} K={r[5]}"
        if not _finite(r[7]):
            return f"non-finite value in {r}"
        has_stderr = r[6] in ("ae", "se", "sb")
        if has_stderr != (r[8] != "") or (has_stderr and not _finite(r[8])):
            return f"bad standard error in {r}"
        values[(r[0], r[1], r[2], r[6])] = float(r[7])
    for (d, s, est, m), v in values.items():
        if m == "ae" and v < 0.0:
            return f"negative mean absolute error for {d} {s} {est}"
        if m == "ct" and not 0.0 < v <= 1.0:
            return f"crossing point {v} outside (0, 1] for {d} {s} {est}"
        if m == "se" and v < abs(values[(d, s, est, "sb")]) - 1e-12:
            return f"rms error below absolute bias for {d} {s} {est}"
    return None


def check_coherence(op: Op, result: dict):
    checks = json.loads(result["output"])
    if [c["axiom"] for c in checks] != list(AXIOMS):
        return "axioms missing or out of order"
    failed = [c["axiom"] for c in checks if not c["passed"]]
    if failed != op.expect["failures"]:
        return f"failed axioms {failed}, expected {op.expect['failures']}"
    if result["rc"] != (1 if failed else 0):
        return f"exit code {result['rc']} does not match the verdicts"
    for c in checks:
        if c["trials"] != op.expect["trials"]:
            return f"{c['axiom']} ran {c['trials']} trials"
        if c["passed"] == ("witness" in c):
            return f"{c['axiom']} verdict and witness disagree"
        if "witness" in c:
            w = c["witness"]
            scale = max(abs(v) for row in w["inputs"] for v in row)
            defect = w["lhs"] - w["rhs"]
            if c["axiom"] not in ("monotonicity", "subadditivity"):
                defect = abs(defect)
            # every check flags a defect above 1e-9 * (1 + scale of its inputs)
            if not defect > 1e-9 * (1.0 + scale):
                return f"{c['axiom']} witness defect {defect!r} is no violation"
    return None


def check_extract(op: Op, result: dict):
    if result["rc"] != op.expect["rc"]:
        return f"exit code {result['rc']}, expected {op.expect['rc']}"
    if result["rc"] != 0:
        return None
    lines = result["output"].splitlines()
    if lines[:1] != ["position,weight"] or len(lines) != op.expect["n"] + 1:
        return "malformed weight listing"
    w = [float(line.split(",")[1]) for line in lines[1:]]
    if min(w) < 0.0 or abs(sum(w) - 1.0) > 1e-12:
        return "extracted weights leave the simplex"
    if any(b > a + 1e-12 for a, b in zip(w, w[1:])):
        return "extracted weights increase"
    return None


def check_consistency(op: Op, result: dict):
    lines = result["output"].splitlines()
    if lines[:1] != ["n,median_abs_error,iqr"]:
        return "unexpected consistency header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != op.expect["sizes"]:
        return "consistency rows do not match the sizes asked for"
    if not all(_finite(v) and float(v) >= 0.0 for r in rows for v in r[1:]):
        return "negative or non-finite consistency error"
    if not float(rows[-1][1]) < float(rows[0][1]):
        return "median error did not shrink along the ladder"
    return None


CHECKS = {
    "study": check_study,
    "coherence": check_coherence,
    "extract": check_extract,
    "consistency": check_consistency,
}


def check_op(op: Op, result: dict, golden_ops: dict, reference: dict):
    """Return (digest, problem); problem is None when the output is correct.

    `reference` maps op keys to the digest of the first correct output seen
    in this run, so every child must reproduce the same bytes.
    """
    if "error" in result:
        return None, "raised: " + result["error"].strip().splitlines()[-1]
    try:
        got = digest(op, result)
        problem = CHECKS[op.kind](op, result)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, f"unreadable output: {exc!r}"
    key = op.key()
    if problem is None and key in golden_ops and got != golden_ops[key]["digest"]:
        problem = "digest differs from the golden digest"
    if problem is None and reference.setdefault(key, got) != got:
        problem = "digest differs from an earlier child of this run"
    return got, problem


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: matches the single worker and keeps runs steady on a
    # shared machine.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(root: Path, ops, trace: bool) -> dict:
    src = root / "src"
    spawned = time.monotonic()
    job = {"src": str(src), "spawned": spawned, "trace": trace, "ops": [op.child for op in ops]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=root,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    if Path(report["riskbench_file"]).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"child imported riskbench from {report['riskbench_file']}, not {src}")
    return report


def layer_values(report: dict) -> dict:
    layers = report["layers"]
    counters = report["counters"]
    out = {}
    for metric, (source, field, _unit) in PER_LAYER.items():
        if field == "counter":
            out[metric] = float(counters.get(source, 0))
            continue
        names = source if isinstance(source, tuple) else (source,)
        out[metric] = float(sum(layers.get(n, {}).get(field, 0) for n in names))
    return out


def measure(workload: Workload, root: Path, seconds: float, trace: bool, golden_ops: dict):
    """Run children for `seconds` (at least MIN_CHILDREN) and return a result dict."""
    start = time.monotonic()
    children = []  # (traced, report)
    while len(children) < MIN_CHILDREN or time.monotonic() - start < seconds:
        if children and time.monotonic() - start > RUN_LIMIT_S:
            break
        traced = trace and len(children) % 2 == 1
        children.append((traced, run_child(root, workload.ops, traced)))

    attempted = failed = 0
    problems = []
    reference: dict = {}
    for _, report in children:
        for op, result in zip(workload.ops, report["results"]):
            attempted += 1
            _, problem = check_op(op, result, golden_ops, reference)
            if problem is not None:
                failed += 1
                problems.append(f"{' '.join(op.child.get('argv', ['bench']))}: {problem}")

    plain = [r for t, r in children if not t]
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
    }
    speed = REFERENCE_S / statistics.median(s for _, r in children for s in r["reference_s"])
    end_to_end = {
        "setup_s": raw["setup_s"] * speed,
        "wall_s": raw["wall_s"] * speed,
        "ops_per_s": workload.work / (raw["wall_s"] * speed),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in plain),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "children": len(children),
        "untraced": len(plain),
        "speed": speed,
        "raw": raw,
        "end_to_end": end_to_end,
        "facts": children[0][1]["facts"],
    }
    if trace:
        traced = [r for t, r in children if t]
        per_layer = [layer_values(r) for r in traced]
        layers = {m: statistics.median(p[m] for p in per_layer) for m in PER_LAYER}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers[OVERHEAD_METRIC[0]] = (traced_wall - raw["wall_s"]) / raw["wall_s"]
        result["per_layer"] = layers
        result["traced"] = len(traced)
        result["missing_hooks"] = traced[0]["missing_hooks"]
    return result


# ---------------------------------------------------------------------------
# Facts and output


def git_commit(root: Path):
    """HEAD of the tree's git repository, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(root: Path) -> dict:
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(root),
    }


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        units = {m: unit for m, (_s, _f, unit) in PER_LAYER.items()}
        units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def summary_lines(name: str, seed: int, workload: Workload, result: dict):
    """Human-readable report: each end-to-end metric's median and run count,
    the throughput under its own name, the raw times, and the failure
    fraction."""
    named = {"ops_per_s": f"{workload.work_name}_per_s"}
    yield f"workload {name}  seed {seed}  children {result['children']}"
    for metric, unit in END_TO_END:
        label = named.get(metric, metric)
        value = result["end_to_end"][metric]
        yield f"  {label:<22} {value:.6g} {unit}  (median of {result['untraced']})"
    for metric, value in result["raw"].items():
        yield f"  {'raw ' + metric:<22} {value:.6g} s  (unscaled median)"
    yield f"  {'speed':<22} {result['speed']:.6g}  (reference time {REFERENCE_S} s / measured)"
    frac = result["failed"] / result["attempted"]
    yield f"  {'fail_frac':<22} {frac:.6g}  ({result['failed']} of {result['attempted']} ops)"
    for problem in result["problems"][:10]:
        yield f"  FAILED {problem}"
    for metric, value in result.get("per_layer", {}).items():
        yield f"  {metric:<34} {value:.6g}  (median of {result['traced']})"
    for hook in result.get("missing_hooks", []):
        yield f"  trace hook not found: {hook}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=MAIN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskbench" / "__init__.py").is_file():
        print(f"no riskbench source tree at {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    facts = machine_facts(root)
    golden = load_golden()
    workload = build_workload(args.workload, args.seed, golden)
    try:
        result = measure(workload, root, args.seconds, bool(args.trace), golden["ops"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    facts.update(result["facts"])
    print("facts " + json.dumps(facts, sort_keys=True))
    for line in summary_lines(args.workload, args.seed, workload, result):
        print(line)
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
