"""Record the end-to-end performance of one riskbench source tree.

    python tools/write_bench.py --label <x> [--tree <path>] [--before <path>]
                                [--workers 8,16]

Writes BENCH_<label>.json at the root of the repository that holds this
script. --tree is the riskbench source tree to measure (default: that same
repository). --before names a second tree, for example a clone of the parent
commit: both are then measured, section by section in turn, and the file
holds the two records under "before" and "after", so that both come from one
machine in one session. A record holds:

- machine facts, the tree's git commit and a digest of its source files;
- the full default study (`run_study(BenchConfig())`, serialized to CSV) in
  a fresh process: wall time, the number of workers, the process's peak
  resident set (ru_maxrss) in MB and that of its largest worker (0 when no
  worker ran), CSV sha256, and per (distribution, scheme) group the seconds
  of its reference risk, of its replications (summed over the workers) and
  of its metrics, and the microseconds per replication;
- with --workers, the same study again once per listed count, with the
  count of usable CPUs forced to it (`bench._usable_cpus`), under
  "study_<count>_cpus": more workers than cores time-share the cores, so
  the wall time is not that of a machine with that many cores, but the
  calling process's peak resident set shows what it holds when that many
  workers finish tasks while it waits on one;
- start-up: over STARTUP_RUNS fresh interpreters that each run
  `import riskbench.cli` and exit, the median wall seconds of the whole
  process and the median of its peak resident set (ru_maxrss) in MB;
- the axiom battery: for es1, expvar and gaussian, `riskbench coherence
  --json` at n = 250, 300 trials, seed 42, in one fresh process: the median
  seconds over COHERENCE_RUNS runs, the estimator evaluations (probe rows
  scored) per run, and evaluations per second at that median;
- the consistency ladder: the `axioms` workload's `riskbench consistency`
  command (LADDER_ARGV) through `cli.main`, in one fresh process on every
  usable CPU and in another pinned to one CPU by its affinity mask: the
  median seconds over LADDER_RUNS runs and the sha256 of the output, which
  every run must repeat;
- the end-to-end medians of every workload in the tree's BENCHMARK.json,
  from its perfbench/run.py run unmodified as a subprocess at the
  benchmark's own run length and main seed.

Every child runs with one BLAS thread, as the benchmark's children do.
Takes about three minutes per tree on a 2-core machine.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter: argv[1] is the tree's src directory and
# argv[2], if given, the number of usable CPUs to force. Times run_study
# plus to_csv and reads each group's phase seconds from the table's
# metadata["timings"]; the study's tasks may run in forked workers, so no
# wrapper here could time them.
STUDY_CHILD = r"""
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy
from riskbench import bench

if len(sys.argv) > 2:
    bench._usable_cpus = lambda: int(sys.argv[2])
config = bench.BenchConfig()
start = time.perf_counter()
table = bench.run_study(config)
text = table.to_csv()
wall = time.perf_counter() - start
timings = table.metadata["timings"]
groups = {}
for key, phases in timings["groups"].items():
    us = round(phases["replications_s"] / config.k * 1e6, 3)
    groups[key] = {**phases, "us_per_replication": us}
print(json.dumps({
    "config": config.to_dict(),
    "wall_s": round(wall, 3),
    "workers": timings["workers"],
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    "workers_peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1
    ),
    "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
    "groups": groups,
    "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
}))
"""


# Run in a fresh interpreter: argv[1] is the tree's src directory. Prints
# the process's peak resident set in KB once the CLI module is imported.
STARTUP_CHILD = r"""
import resource, sys
sys.path.insert(0, sys.argv[1])
import riskbench.cli
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
STARTUP_RUNS = 7

# Run in a fresh interpreter: argv[1] is the tree's src directory. Times
# each battery of COHERENCE_ARGV through cli.main, stdout discarded, and
# counts the rows that coherence._rows' scorers are handed.
COHERENCE_CHILD = r"""
import contextlib, io, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from riskbench import cli, coherence

evals, rows_of = [0], coherence._rows

def counted(estimator):
    score = rows_of(estimator)
    def count(block):
        evals[0] += len(block)
        return score(block)
    return count

coherence._rows = counted
out = {}
for name in json.loads(sys.argv[2]):
    argv = ["coherence", "--estimator", name, *json.loads(sys.argv[3])]
    seconds = []
    for _ in range(int(sys.argv[4])):
        evals[0] = 0
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        seconds.append(time.perf_counter() - start)
    median = statistics.median(seconds)
    out[name] = {"exit_status": rc, "seconds": round(median, 4), "evals": evals[0],
                 "evals_per_s": round(evals[0] / median)}
print(json.dumps(out))
"""
COHERENCE_ESTIMATORS = ("es1", "expvar", "gaussian")
COHERENCE_ARGV = ("--n", "250", "--trials", "300", "--seed", "42", "--json")
COHERENCE_RUNS = 5


# Run in a fresh interpreter: argv[1] is the tree's src directory, argv[2]
# the command line as JSON, argv[3] the number of runs and argv[4] "1" to pin
# the process to one CPU first. Times each run of cli.main and fails when two
# runs print different bytes.
LADDER_CHILD = r"""
import contextlib, hashlib, io, json, os, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from riskbench import cli

if sys.argv[4] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
seconds, digests = [], set()
for _ in range(int(sys.argv[3])):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(json.loads(sys.argv[2]))
    seconds.append(time.perf_counter() - start)
    digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
if len(digests) != 1:
    sys.exit(f"runs printed different outputs: {sorted(digests)}")
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "exit_status": rc,
                  "seconds": round(statistics.median(seconds), 4),
                  "output_sha256": digests.pop()}))
"""
# perfbench's `axioms` ladder at its main seed (perfbench/run.py consistency_op)
LADDER_ARGV = ("consistency", "--spectrum", "es", "--builder", "integral", "--alpha", "0.025",
               "--n", "100,1000,10000,100000", "--dist", "normal:0:1", "--reps", "50",
               "--seed", "42")
LADDER_RUNS = 7


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def git(tree: Path, *args: str):
    try:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(tree: Path) -> str:
    """sha256 over the package's Python files, names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "riskbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }
    try:
        facts["loadavg_at_start"] = Path("/proc/loadavg").read_text().split()[:3]
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return facts


def run_study(tree: Path, cpus: Optional[int] = None) -> dict:
    forced = [] if cpus is None else [str(cpus)]
    proc = subprocess.run(
        [sys.executable, "-c", STUDY_CHILD, str(tree / "src"), *forced],
        capture_output=True, text=True, cwd=tree, env=child_env(), check=True,
    )
    return json.loads(proc.stdout)


def run_startup(tree: Path) -> dict:
    wall, rss_mb = [], []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD, str(tree / "src")],
            capture_output=True, text=True, cwd=tree, env=child_env(), check=True,
        )
        wall.append(time.perf_counter() - start)
        rss_mb.append(int(proc.stdout) / 1024.0)
    return {
        "runs": STARTUP_RUNS,
        "wall_s": round(statistics.median(wall), 4),
        "peak_rss_mb": round(statistics.median(rss_mb), 1),
    }


def run_coherence(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", COHERENCE_CHILD, str(tree / "src"),
         json.dumps(COHERENCE_ESTIMATORS), json.dumps(COHERENCE_ARGV), str(COHERENCE_RUNS)],
        capture_output=True, text=True, cwd=tree, env=child_env(), check=True,
    )
    return {"argv": list(COHERENCE_ARGV), "runs": COHERENCE_RUNS, **json.loads(proc.stdout)}


def run_ladder(tree: Path) -> dict:
    out = {"argv": list(LADDER_ARGV), "runs": LADDER_RUNS}
    for key, pin in (("all_cpus", "0"), ("one_cpu", "1")):
        proc = subprocess.run(
            [sys.executable, "-c", LADDER_CHILD, str(tree / "src"), json.dumps(LADDER_ARGV),
             str(LADDER_RUNS), pin],
            capture_output=True, text=True, cwd=tree, env=child_env(), check=True,
        )
        out[key] = json.loads(proc.stdout)
    return out


def run_workload(tree: Path, name: str, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=tree, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "fail_frac": line["failed"] / line["attempted"],
        **{metric: v["value"] for metric, v in line["metrics"].items()},
    }


def source_tree(parser, path: Path) -> Path:
    tree = path.resolve()
    if not (tree / "src" / "riskbench" / "__init__.py").is_file():
        parser.error(f"no riskbench source tree at {tree}")
    return tree


def tree_facts(tree: Path) -> dict:
    return {
        "git_commit": git(tree, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": source_digest(tree),
    }


def _counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        counts = ()
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers such as 8,16, got {text!r}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--tree", type=Path, default=REPO, help="source tree to measure")
    parser.add_argument("--before", type=Path, help="a second tree, measured in turn with --tree")
    parser.add_argument(
        "--workers", type=_counts, default=(),
        help="comma-separated CPU counts to force for extra runs of the study",
    )
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error(f"label must be letters, digits, '-' or '_', got {args.label!r}")
    trees = {"after": source_tree(parser, args.tree)}
    if args.before is not None:
        trees = {"before": source_tree(parser, args.before), **trees}
    benchmark = json.loads((trees["after"] / "BENCHMARK.json").read_text())

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    header = {"label": args.label, "started_utc": started, "machine": machine_facts()}
    records = {key: tree_facts(tree) for key, tree in trees.items()}
    sections = [
        ("startup", "start-up", run_startup),
        ("study", "full default study", run_study),
        ("coherence", "coherence batteries", run_coherence),
        ("consistency", "consistency ladder", run_ladder),
    ]
    sections[2:2] = [
        (f"study_{cpus}_cpus", f"full default study on {cpus} forced CPUs",
         functools.partial(run_study, cpus=cpus))
        for cpus in args.workers
    ]
    for field, what, run in sections:
        for key, tree in trees.items():
            print(f"{what} in {tree} ...", file=sys.stderr)
            records[key][field] = run(tree)
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for key, tree in trees.items():
            print(f"perfbench {name} in {tree} ...", file=sys.stderr)
            perfbench = records[key].setdefault("perfbench", {})
            perfbench[name] = run_workload(tree, name, benchmark["run_seconds"])

    record = {**header, **records} if args.before is not None else {**header, **records["after"]}
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
