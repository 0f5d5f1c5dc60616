"""One benchmark child process: runs riskbench operations through its public API.

Reads one JSON job from stdin and writes one JSON report to stdout. The job
carries only generated inputs, never a workload name:

    {"src": "<dir holding the riskbench package>", "spawned": <monotonic time>,
     "trace": false,
     "ops": [{"config": "<BenchConfig JSON>"} | {"argv": ["coherence", ...]}]}

A ``config`` op calls ``run_study`` and ``ResultTable.to_csv``; an ``argv`` op
calls ``riskbench.cli.main`` with stdout captured. The report holds set-up
time (spawn until the first call is ready), workload wall time, the times
of a fixed reference kernel run just before and after the workload, peak
RSS, each op's output or error, and with ``trace`` the per-layer span
summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

# Reference-kernel timings taken before and after the workload.
REFERENCE_REPEATS = 3


def _reference_s(numpy) -> float:
    """Seconds one fixed kernel takes: per-row Philox streams, normal draws,
    sort, dot product and a little pure-Python arithmetic, the same mix as
    riskbench's hot paths but none of its code. Its time tracks the speed
    the shared machine gives this process at the moment."""
    w = numpy.linspace(1.0, 0.0, 250)
    w /= w.sum()
    acc = 0.0
    start = time.perf_counter()
    for key in range(1600):
        x = numpy.random.Generator(numpy.random.Philox(key=key)).standard_normal(250)
        x.sort()
        acc += float(x @ w)
        for j in range(40):
            acc += (j * 0.5) % 3.0
    return time.perf_counter() - start


def _run_op(op, bench, cli, config):
    if config is not None:
        return {"rc": 0, "output": bench.run_study(config).to_csv()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op["argv"])
    return {"rc": rc, "output": out.getvalue()}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import numpy
    import scipy

    import riskbench
    from riskbench import bench, cli, coherence, consistency, distributions
    from riskbench import estimators, metrics, sampling

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(
            {
                "bench": bench,
                "cli": cli,
                "coherence": coherence,
                "consistency": consistency,
                "distributions": distributions,
                "estimators": estimators,
                "metrics": metrics,
                "sampling": sampling,
            }
        )
    configs = [
        bench.BenchConfig.from_json(op["config"]) if "config" in op else None
        for op in job["ops"]
    ]
    ready = time.monotonic()
    reference = [_reference_s(numpy) for _ in range(REFERENCE_REPEATS)]

    start = time.monotonic()
    results = []
    for op, config in zip(job["ops"], configs):
        try:
            results.append(_run_op(op, bench, cli, config))
        except Exception:
            results.append({"error": traceback.format_exc(limit=4)})
    done = time.monotonic()
    reference += [_reference_s(numpy) for _ in range(REFERENCE_REPEATS)]

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "setup_s": ready - job["spawned"],
        "wall_s": done - start,
        "reference_s": reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "riskbench_file": riskbench.__file__,
        "facts": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["counters"] = tracer.counters
        report["missing_hooks"] = tracer.missing
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
