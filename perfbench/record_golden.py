"""Record perfbench/golden.json from the riskbench source tree in the current directory.

    python3 perfbench/record_golden.py

Runs every workload once at the main and the held-out seed, checks each
output against the seed-independent invariants, and stores the digest of
every op's output under a key derived from the op's exact inputs. Also
records the axioms workload's fixed estimator-evaluation count, taken from
a traced run at the main seed. Re-record only in a change that says why
the outputs moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    ops_golden = {}
    evals = None
    for seed in (run.MAIN_SEED, run.HELD_OUT_SEED):
        for name, workload in (
            ("study-closed", run.study_closed(seed)),
            ("study-oracle", run.study_oracle(seed)),
            ("axioms", run.axioms(seed, evals=0)),
        ):
            traced = name == "axioms" and seed == run.MAIN_SEED
            report = run.run_child(root, workload.ops, traced)
            for op, result in zip(workload.ops, report["results"]):
                got, problem = run.check_op(op, result, {}, {})
                if problem is not None:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                    return 1
                what = " ".join(op.child.get("argv", ["bench", op.child.get("config", "")]))
                ops_golden[op.key()] = {"digest": got, "workload": name, "seed": seed, "op": what}
            if traced:
                calls = report["layers"]["coherence.estimator"]["calls"]
                evals = calls + run.CONSISTENCY_REPS * len(run.CONSISTENCY_SIZES)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    golden = {"axioms_evals": evals, "ops": ops_golden}
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
