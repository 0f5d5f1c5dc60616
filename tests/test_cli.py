# Every case here reaches src/riskbench only through riskbench.cli.main; a
# direct call into the library runs in a subprocess. That keeps this file a
# harness of the command line alone, which tools/reach.py runs beside the
# acceptance battery to find the functions and knobs nothing reaches.
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskbench import cli
from riskbench.cli import main
from riskbench.sampling import RandomnessContract


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeights:
    def test_default_listing(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--estimator", "es2")
        assert code == 0
        assert "estimator: es2" in out
        assert "is_cre: True" in out
        assert "a[1]" in out

    def test_json_weights_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--estimator", "es2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "es2"
        assert payload["n"] == 250
        weights = [float(w) for w in payload["weights"]]
        assert len(weights) == 250
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        # reprs carry full precision: parsing them back is exact
        assert float(payload["sum"]) == sum(weights)

    def test_csv_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--estimator", "es1", "--alpha", "0.1", "--n", "50"
        )
        code, out, _ = run_cli(
            capsys, "weights", "--estimator", "es1", "--alpha", "0.1", "--n", "50", "--csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "position,weight"
        assert len(lines) == 51
        assert lines[1].startswith("1,")

    def test_json_and_csv_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["weights", "--estimator", "es1", "--json", "--csv"])

    def test_unknown_estimator_raises(self, capsys):
        # reported like an argparse error: one line on stderr, exit status 2
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--estimator", "es9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("riskbench: error: --estimator: unknown estimator 'es9'")
        # weights prints weights, so it offers only the weight-based names
        assert "gaussian" not in last

    # the name, --alpha and --n go through the check that coherence and
    # extract use, and the message names the flag
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--estimator", "es9"], "--estimator"),
            (["--estimator", "es1", "--alpha", "2"], "--alpha"),
            (["--estimator", "es1", "--n", "0"], "--n"),
            (["--estimator", "es1", "--n", "10"], "--n"),
        ],
    )
    def test_bad_name_level_or_size_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["weights", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"riskbench: error: {flag}:")


class TestCoherence:
    def test_coherent_estimator_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "coherence", "--estimator", "es2", "--trials", "50", "--n", "40"
        )
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_gaussian_plugin_exits_one_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "coherence", "--estimator", "gaussian", "--trials", "50", "--n", "40"
        )
        assert code == 1
        assert "FAIL" in out
        assert "lhs=" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coherence",
            "--estimator",
            "es6",
            "--trials",
            "50",
            "--n",
            "40",
            "--json",
        )
        assert code == 1
        checks = json.loads(out)
        failed = [c["axiom"] for c in checks if not c["passed"]]
        assert failed == ["cash_additivity"]
        witness = next(c["witness"] for c in checks if not c["passed"])
        assert witness["defect"] != 0.0

    def test_black_box_names_ignore_case(self, capsys):
        # each black box fails an axiom: exit status 1 and a witness
        argv = ["coherence", "--alpha", "0.1", "--n", "40", "--trials", "50", "--json"]
        for name in cli._BLACK_BOXES:
            upper = run_cli(capsys, *argv, "--estimator", name.upper())
            lower = run_cli(capsys, *argv, "--estimator", name)
            assert upper == lower
            assert upper[0] == 1
            assert any(c["witness"] for c in json.loads(upper[1]) if not c["passed"])

    @pytest.mark.parametrize("command", ["coherence", "extract"])
    def test_unknown_name_lists_the_black_boxes(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--estimator", "es9"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("riskbench: error: --estimator: unknown estimator 'es9'")
        assert "'expvar'" in last and "'gaussian'" in last

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-1")])
    def test_out_of_range_flag_is_a_usage_error(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "check_all", pytest.fail)  # no battery runs
        with pytest.raises(SystemExit) as exc:
            main(["coherence", "--estimator", "es1", "--n", "50", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"riskbench coherence: error: argument {flag}:"
        )

    @pytest.mark.parametrize("command", ["coherence", "extract"])
    def test_gaussian_sample_of_one_names_the_flag(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "check_all", pytest.fail)  # no probe runs
        monkeypatch.setattr(cli, "extract_comonotonic_weights", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main([command, "--estimator", "gaussian", "--n", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("riskbench: error: --n:")

    # --alpha and --n are checked for every kind of estimator before any
    # probe is drawn, and the message names the flag
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["coherence", "--estimator", "es1", "--n", "1"], "--n"),
            (["extract", "--estimator", "es1", "--n", "0"], "--n"),
            (["coherence", "--estimator", "expvar", "--n", "0"], "--n"),
            (["coherence", "--estimator", "expvar", "--alpha", "0.7"], "--alpha"),
            (["extract", "--estimator", "expvar", "--alpha", "0.7"], "--alpha"),
            (["coherence", "--estimator", "es1", "--alpha", "1.5"], "--alpha"),
            (["extract", "--estimator", "gaussian", "--alpha", "0"], "--alpha"),
        ],
    )
    def test_bad_level_or_size_names_the_flag(self, capsys, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "check_all", pytest.fail)  # no probe runs
        monkeypatch.setattr(cli, "extract_comonotonic_weights", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"riskbench: error: {flag}:")


class TestTrueRisk:
    def test_closed_form(self, capsys):
        # the t's closed forms load scipy.special, the normal's quantile is
        # the ported Cephes ndtri
        for dist in ("t:5", "normal:0:1"):
            code, out, _ = run_cli(capsys, "true-risk", "--dist", dist)
            assert code == 0
            payload = json.loads(out)
            assert payload["method"] == "closed_form"
            assert payload["es_alpha"] > payload["var_alpha"] > 0
            assert payload["standard_error"] == 0.0

    def test_oracle_reports_its_inputs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "true-risk",
            "--dist",
            "nig:0.4:0.14:0:1",
            "--oracle-k",
            "40000",
            "--seed",
            "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "mc_oracle"
        assert payload["oracle_k"] == 40000
        assert payload["standard_error"] > 0

    @pytest.mark.parametrize("oracle_k", ["100", "-5"])
    def test_too_small_oracle_k_is_a_usage_error(self, capsys, oracle_k):
        # -5 fails the flag's own floor, 100 the oracle's batch rule at --alpha
        with pytest.raises(SystemExit) as exc:
            main(["true-risk", "--dist", "nig:0.4:0.14:0:1", "--oracle-k", oracle_k])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert re.match(r"riskbench( true-risk)?: error: (argument )?--oracle-k:", last)

    @pytest.mark.parametrize("dist", ["nig:0.4:0.14:0:1", "normal:0:1"])
    @pytest.mark.parametrize("oracle_k", ["-5", "0"])
    def test_oracle_k_below_one_is_rejected_first(self, capsys, monkeypatch, dist, oracle_k):
        # a closed-form target draws no oracle but still rejects the size;
        # argparse checks the flags in command-line order
        monkeypatch.setattr(cli, "true_risk", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(["true-risk", "--dist", dist, "--oracle-k", oracle_k, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"riskbench true-risk: error: argument --oracle-k: need at least 1, got {oracle_k}"
        )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--dist", "t:5", "--alpha", "1"], "--alpha"),
            (["--dist", "nig:0.4"], "--dist"),
        ],
    )
    def test_bad_level_or_distribution_names_the_flag(self, capsys, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "true_risk", pytest.fail)  # no reference runs
        with pytest.raises(SystemExit) as exc:
            main(["true-risk", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"riskbench: error: {flag}:")

    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "true_risk", pytest.fail)  # no oracle runs
        with pytest.raises(SystemExit) as exc:
            main(["true-risk", "--dist", "nig:0.4:0.14:0:1", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "riskbench true-risk: error: argument --seed:"
        )


class TestConsistency:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "consistency", "--n", "50,200", "--reps", "10", "--seed", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,median_abs_error,iqr"
        assert len(lines) == 3
        n, med, iqr = lines[1].split(",")
        assert int(n) == 50
        assert float(med) > 0
        assert float(iqr) >= 0

    # every size's weights, the level and the distribution are checked
    # before any draw, and the message names the flag
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--n", "100,3"], "--n"),
            (["--n", "0"], "--n"),
            (["--alpha", "0"], "--alpha"),
            (["--dist", "lognormal:0:1"], "--dist"),
            (["--seed", "-2"], "--seed"),
            # the NIG es target's oracle leaves too few draws per batch at
            # this level: caught before the 10^6 weights are built
            (["--dist", "nig:0.4:0.14:0:1", "--alpha", "1e-6", "--n", "1000000"], "--alpha"),
        ],
    )
    def test_bad_size_level_or_distribution_names_the_flag(
        self, capsys, monkeypatch, argv, flag
    ):
        monkeypatch.setattr(cli, "empirical_consistency", pytest.fail)  # no draws run
        with pytest.raises(SystemExit) as exc:
            main(["consistency", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # --seed fails its type in argparse; the rest fail in the command
        last = captured.err.splitlines()[-1]
        assert re.match(rf"riskbench( consistency)?: error: (argument )?{flag}:", last)

    @pytest.mark.parametrize("dist", ["normal:0:1", "nig:0.4:0.14:0:1"])
    def test_uniform_spectrum_ignores_the_level(self, capsys, dist):
        # --alpha is the es spectrum's level; the sample mean has none, and
        # its target is the negated mean, which the NIG has in closed form
        argv = [
            "consistency", "--spectrum", "uniform", "--dist", dist, "--n", "50", "--reps", "5"
        ]
        assert run_cli(capsys, *argv, "--alpha", "0") == run_cli(capsys, *argv)

    def test_single_replication_names_the_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "empirical_consistency", pytest.fail)  # no draws run
        with pytest.raises(SystemExit) as exc:
            main(["consistency", "--reps", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "riskbench consistency: error: argument --reps:"
        )


class TestExtract:
    def test_weight_based_estimator_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "extract", "--estimator", "es2", "--alpha", "0.1", "--n", "30"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "position,weight"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(weights) == 30
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_non_comonotonic_estimator_fails_cleanly(self, capsys):
        code, out, err = run_cli(
            capsys, "extract", "--estimator", "expvar", "--alpha", "0.25", "--n", "8"
        )
        assert code == 1
        assert out == ""
        assert "not representable" in err


class TestBench:
    CONFIG = {
        "distributions": ["normal:0:1"],
        "schemes": ["iid"],
        "estimators": ["es1", "es2"],
        "k": 60,
        "oracle_k": 50000,
        "seed": 11,
    }

    def test_stdout_csv(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "distribution,scheme,estimator,alpha,n,K,metric,value,mc_stderr"
        assert len(lines) == 1 + 2 * 5

    def test_out_file_and_table(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(self.CONFIG))
        dest = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--config", str(cfg), "--out", str(dest), "--table"
        )
        assert code == 0
        assert f"wrote 10 rows to {dest}" in out
        assert "== normal:0:1 | iid ==" in out
        assert dest.read_text().splitlines()[0].startswith("distribution,")

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run_cli(
            capsys, "bench", "--config", str(cfg), "--k", "40", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["config"]["k"] == 40
        assert payload["rows"][0]["K"] == 40

    def test_bad_config_field_is_a_usage_error(self, capsys, tmp_path):
        # where the results go is the --out flag, not a config key
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({**self.CONFIG, "out": "rows.csv"}))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "riskbench: error: unknown config keys: ['out']"

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


# (command line up to the flag, the flag, the least value it takes): the
# integer flags, whose bad values are a non-number, NaN, inf, the empty string
# and each of -1, 0 and 1 below the least one
INTEGER_FLAGS = {
    "weights-n": (["weights", "--estimator", "es1"], "--n", 1),
    "coherence-n": (["coherence", "--estimator", "es1"], "--n", 1),
    "coherence-gaussian-n": (["coherence", "--estimator", "gaussian"], "--n", 2),
    "coherence-trials": (["coherence", "--estimator", "es1", "--n", "50"], "--trials", 1),
    "coherence-seed": (["coherence", "--estimator", "es1", "--n", "50"], "--seed", 0),
    "true-risk-nig-oracle-k": (["true-risk", "--dist", "nig:0.4:0.14:0:1"], "--oracle-k", 1),
    # a closed form draws no oracle but still rejects the size
    "true-risk-normal-oracle-k": (["true-risk", "--dist", "normal:0:1"], "--oracle-k", 1),
    "true-risk-seed": (["true-risk", "--dist", "nig:0.4:0.14:0:1"], "--seed", 0),
    "consistency-reps": (["consistency"], "--reps", 2),
    "consistency-seed": (["consistency"], "--seed", 0),
    "bench-seed": (["bench"], "--seed", 0),
    "bench-k": (["bench"], "--k", 1),
    "bench-oracle-k": (["bench"], "--oracle-k", 1),
    "extract-n": (["extract", "--estimator", "es1"], "--n", 1),
    "extract-gaussian-n": (["extract", "--estimator", "gaussian"], "--n", 2),
}

# id -> (argv, the flag or field the error names); {tmp} is a scratch
# directory holding undecodable.json and malformed.json
BAD_INPUT = {
    **{
        f"{key}-{label}": ([*argv, flag, value], flag)
        for key, (argv, flag, least) in INTEGER_FLAGS.items()
        for label, value in [
            ("non-number", "x"),
            ("nan", "nan"),
            ("inf", "inf"),
            ("empty", ""),
            *[(name, str(v)) for name, v in [("negative", -1), ("zero", 0), ("one", 1)]
              if v < least],
        ]
    },
    # the size list: one or more distinct integers, each with its weights
    **{
        f"consistency-n-{label}": (["consistency", "--n", value], "--n")
        for label, value in [
            ("non-number", "100,abc"),
            ("nan", "nan"),
            ("empty", ""),
            ("blank", " , "),
            ("duplicate", "100,100"),
            ("duplicate-spelling", "100,0100"),
            ("negative", "-100"),
            ("zero", "0"),
            ("no-tail", "100,3"),
        ]
    },
    # names
    **{
        f"{command}-estimator-{label}": ([command, "--estimator", value], "--estimator")
        for command in ("weights", "coherence", "extract")
        for label, value in [("unknown", "es9"), ("empty", "")]
    },
    **{
        f"{command}-dist-{label}": ([command, "--dist", value], "--dist")
        for command in ("true-risk", "consistency")
        for label, value in [("unknown", "lognormal:0:1"), ("short", "nig:0.4"), ("empty", "")]
    },
    "consistency-spectrum-unknown": (["consistency", "--spectrum", "x"], "--spectrum"),
    "consistency-builder-unknown": (["consistency", "--builder", "x"], "--builder"),
    "bench-format-unknown": (["bench", "--format", "x"], "--format"),
    # a level against the estimator that reads it
    "weights-alpha": (["weights", "--estimator", "es1", "--alpha", "2"], "--alpha"),
    "coherence-alpha": (["coherence", "--estimator", "es1", "--alpha", "1.5"], "--alpha"),
    "coherence-expvar-alpha": (["coherence", "--estimator", "expvar", "--alpha", "0.7"], "--alpha"),
    "extract-gaussian-alpha": (["extract", "--estimator", "gaussian", "--alpha", "0"], "--alpha"),
    "true-risk-alpha": (["true-risk", "--dist", "t:5", "--alpha", "nan"], "--alpha"),
    "consistency-alpha": (["consistency", "--alpha", "0"], "--alpha"),
    # rules across flags, each checked by the code that owns it
    "weights-n-no-tail": (["weights", "--estimator", "es1", "--n", "10"], "--n"),
    "true-risk-oracle-k-batch": (
        ["true-risk", "--dist", "nig:0.4:0.14:0:1", "--oracle-k", "100"], "--oracle-k"
    ),
    # the NIG es target's oracle is too small for this level: caught before
    # the 10^6 weights are built
    "consistency-alpha-oracle": (
        ["consistency", "--dist", "nig:0.4:0.14:0:1", "--alpha", "1e-6", "--n", "1000000"],
        "--alpha",
    ),
    "bench-k-tail": (["bench", "--k", "5"], "--k"),
    "bench-oracle-k-batch": (["bench", "--oracle-k", "100"], "--oracle-k"),
    # files, before any compute
    "bench-config-missing": (["bench", "--config", "{tmp}/missing.json"], "--config"),
    "bench-config-empty": (["bench", "--config", ""], "--config"),
    "bench-config-directory": (["bench", "--config", "{tmp}"], "--config"),
    "bench-config-undecodable": (["bench", "--config", "{tmp}/undecodable.json"], "--config"),
    "bench-config-malformed": (["bench", "--config", "{tmp}/malformed.json"], "--config"),
    "bench-out-empty": (["bench", "--out", ""], "--out"),
    "bench-out-missing-directory": (["bench", "--out", "{tmp}/no/such/dir/x.csv"], "--out"),
    "bench-out-directory": (["bench", "--out", "{tmp}"], "--out"),
}


def _no_generator(*args, **kwargs):
    raise AssertionError("a generator was constructed")


@pytest.mark.parametrize("argv, flag", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_fails_before_compute(capsys, monkeypatch, tmp_path, argv, flag):
    # a bad value of one flag is argparse's `argument --flag:` report; a name,
    # a rule across flags or a file is riskbench's `--flag:` report
    monkeypatch.setattr(RandomnessContract, "stream", _no_generator)
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    monkeypatch.setattr(cli, "run_study", _no_generator)
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe")
    (tmp_path / "malformed.json").write_text('{"k": 30,')
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert re.match(rf"riskbench( {argv[0]})?: error: (argument )?{flag}: ", last), last


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # importing scipy.stats costs more start-up than all of riskbench; the
    # closed forms need at most scipy.special, so a fresh interpreter must not
    # load scipy.stats or scipy.integrate
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import riskbench, riskbench.cli; "
        "print(riskbench.__file__); "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    where, loaded = proc.stdout.splitlines()
    assert where.startswith(src)
    assert loaded == "[]"


# each probe runs in a fresh interpreter; the flag is whether it has loaded
# scipy.special
SPECIAL_PROBES = {
    "import": ("pass", False),
    "coherence-gaussian": (
        "cli.main(['coherence', '--estimator', 'gaussian', '--alpha', '0.1', '--n', '40',"
        " '--trials', '50'])",
        False,
    ),
    "consistency-normal": (
        "cli.main(['consistency', '--dist', 'normal:0:1', '--n', '100,300', '--reps', '3'])",
        False,
    ),
    # a study parses its distributions before it forks: its workers inherit
    # the module instead of each importing it
    "parse-t": ("riskbench.parse_dist('t:5')", True),
}


@pytest.mark.parametrize("call, loaded", SPECIAL_PROBES.values(), ids=SPECIAL_PROBES.keys())
def test_scipy_special_loads_only_with_a_student_t(call, loaded):
    # the normal quantile is a port of Cephes ndtri; only the Student-t
    # closed forms need scipy.special, loaded when a StudentT is constructed
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
        "import riskbench, riskbench.cli as cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): {call}\n"
        "print('scipy.special' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout == f"{loaded}\n"
