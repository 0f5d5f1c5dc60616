# Every case here reaches src/riskbench only through riskbench.cli.main; a
# direct call into the library runs in a subprocess. That keeps this file a
# harness of the command line alone, which tools/reach.py runs to find the
# functions and knobs that no command reaches.
import json
import subprocess
import sys
import warnings
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


def _no_compute(*args, **kwargs):
    raise AssertionError("compute ran before the input was checked")


@pytest.fixture
def usage_error(capsys, monkeypatch, tmp_path):
    """A function from a bad command line to the last line it prints on
    stderr, after checking that it exits 2 with nothing on stdout while every
    compute entry of the command line, and every generator, fails. {tmp} in
    an argument is tmp_path, which holds undecodable.json, malformed.json,
    out-key.json and null-names.json."""
    for entry in (
        "run_study", "check_all", "extract_comonotonic_weights", "true_risk",
        "empirical_consistency",
    ):
        monkeypatch.setattr(cli, entry, _no_compute)
    monkeypatch.setattr(RandomnessContract, "stream", _no_compute)
    monkeypatch.setattr(np.random, "default_rng", _no_compute)
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe")
    (tmp_path / "malformed.json").write_text('{"k": 30,')
    (tmp_path / "out-key.json").write_text('{"out": "rows.csv"}')
    (tmp_path / "null-names.json").write_text('{"distributions": null}')

    def last_line(argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err.splitlines()[-1]

    return last_line


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
        for name in ("es1", "var"):
            code, out, _ = run_cli(
                capsys, "weights", "--estimator", name, "--alpha", "0.1", "--n", "50", "--csv"
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "position,weight"
            assert len(lines) == 51
            assert lines[1].startswith("1,")

    def test_unknown_estimator_raises(self, usage_error):
        # weights prints weights, so it offers only the weight-based names
        assert usage_error(["weights", "--estimator", "es9"]).startswith(
            "riskbench: error: --estimator: unknown estimator 'es9';"
            f" expected one of [{WEIGHT_NAMES}]"
        )

    # the name, --alpha and an --n the level leaves no tail for go through the
    # check that coherence and extract use; an --n below 1 fails its own type
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--estimator", "es9"], "--estimator"),
            (["--estimator", "es1", "--alpha", "2"], "--alpha"),
            (["--estimator", "es1", "--n", "0"], "--n"),
            (["--estimator", "es1", "--n", "10"], "--n"),
        ],
    )
    def test_bad_name_level_or_size_names_the_flag(self, usage_error, argv, flag):
        own = argv[-2:] == ["--n", "0"]
        report = "riskbench weights: error: argument" if own else "riskbench: error:"
        assert usage_error(["weights", *argv]).startswith(f"{report} {flag}: ")


class TestCoherence:
    def test_coherent_estimator_exits_zero(self, capsys):
        for seed in ("0", "7"):
            code, out, _ = run_cli(
                capsys, "coherence", "--estimator", "es2", "--trials", "50", "--n", "40",
                "--seed", seed,
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
    def test_unknown_name_lists_the_black_boxes(self, usage_error, command):
        assert usage_error([command, "--estimator", "es9"]).startswith(
            "riskbench: error: --estimator: unknown estimator 'es9';"
            f" expected one of [{ALL_NAMES}]"
        )

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-1")])
    def test_out_of_range_flag_is_a_usage_error(self, usage_error, flag, value):
        last = usage_error(["coherence", "--estimator", "es1", "--n", "50", flag, value])
        assert last.startswith(f"riskbench coherence: error: argument {flag}: ")

    @pytest.mark.parametrize("command", ["coherence", "extract"])
    def test_gaussian_sample_of_one_names_the_flag(self, usage_error, command):
        assert usage_error([command, "--estimator", "gaussian", "--n", "1"]) == (
            "riskbench: error: --n: gaussian needs n >= 2, got 1"
        )

    # --alpha and --n are checked for every kind of estimator before any
    # probe is drawn; an --n below 1 fails its own type, the rest the name
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
    def test_bad_level_or_size_names_the_flag(self, usage_error, argv, flag):
        own = argv[-2:] == ["--n", "0"]
        report = f"riskbench {argv[0]}: error: argument" if own else "riskbench: error:"
        assert usage_error(argv).startswith(f"{report} {flag}: ")


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
    def test_too_small_oracle_k_is_a_usage_error(self, usage_error, oracle_k):
        # -5 fails the flag's own floor, 100 the oracle's batch rule at --alpha
        last = usage_error(["true-risk", "--dist", "nig:0.4:0.14:0:1", "--oracle-k", oracle_k])
        own = int(oracle_k) < 1
        report = "riskbench true-risk: error: argument" if own else "riskbench: error:"
        assert last.startswith(f"{report} --oracle-k: ")

    @pytest.mark.parametrize("dist", ["nig:0.4:0.14:0:1", "normal:0:1"])
    @pytest.mark.parametrize("oracle_k", ["-5", "0"])
    def test_oracle_k_below_one_is_rejected_first(self, usage_error, dist, oracle_k):
        # a closed-form target draws no oracle but still rejects the size;
        # argparse checks the flags in command-line order
        last = usage_error(["true-risk", "--dist", dist, "--oracle-k", oracle_k, "--seed", "-1"])
        assert last == (
            f"riskbench true-risk: error: argument --oracle-k: need at least 1, got {oracle_k}"
        )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--dist", "t:5", "--alpha", "1"], "--alpha"),
            (["--dist", "nig:0.4"], "--dist"),
        ],
    )
    def test_bad_level_or_distribution_names_the_flag(self, usage_error, argv, flag):
        assert usage_error(["true-risk", *argv]).startswith(f"riskbench: error: {flag}: ")

    def test_negative_seed_is_a_usage_error(self, usage_error):
        last = usage_error(["true-risk", "--dist", "nig:0.4:0.14:0:1", "--seed", "-1"])
        assert last.startswith("riskbench true-risk: error: argument --seed: ")

    @pytest.mark.parametrize(
        "argv, line",
        [
            # scipy's t quantile at 1e-300 is +inf
            (
                ["--dist", "t:5", "--alpha", "1e-300"],
                "t:5 at level 1e-300: the t quantile is not finite, got inf",
            ),
            # sigma * Phi^-1(0.01) overflows
            (
                ["--dist", "normal:0:1e308", "--alpha", "0.01"],
                "normal:0:1e308 at level 0.01: VaR and ES must be finite, got inf and inf",
            ),
        ],
    )
    def test_non_finite_reference_is_a_usage_error(self, capsys, argv, line):
        # the closed form runs and its value is refused: one error line, exit
        # 2, nothing on stdout, and no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main(["true-risk", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [text for text in captured.err.splitlines() if "error:" in text]
        assert errors == [f"riskbench: error: --dist {line}"]


class TestConsistency:
    def test_csv_output(self, capsys):
        for builder in ("integral", "alternative"):
            code, out, _ = run_cli(
                capsys, "consistency", "--n", "50,200", "--reps", "10", "--seed", "1",
                "--builder", builder,
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
    # before any draw; --seed fails its own type, the rest fail in the command
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
    def test_bad_size_level_or_distribution_names_the_flag(self, usage_error, argv, flag):
        own = flag == "--seed"
        report = "riskbench consistency: error: argument" if own else "riskbench: error:"
        assert usage_error(["consistency", *argv]).startswith(f"{report} {flag}: ")

    def test_single_replication_names_the_flag(self, usage_error):
        assert usage_error(["consistency", "--reps", "1"]).startswith(
            "riskbench consistency: error: argument --reps: "
        )

    def test_non_finite_risk_names_the_law(self, capsys):
        # sigma * Phi^-1(0.01) overflows: the es target is refused before any
        # draw, as --dist, with one error line, exit 2 and nothing on stdout
        argv = ["--spectrum", "es", "--alpha", "0.01", "--dist", "normal:0:1e308"]
        with pytest.raises(SystemExit) as exc:
            main(["consistency", *argv, "--n", "100", "--reps", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [text for text in captured.err.splitlines() if "error:" in text]
        assert errors == ["riskbench: error: --dist: VaR and ES must be finite, got inf and inf"]

    def test_non_finite_row_names_the_law(self):
        # the uniform target -E[X] = 0 is finite, but the draws overflow and
        # the row's median is nan. numpy warns on the way, which the suite's
        # warning filter makes an error in process, so it runs in a subprocess
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import riskbench.cli as cli; "
            "sys.exit(cli.main(sys.argv[2:]))"
        )
        argv = ["consistency", "--spectrum", "uniform", "--dist", "normal:0:1e308"]
        proc = subprocess.run(
            [sys.executable, "-c", probe, src, *argv, "--n", "100", "--reps", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        errors = [text for text in proc.stderr.splitlines() if "error:" in text]
        assert errors == ["riskbench: error: --dist: median_abs_error at n=100 is nan, not finite"]

    @pytest.mark.parametrize("dist", ["normal:0:1", "nig:0.4:0.14:0:1"])
    def test_uniform_spectrum_ignores_the_level(self, capsys, dist):
        # --alpha is the es spectrum's level; the sample mean has none, and
        # its target is the negated mean, which the NIG has in closed form
        argv = [
            "consistency", "--spectrum", "uniform", "--dist", dist, "--n", "50", "--reps", "5"
        ]
        assert run_cli(capsys, *argv, "--alpha", "0") == run_cli(capsys, *argv)


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
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({
            "distributions": ["normal:0:1"],
            "schemes": ["iid"],
            "estimators": ["es1", "es2"],
            "k": 60,
            "oracle_k": 50000,
            "seed": 11,
        }))
        return str(path)

    def test_stdout_csv(self, capsys, tmp_path, config):
        # a t(5) draws its own sample; its 3-day sums have only an oracle reference
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps({
            "distributions": ["t:5"],
            "schemes": ["iid", "overlapping:3"],
            "estimators": ["es1"],
            "k": 60,
        }))
        for argv in (["--config", config], ["--config", str(heavy), "--oracle-k", "4000"]):
            code, out, _ = run_cli(capsys, "bench", *argv)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "distribution,scheme,estimator,alpha,n,K,metric,value,mc_stderr"
            assert len(lines) == 1 + 2 * 5

    def test_out_file_and_table(self, capsys, tmp_path, config):
        dest = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "bench", "--config", config, "--out", str(dest), "--table")
        assert code == 0
        assert f"wrote 10 rows to {dest}" in out
        assert "== normal:0:1 | iid ==" in out
        assert dest.read_text().splitlines()[0].startswith("distribution,")

    def test_flag_overrides_config(self, capsys, config):
        code, out, _ = run_cli(
            capsys, "bench", "--config", config, "--k", "40", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["config"]["k"] == 40
        assert payload["rows"][0]["K"] == 40


def one_row_per_id(*rows):
    """{id: the rest of its row} from rows that each start with their id. A
    repeated id fails at import, where merged dicts would keep its last row."""
    cases = {}
    for key, *case in rows:
        if key in cases:
            raise ValueError(f"row id {key!r} is repeated")
        cases[key] = tuple(case)
    return cases


# (command line up to the flag, the flag, the least value its type takes): the
# integer flags, whose bad values are a non-number, NaN, inf, the empty string
# and each of -1, 0 and 1 below the least one, all argparse's report
INTEGER_FLAGS = {
    "weights-n": (["weights", "--estimator", "es1"], "--n", 1),
    "coherence-n": (["coherence", "--estimator", "es1"], "--n", 1),
    "coherence-gaussian-n": (["coherence", "--estimator", "gaussian"], "--n", 1),
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
    "extract-gaussian-n": (["extract", "--estimator", "gaussian"], "--n", 1),
}


def _integer_rows():
    for key, (argv, flag, least) in INTEGER_FLAGS.items():
        report = f"riskbench {argv[0]}: error: argument {flag}:"
        for label, value in [("non-number", "x"), ("nan", "nan"), ("inf", "inf"), ("empty", "")]:
            why = f"expected an integer, got {value!r}"
            yield f"{key}-{label}", [*argv, flag, value], f"{report} {why}"
        for label, value in [("negative", -1), ("zero", 0), ("one", 1)]:
            if value < least:
                why = f"need at least {least}, got {value}"
                yield f"{key}-{label}", [*argv, flag, str(value)], f"{report} {why}"


WEIGHT_NAMES = "'es1', 'es2', 'es3', 'es4', 'es5', 'es6', 'var', 'var1'"
ALL_NAMES = "'es1', 'es2', 'es3', 'es4', 'es5', 'es6', 'expvar', 'gaussian', 'var', 'var1'"
SIZES = "riskbench consistency: error: argument --n: expected distinct comma separated sizes, got"
LEVEL = "level alpha must lie in (0, 1), got"
NO_TAIL = "need floor(alpha*n) >= 1, got alpha*n ="
BATCH = "leaves 6 draws per oracle batch, too few for a tail average at level 0.025"
NOT_A_FILE = "is not a file in an existing directory"

# id -> (argv, the start of the last stderr line). A value bad for its flag
# alone is argparse's `riskbench <command>: error: argument --flag: ` report; a
# name, a rule across flags or a file is riskbench's `riskbench: error: --flag: `
# report. {tmp} is a scratch directory holding undecodable.json, malformed.json,
# out-key.json and null-names.json.
BAD_INPUT = one_row_per_id(
    *_integer_rows(),
    ("no-command", [], "riskbench: error: the following arguments are required: command"),
    ("weights-json-and-csv", ["weights", "--estimator", "es1", "--json", "--csv"],
     "riskbench weights: error: argument --csv: not allowed with argument --json"),
    # the size list: one or more distinct integers, each with its weights
    ("consistency-n-non-number", ["consistency", "--n", "100,abc"], f"{SIZES} '100,abc'"),
    ("consistency-n-nan", ["consistency", "--n", "nan"], f"{SIZES} 'nan'"),
    ("consistency-n-empty", ["consistency", "--n", ""], f"{SIZES} ''"),
    ("consistency-n-blank", ["consistency", "--n", " , "], f"{SIZES} ' , '"),
    ("consistency-n-duplicate", ["consistency", "--n", "100,100"], f"{SIZES} '100,100'"),
    ("consistency-n-duplicate-spelling", ["consistency", "--n", "100,0100"],
     f"{SIZES} '100,0100'"),
    ("consistency-n-negative", ["consistency", "--n", "-100"],
     "riskbench: error: --n: sample size n must be a positive integer, got -100"),
    ("consistency-n-zero", ["consistency", "--n", "0"],
     "riskbench: error: --n: sample size n must be a positive integer, got 0"),
    ("consistency-n-no-tail", ["consistency", "--n", "100,3"],
     f"riskbench: error: --n: {NO_TAIL} 0.07500000000000001"),
    # names; weights prints weights, so it lists only the weight-based ones
    *(
        (f"{command}-estimator-{label}", [command, "--estimator", value],
         f"riskbench: error: --estimator: unknown estimator {value!r}; expected one of [{names}]")
        for command, names in [
            ("weights", WEIGHT_NAMES), ("coherence", ALL_NAMES), ("extract", ALL_NAMES)
        ]
        for label, value in [("unknown", "es9"), ("empty", "")]
    ),
    *(
        (f"{command}-dist-{label}", [command, "--dist", value], f"riskbench: error: --dist: {why}")
        for command in ("true-risk", "consistency")
        for label, value, why in [
            ("unknown", "lognormal:0:1",
             "unknown distribution kind 'lognormal' in 'lognormal:0:1'"),
            ("short", "nig:0.4", "malformed distribution spec 'nig:0.4'"),
            ("empty", "", "unknown distribution kind '' in ''"),
        ]
    ),
    ("consistency-spectrum-unknown", ["consistency", "--spectrum", "x"],
     "riskbench consistency: error: argument --spectrum: invalid choice: 'x'"),
    ("consistency-builder-unknown", ["consistency", "--builder", "x"],
     "riskbench consistency: error: argument --builder: invalid choice: 'x'"),
    ("bench-format-unknown", ["bench", "--format", "x"],
     "riskbench bench: error: argument --format: invalid choice: 'x'"),
    # a level against the estimator that reads it
    ("weights-alpha", ["weights", "--estimator", "es1", "--alpha", "2"],
     f"riskbench: error: --alpha: {LEVEL} 2.0"),
    ("coherence-alpha", ["coherence", "--estimator", "es1", "--alpha", "1.5"],
     f"riskbench: error: --alpha: {LEVEL} 1.5"),
    *(
        (f"{command}-expvar-alpha", [command, "--estimator", "expvar", "--alpha", "0.7"],
         "riskbench: error: --alpha: expvar needs a level in (0, 1/2], got 0.7")
        for command in ("coherence", "extract")
    ),
    ("extract-gaussian-alpha", ["extract", "--estimator", "gaussian", "--alpha", "0"],
     f"riskbench: error: --alpha: {LEVEL} 0.0"),
    ("true-risk-alpha", ["true-risk", "--dist", "t:5", "--alpha", "nan"],
     f"riskbench: error: --alpha: {LEVEL} nan"),
    ("true-risk-alpha-one", ["true-risk", "--dist", "t:5", "--alpha", "1"],
     f"riskbench: error: --alpha: {LEVEL} 1.0"),
    ("consistency-alpha", ["consistency", "--alpha", "0"],
     f"riskbench: error: --alpha: {LEVEL} 0.0"),
    # rules across flags, each checked by the code that owns it
    ("weights-n-no-tail", ["weights", "--estimator", "es1", "--n", "10"],
     f"riskbench: error: --n: {NO_TAIL} 0.25"),
    ("coherence-n-no-tail", ["coherence", "--estimator", "es1", "--n", "1"],
     f"riskbench: error: --n: {NO_TAIL} 0.025"),
    # gaussian's sample size is checked against the name; expvar's is the type's
    *(
        (f"{command}-gaussian-n-one", [command, "--estimator", "gaussian", "--n", "1"],
         "riskbench: error: --n: gaussian needs n >= 2, got 1")
        for command in ("coherence", "extract")
    ),
    ("coherence-expvar-n-zero", ["coherence", "--estimator", "expvar", "--n", "0"],
     "riskbench coherence: error: argument --n: need at least 1, got 0"),
    ("true-risk-oracle-k-batch", ["true-risk", "--dist", "nig:0.4:0.14:0:1", "--oracle-k", "100"],
     f"riskbench: error: --oracle-k: 100 {BATCH}"),
    # argparse checks the flags in command-line order: the size before the seed
    ("true-risk-oracle-k-before-seed",
     ["true-risk", "--dist", "normal:0:1", "--oracle-k", "0", "--seed", "-1"],
     "riskbench true-risk: error: argument --oracle-k: need at least 1, got 0"),
    # the NIG es target's oracle is too small for this level: caught before
    # the 10^6 weights are built
    ("consistency-alpha-oracle",
     ["consistency", "--dist", "nig:0.4:0.14:0:1", "--alpha", "1e-6", "--n", "1000000"],
     "riskbench: error: --alpha: 10000000 leaves 500000 draws per oracle batch, too few for a"
     " tail average at level 1e-06"),
    ("bench-k-tail", ["bench", "--k", "5"], "riskbench: error: --k: k must be at least 20, got 5"),
    ("bench-oracle-k-batch", ["bench", "--oracle-k", "100"],
     f"riskbench: error: --oracle-k: oracle_k: 100 {BATCH}"),
    # files, before any compute; where the results go is --out, not a config key
    ("bench-config-missing", ["bench", "--config", "{tmp}/missing.json"],
     "riskbench: error: --config: "),
    ("bench-config-empty", ["bench", "--config", ""], "riskbench: error: --config: "),
    ("bench-config-directory", ["bench", "--config", "{tmp}"], "riskbench: error: --config: "),
    ("bench-config-undecodable", ["bench", "--config", "{tmp}/undecodable.json"],
     "riskbench: error: --config: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("bench-config-malformed", ["bench", "--config", "{tmp}/malformed.json"],
     "riskbench: error: --config: Expecting property name enclosed in double quotes"),
    ("bench-config-out-key", ["bench", "--config", "{tmp}/out-key.json"],
     "riskbench: error: unknown config keys: ['out']"),
    ("bench-config-null-names", ["bench", "--config", "{tmp}/null-names.json"],
     "riskbench: error: distributions must be a list of names, got None"),
    ("bench-out-empty", ["bench", "--out", ""], f"riskbench: error: --out: '' {NOT_A_FILE}"),
    ("bench-out-missing-directory", ["bench", "--out", "{tmp}/no/such/dir/x.csv"],
     f"riskbench: error: --out: '{{tmp}}/no/such/dir/x.csv' {NOT_A_FILE}"),
    ("bench-out-directory", ["bench", "--out", "{tmp}"],
     f"riskbench: error: --out: '{{tmp}}' {NOT_A_FILE}"),
)


@pytest.mark.parametrize("argv, line", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_fails_before_compute(usage_error, tmp_path, argv, line):
    last = usage_error(argv)
    assert last.startswith(line.format(tmp=tmp_path)), last


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
    "parse-t": ("riskbench.distributions.parse_dist('t:5')", True),
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
