import dataclasses
import hashlib
import json
import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import table_value
from test_cli import _no_compute, one_row_per_id

from riskbench import bench
from riskbench.bench import (
    DEFAULT_DISTRIBUTIONS,
    DEFAULT_ESTIMATORS,
    METRICS,
    BenchConfig,
    ResultTable,
    format_metric_table,
    run_study,
)
from riskbench.distributions import Normal, StudentT
from riskbench.metrics import _BLOCK
from riskbench.sampling import RandomnessContract


def tiny_config(**overrides):
    base = dict(
        distributions=("normal:0:1",),
        schemes=("iid", "overlapping:10"),
        estimators=("es1", "es2"),
        k=100,
        oracle_k=50_000,
        seed=5,
    )
    base.update(overrides)
    return BenchConfig(**base)


def names(pool):
    # distinct entries: two that name one label are rejected
    return st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)


@st.composite
def configs(draw):
    n = draw(st.integers(200, 400))
    # var1 is defined at n = 250 only
    estimators = DEFAULT_ESTIMATORS if n == 250 else DEFAULT_ESTIMATORS[1:]
    return BenchConfig(
        alpha=draw(st.floats(0.01, 0.2)),
        n=n,
        k=draw(st.integers(100, 10**6)),
        seed=draw(st.integers(0, 2**64)),
        oracle_k=draw(st.integers(10**5, 10**8)),
        distributions=draw(names(DEFAULT_DISTRIBUTIONS)),
        estimators=draw(names(estimators)),
        schemes=draw(names(("iid", "overlapping:10", "overlapping:3"))),
    )


# id -> (fields that override tiny_config's, the start of the ValueError's
# message, which names the field at fault first)
BAD_CONFIG = one_row_per_id(
    # each field's type and range
    ("alpha-range", dict(alpha=1.5), "alpha: level alpha must lie in (0, 1), got 1.5"),
    ("alpha-string", dict(alpha="0.1"), "alpha must be a number, got '0.1'"),
    ("n-zero", dict(n=0), "n must be at least 1, got 0"),
    ("n-float", dict(n=2.5), "n must be an integer, got 2.5"),
    ("k-below-20", dict(k=10), "k must be at least 20, got 10"),
    ("k-float", dict(k=20.5), "k must be an integer, got 20.5"),
    ("k-bool", dict(k=True), "k must be an integer, got True"),
    ("seed-string", dict(seed="x"), "seed must be an integer, got 'x'"),
    ("seed-negative", dict(seed=-1), "seed must be at least 0, got -1"),
    ("oracle-k-negative", dict(oracle_k=-5), "oracle_k must be at least 1, got -5"),
    ("oracle-k-float", dict(oracle_k=2.5), "oracle_k must be an integer, got 2.5"),
    *(
        (f"{field}-string", {field: name},
         f"{field} must be a list of names, not the string {name!r}")
        for field, name in [("distributions", "t:5"), ("schemes", "iid"), ("estimators", "es1")]
    ),
    ("distributions-empty", dict(distributions=()),
     "distributions must name at least one entry"),
    ("estimators-non-string", dict(estimators=("es1", 2)),
     "estimators entries must be strings, got 2"),
    # a name list is a list: JSON's null, a number or an object is not one
    ("distributions-null", dict(distributions=None),
     "distributions must be a list of names, got None"),
    ("schemes-number", dict(schemes=5), "schemes must be a list of names, got 5"),
    ("estimators-object", dict(estimators={"es1": 1}),
     "estimators must be a list of names, got {'es1': 1}"),
    # names, parsed before any compute
    ("distributions-unknown", dict(distributions=("normal:0:1", "lognormal:0:1")),
     "distributions: unknown distribution kind 'lognormal' in 'lognormal:0:1'"),
    ("distributions-bad-parameter", dict(distributions=("t:x",)),
     "distributions: could not convert string to float: 'x'"),
    # infinity meets nu > 1, a > 0 and delta > 0: the message names finiteness
    ("distributions-t-infinite", dict(distributions=("t:inf",)),
     "distributions: need finite nu, got inf"),
    ("distributions-nig-infinite-a", dict(distributions=("nig:inf:0.1",)),
     "distributions: need finite a, b, mu and delta, got (inf, 0.1, 0.0, 1.0)"),
    ("distributions-nig-infinite-delta", dict(distributions=("nig:0.4:0.1:0:inf",)),
     "distributions: need finite a, b, mu and delta, got (0.4, 0.1, 0.0, inf)"),
    ("schemes-unknown", dict(schemes=("iid", "rolling")),
     "schemes: unknown sampling scheme 'rolling'"),
    ("schemes-no-window", dict(schemes=("overlapping:x",)),
     "schemes: unknown sampling scheme 'overlapping:x'"),
    ("schemes-empty-window", dict(schemes=("overlapping:",)),
     "schemes: unknown sampling scheme 'overlapping:'"),
    # a one-day window has one spelling, iid, and the message names it
    ("schemes-one-day-window", dict(schemes=("iid", "overlapping:1")),
     "schemes: sampling scheme 'overlapping:1' needs a window of at least 2; one-day outcomes"
     " are 'iid'"),
    ("estimators-unknown", dict(estimators=("es1", "es9")),
     "estimators: unknown estimator 'es9'; expected one of"),
    ("estimators-var1-size", dict(estimators=("var1",), n=100),
     "estimators: interpolated 1% VaR weights are defined for n=250 only, got n=100"),
    ("k-var1-tail", dict(estimators=("var1",), k=60),
     "k: estimator 'var1' at level 0.01: need 1 <= floor(alpha*n) < n, got 0 at n = 60"),
    # entries that parse to one label: one group run twice would write its
    # rows twice under one key
    ("schemes-repeated", dict(schemes=("iid", "iid")),
     "schemes: 'iid' and 'iid' both name 'iid'"),
    ("schemes-default-window", dict(schemes=("overlapping", "overlapping:10")),
     "schemes: 'overlapping' and 'overlapping:10' both name 'overlapping:10'"),
    ("distributions-respelled", dict(distributions=("normal:0:1", "normal:0.0:1.0")),
     "distributions: 'normal:0:1' and 'normal:0.0:1.0' both name 'normal:0:1'"),
    ("estimators-case", dict(estimators=("es1", "ES1")),
     "estimators: 'es1' and 'ES1' both name 'es1'"),
    # a location of 5 leaves the normal's true ES negative: the closed form
    # fails the config
    ("distributions-negative-reference", dict(distributions=("normal:5:1",)),
     "distributions: normal:5:1|iid: true risk must be a positive finite number"),
)


class TestConfig:
    def test_defaults_describe_the_full_study(self):
        c = BenchConfig()
        assert c.alpha == 0.025
        assert c.n == 250
        assert c.k == 100_000
        assert len(c.distributions) == 8
        assert c.estimators == ("var1", "es1", "es2", "es3", "es4", "es5", "es6")
        assert c.schemes == ("iid", "overlapping:10")

    def test_validation(self):
        # where the results go is no field of the study
        for name in ("out", "format"):
            with pytest.raises(TypeError, match=rf"\b{name}\b"):
                BenchConfig(**{name: "results.json"})

    @pytest.mark.parametrize("overrides, message", BAD_CONFIG.values(), ids=BAD_CONFIG.keys())
    def test_bad_config_fails_before_any_generator(self, monkeypatch, overrides, message):
        monkeypatch.setattr(RandomnessContract, "stream", _no_compute)
        monkeypatch.setattr(np.random, "default_rng", _no_compute)
        with pytest.raises(ValueError) as exc:
            tiny_config(**overrides)
        assert str(exc.value).startswith(message), exc.value

    def test_level_next_to_one_fails_at_construction(self):
        # floor(alpha*k) snaps up to k = 20, which leaves no outcome past the
        # rb tail; without the upper bound the study runs and reports rb = -2.4e10
        with pytest.raises(ValueError, match=r"^k:"):
            run_study(
                BenchConfig(
                    alpha=1 - 1e-12,
                    k=20,
                    n=20,
                    distributions=("normal:0:1",),
                    schemes=("iid",),
                    estimators=("es1",),
                )
            )

    @pytest.mark.parametrize(
        "overrides, accepted",
        [
            # 760 rounds to 760 draws: batches of 38, floor(0.025 * 38) = 0
            (dict(distributions=("nig:0.4:0.14:0:1",), oracle_k=760), False),
            # 761 rounds up to 800 draws: batches of 40, floor(0.025 * 40) = 1
            (dict(distributions=("nig:0.4:0.14:0:1",), oracle_k=761), True),
            # the lowest level decides: var1 scores at 1%
            (
                dict(
                    distributions=("nig:0.4:0.14:0:1",), estimators=("es1", "var1"), oracle_k=761
                ),
                False,
            ),
            # a 10-day t(5) sum has no closed form, one day does
            (dict(distributions=("t:5",), oracle_k=100), False),
            (dict(distributions=("t:5",), schemes=("iid",), oracle_k=100), True),
            (dict(distributions=("normal:0:1",), oracle_k=1), True),
            # k = 1000 leaves a secured outcome past the rb tail at this level,
            # but a batch of 40 draws snaps floor(alpha*40) up to 40
            (
                dict(
                    distributions=("nig:0.4:0.14:0:1",),
                    schemes=("iid",),
                    alpha=1 - 1e-11,
                    k=1000,
                    oracle_k=800,
                ),
                False,
            ),
        ],
    )
    def test_oracle_k_must_fill_every_oracle_batch(self, overrides, accepted):
        if accepted:
            tiny_config(**overrides)
        else:
            with pytest.raises(ValueError, match=r"^oracle_k\b"):
                tiny_config(**overrides)

    def test_smallest_accepted_oracle_k_runs(self):
        table = run_study(
            tiny_config(distributions=("nig:0.4:0.14:0:1",), schemes=("iid",), oracle_k=761)
        )
        assert len(table.rows) == 2 * 5

    def test_from_json_round_trip(self):
        c = tiny_config()
        back = BenchConfig.from_json(json.dumps(c.to_dict()))
        assert back == c

    @settings(max_examples=50, deadline=None)
    @given(config=configs())
    def test_from_json_reads_back_every_config(self, config):
        assert BenchConfig.from_json(json.dumps(config.to_dict())) == config

    def test_from_json_rejects_unknown_keys(self):
        # where the results go is a flag of `riskbench bench`, not a config key
        for key in ("replications", "workers", "out", "format"):
            with pytest.raises(ValueError, match=rf"^unknown config keys: \['{key}'\]$"):
                BenchConfig.from_json(json.dumps({key: 1}))

    @pytest.mark.parametrize("text", ["[]", "null", '"normal:0:1"', "42"])
    def test_from_json_rejects_a_non_object(self, text):
        with pytest.raises(ValueError, match="^config JSON must be an object$"):
            BenchConfig.from_json(text)

    def test_build_id_tracks_content_not_presentation(self):
        a = tiny_config()
        assert len(a.build_id()) == 12
        assert a.build_id() == tiny_config().build_id()
        assert a.build_id() != tiny_config(seed=6).build_id()
        # where the results go is no field: the id hashes the eight study
        # fields whole, pinned so that a change to what is hashed shows
        assert [f.name for f in dataclasses.fields(BenchConfig)] == [
            "alpha", "n", "k", "seed", "oracle_k", "distributions", "estimators", "schemes"
        ]
        assert a.build_id() == "b1ec52d4bb78"


@pytest.fixture(scope="module")
def table():
    return run_study(tiny_config())


class TestRunStudy:
    def test_row_count_invariant(self, table):
        assert len(table.rows) == 1 * 2 * 2 * len(METRICS)
        assert table.metadata["shape"] == (1, 2, 2)

    def test_rows_follow_metric_order(self, table):
        head = [r.metric for r in table.rows[:5]]
        assert head == list(METRICS)

    def test_metadata_echoes_config(self, table):
        assert table.metadata["config"]["k"] == 100
        assert len(table.metadata["build_id"]) == 12
        assert table.metadata["wall_seconds"] >= 0.0

    def test_metadata_times_every_group(self, table):
        timings = table.metadata["timings"]
        assert timings["workers"] >= 1
        assert list(timings["groups"]) == ["normal:0:1|iid", "normal:0:1|overlapping:10"]
        for phases in timings["groups"].values():
            assert set(phases) == {"reference_s", "replications_s", "metrics_s"}
            assert min(phases.values()) >= 0.0

    def test_value_lookup(self, table):
        v = table_value(table, "normal:0:1", "iid", "es1", "sb")
        assert isinstance(v, float)
        with pytest.raises(KeyError):
            table_value(table, "normal:0:1", "iid", "es9", "sb")

    def test_overlap_bias_is_more_negative(self, table):
        # the rolling-sum scheme starves the tail of independent scenarios
        for est in ("es1", "es2"):
            assert table_value(table, "normal:0:1", "overlapping:10", est, "sb") < table_value(
                table, "normal:0:1", "iid", est, "sb"
            )

    def test_cell_failures_carry_the_cell_tag(self, monkeypatch):
        # a location of 5 leaves the NIG's true ES negative; its oracle
        # reference fails when its group is read, in a forked worker at two
        # CPUs and in this process at one
        bad = tiny_config(distributions=("nig:0.4:0.14:5:1",), oracle_k=100_000)
        threads = set(threading.enumerate())
        for cpus in (1, 2):
            monkeypatch.setattr(bench, "_usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(
                RuntimeError,
                match=r"^benchmark cell group nig:0\.4:0\.14:5:1\|iid failed: true risk must be"
                r" a positive finite number",
            ):
                run_study(bad)
            assert multiprocessing.active_children() == []
            assert set(threading.enumerate()) == threads

    def test_a_failing_metric_reduction_carries_the_group_tag(self, monkeypatch):
        # the reduction runs in the calling process, after the group's slices
        def broken(estimates, companions, alpha, reference):
            raise ValueError("planted reduction failure")

        monkeypatch.setattr(bench, "_metrics_from", broken)
        with pytest.raises(
            RuntimeError,
            match=r"^benchmark cell group normal:0:1\|iid failed: planted reduction failure$",
        ):
            run_study(tiny_config())


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_group_is_named_and_no_process_outlives_the_study(
        self, monkeypatch, cpus
    ):
        # the t(5) draws fail inside the slice task, in a forked worker at two
        # CPUs (forked after the patch) and in this process at one
        def planted(self, rng, raw, row=...):
            raise FloatingPointError("planted draw failure")

        monkeypatch.setattr(StudentT, "draw", planted)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
        threads = set(threading.enumerate())
        config = tiny_config(distributions=("normal:0:1", "t:5"), schemes=("iid",))
        with pytest.raises(
            RuntimeError, match=r"^benchmark cell group t:5\|iid failed: planted draw failure$"
        ) as info:
            run_study(config)
        # a worker's exception arrives with the worker's traceback as its cause
        remote = type(info.value.__cause__.__cause__).__name__ == "_RemoteTraceback"
        assert remote == (cpus > 1)
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_first_failing_task_is_named_when_a_later_one_fails_first(
        self, monkeypatch, cpus
    ):
        # on three workers the t(5) slice fails at once while the normal
        # slice, which comes before it in the task list, is still asleep:
        # the group named is the normal one, as on one CPU
        def slow(self, rng, raw, row=...):
            time.sleep(0.3)
            raise FloatingPointError("slow failure")

        def fast(self, rng, raw, row=...):
            raise FloatingPointError("fast failure")

        monkeypatch.setattr(Normal, "draw", slow)
        monkeypatch.setattr(StudentT, "draw", fast)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
        threads = set(threading.enumerate())
        config = tiny_config(
            distributions=("normal:0:1", "t:5"), schemes=("iid",), estimators=("es1",)
        )
        with pytest.raises(
            RuntimeError, match=r"^benchmark cell group normal:0:1\|iid failed: slow failure$"
        ):
            run_study(config)
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_study_leaves_no_process_and_reports_its_workers(self, monkeypatch, cpus):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
        threads = set(threading.enumerate())
        table = run_study(tiny_config(k=300))
        # two groups of one reference and one slice: min(cpus, 4) workers
        assert table.metadata["timings"]["workers"] == cpus
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    def test_a_caller_with_threads_runs_the_study_in_its_own_process(self, monkeypatch):
        # a fork copies only the calling thread, so another thread's locks
        # would stay held in every worker
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            table = run_study(tiny_config())
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert table.metadata["timings"]["workers"] == 1

    def test_longest_reference_runs_first_and_moves_no_bit(self, monkeypatch):
        # the t(5) 10-day sum's oracle makes ten passes, each NIG oracle one,
        # the t(5) closed form none: its reference is handed out first, the
        # ties keep grid order, and the CSV holds at one and three CPUs
        handed_out = []
        completed = bench._in_order

        def spy(tasks, first, workers):
            handed_out.append([tasks[i] for i in first])
            return completed(tasks, first, workers)

        monkeypatch.setattr(bench, "_in_order", spy)
        config = BenchConfig(
            distributions=("nig:0.4:0.14:0:1", "t:5"),
            schemes=("iid", "overlapping:10"),
            estimators=("var1", "es1"),
            k=300,
            oracle_k=100_000,
        )
        csvs = []
        for cpus in (1, 3):
            monkeypatch.setattr(bench, "_usable_cpus", lambda cpus=cpus: cpus)
            csvs.append(run_study(config).to_csv())
        assert csvs[0] == csvs[1]
        longest_first = [
            "t:5|overlapping:10",
            "nig:0.4:0.14:0:1|iid",
            "nig:0.4:0.14:0:1|overlapping:10",
            "t:5|iid",
        ]
        assert len(handed_out) == 2
        for tasks in handed_out:
            heads = [(group.tag, task) for group, task, _ in tasks[:4]]
            assert heads == [(tag, bench._reference_task) for tag in longest_first]

    def test_groups_are_read_shortest_reference_first(self, monkeypatch):
        # each group's reference, then its slices: the longest reference is
        # read last, so a pool holds few finished slices while it runs
        read = []
        in_order = bench._in_order

        def spy(tasks, first, workers):
            for group, task, args in tasks:
                part = args[3] if task is bench._evaluate_replications else None
                read.append((group.tag, task, part))
            return in_order(tasks, first, workers)

        monkeypatch.setattr(bench, "_in_order", spy)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
        run_study(BenchConfig(
            distributions=("t:5", "nig:0.4:0.14:0:1"),
            schemes=("overlapping:10", "iid"),
            estimators=("es1",),
            k=2100,
            oracle_k=100_000,
        ))
        slices = [range(0, 1024), range(1024, 2048), range(2048, 2100)]
        expected = []
        for tag in ("t:5|iid", "nig:0.4:0.14:0:1|overlapping:10", "nig:0.4:0.14:0:1|iid",
                    "t:5|overlapping:10"):
            expected.append((tag, bench._reference_task, None))
            expected += [(tag, bench._evaluate_replications, part) for part in slices]
        assert read == expected


class TestSerialization:
    def test_csv_schema(self, table):
        lines = table.to_csv().splitlines()
        assert lines[0] == "distribution,scheme,estimator,alpha,n,K,metric,value,mc_stderr"
        assert len(lines) == 1 + len(table.rows)

    def test_csv_values_round_trip_in_full_precision(self, table):
        lines = table.to_csv().splitlines()[1:]
        for row, line in zip(table.rows, lines):
            fields = line.split(",")
            assert float(fields[7]) == row.value
            if row.metric in ("rb", "ct"):
                assert fields[8] == ""
            else:
                assert float(fields[8]) == row.mc_stderr

    def test_json_mirrors_rows(self, table):
        data = json.loads(table.to_json())
        assert len(data["rows"]) == len(table.rows)
        assert data["metadata"]["build_id"] == table.metadata["build_id"]
        first = data["rows"][0]
        assert first["distribution"] == table.rows[0].distribution
        assert first["value"] == table.rows[0].value

    def test_metric_table_round_trip(self, table):
        # read each value back from its block, metric line and estimator column
        blocks = format_metric_table(table).split("\n\n")
        for r in table.rows:
            (block,) = [b for b in blocks if b.startswith(f"== {r.distribution} | {r.scheme} ==")]
            lines = block.splitlines()
            column = lines[1].split().index(r.estimator)
            (line,) = [line for line in lines[2:] if line.split()[0] == r.metric]
            assert line.split()[column] == f"{100.0 * r.value:.1f}%"

    def test_shape_invariant_enforced(self, table):
        with pytest.raises(ValueError):
            ResultTable(rows=table.rows[:-1], metadata=dict(table.metadata))

    def test_row_is_frozen(self, table):
        with pytest.raises(AttributeError):
            table.rows[0].value = 0.0


class TestDeterminism:
    def test_golden_csv_hash(self):
        # pinned from the per-replication-generator code; any change to draw
        # order, stream keys, chunking or summation order moves this hash
        config = BenchConfig(
            distributions=("normal:0:1", "t:5", "nig:0.4:0.14:0:1"),
            schemes=("iid", "overlapping:10"),
            k=200,
            oracle_k=100_000,
            seed=42,
        )
        csv = run_study(config).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "3223e23faac3dafb87c5ec3ed602329542c4a4aa5e58d6ded094cb08a419da63"
        )

    def test_seed_changes_output(self):
        a = run_study(tiny_config()).to_csv()
        b = run_study(tiny_config(seed=6)).to_csv()
        assert a != b

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        distributions=names(("normal:0:1", "t:5", "nig:0.4:0.14:0:1")),
        schemes=names(("iid", "overlapping:3")),
        estimators=names(("var1", "es1", "es2", "es3", "es6")),
        k=st.integers(100, 700),
        tiles=st.integers(1, 3),
        cpus=st.integers(1, 3),
    )
    def test_a_group_has_the_rows_it_has_alone(
        self, distributions, schemes, estimators, k, tiles, cpus
    ):
        # a group's rows depend on its cell alone: not on the groups beside
        # it, the slice size or the CPU count; the oracle references are small
        config = BenchConfig(
            distributions=distributions, schemes=schemes, estimators=estimators, k=k,
            oracle_k=20_000,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_SLICE", tiles * _BLOCK)
            patch.setattr(bench, "_usable_cpus", lambda: cpus)
            grid = run_study(config).to_csv().splitlines()[1:]
        for dist in distributions:
            for scheme in schemes:
                alone = dataclasses.replace(config, distributions=(dist,), schemes=(scheme,))
                rows = run_study(alone).to_csv().splitlines()[1:]
                assert rows == [line for line in grid if line.split(",")[:2] == [dist, scheme]]
