"""The Monte Carlo estimator study: configuration, execution, serialization.

A study crosses distributions x sampling schemes x estimators and reports
the five metrics per cell. True risk is computed once per (distribution,
scheme) target variable — closed form where available, otherwise one
oracle sample shared across the levels involved — and all estimators in a
group score the same replication draws. The references and the slices of
replications run as independent tasks on every usable CPU, the references
first and the costliest of them first, and their results are read group by
group, the costliest reference last.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import asdict, astuple, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .distributions import DEFAULT_ORACLE_K, check_oracle_k, parse_dist, true_risk_levels
from .estimators import LEstimatorSpec, _check_level, build_estimator, tail_split
from .metrics import (
    _BLOCK,
    MetricReport,
    _evaluate_replications,
    _metrics_from,
    reference_value,
)
from .sampling import RandomnessContract, Scheme, parse_scheme, stream_key

METRICS = ("ae", "se", "sb", "rb", "ct")

DEFAULT_DISTRIBUTIONS = (
    "normal:0:1",
    "t:5",
    "nig:0.4:0.14:0:1",
    "nig:0.4:-0.14:0:1",
    "nig:0.55:0.3025:0:1",
    "nig:0.55:-0.3025:0:1",
    "nig:0.4:0.22:0:1",
    "nig:0.4:-0.22:0:1",
)

DEFAULT_ESTIMATORS = ("var1", "es1", "es2", "es3", "es4", "es5", "es6")

DEFAULT_SCHEMES = ("iid", "overlapping:10")


@dataclass(frozen=True)
class BenchConfig:
    """Study configuration; every field moves the numbers and has the desk-scale default."""

    alpha: float = 0.025
    n: int = 250
    k: int = 100_000
    seed: int = 42
    oracle_k: int = DEFAULT_ORACLE_K
    distributions: tuple[str, ...] = DEFAULT_DISTRIBUTIONS
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS
    schemes: tuple[str, ...] = DEFAULT_SCHEMES

    def __post_init__(self):
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        _flagged("alpha", _check_level, self.alpha)
        _check_int("n", self.n, 1)
        _check_int("k", self.k, 20)
        _check_int("seed", self.seed, 0)
        _check_int("oracle_k", self.oracle_k, 1)
        for name in ("distributions", "estimators", "schemes"):
            object.__setattr__(self, name, _name_tuple(name, getattr(self, name)))
        specs, levels, groups = _grid(self)  # so that a typo fails before any compute
        # a closed-form reference costs microseconds, so one that is not
        # positive fails here; an oracle's fails when its group is read
        for group in groups:
            if not group.target.oracle_passes:
                args = (group.target, levels, specs, self.oracle_k, 0)
                _flagged(f"distributions: {group.tag}", _reference_task, *args)

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def build_id(self) -> str:
        """Short content hash of the config: every field determines the numbers."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=6).hexdigest()


def _check_int(field_name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field_name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{field_name} must be at least {minimum}, got {value}")


def _name_tuple(field_name: str, value) -> tuple[str, ...]:
    if isinstance(value, str):
        raise ValueError(f"{field_name} must be a list of names, not the string {value!r}")
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field_name} must be a list of names, got {value!r}")
    names = tuple(value)
    if not names:
        raise ValueError(f"{field_name} must name at least one entry")
    for item in names:
        if not isinstance(item, str):
            raise ValueError(f"{field_name} entries must be strings, got {item!r}")
    return names


def _flagged(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with the field or flag name put in front of a
    ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _grid(config: BenchConfig) -> tuple[list[LEstimatorSpec], list[float], list[_Group]]:
    """The config's estimators, the levels its references are taken at and
    its (distribution, scheme) groups in grid order, each name parsed and
    each rule across fields checked; a bad entry names its field."""
    dists = [_flagged("distributions", parse_dist, text) for text in config.distributions]
    schemes = [_flagged("schemes", parse_scheme, text, config.n) for text in config.schemes]
    specs = [
        _flagged("estimators", build_estimator, name, config.alpha, config.n)
        for name in config.estimators
    ]
    for spec in specs:
        rule = f"k: estimator {spec.name!r} at level {spec.alpha}"
        _flagged(rule, tail_split, spec.alpha, config.k)
    _check_distinct("distributions", config.distributions, [d.label for d in dists])
    _check_distinct("schemes", config.schemes, [s.label for s in schemes])
    _check_distinct("estimators", config.estimators, [spec.name for spec in specs])
    # the study's own level first: the oracle's first level keeps the bits of
    # its es alone, so no column depends on which other estimators share the
    # group (var1 reads only the var of its 1% level)
    levels = sorted({spec.alpha for spec in specs}, key=lambda a: (a != config.alpha, a))
    groups = [
        _Group(dist, scheme, dist.horizon(scheme.h), f"{dist.label}|{scheme.label}")
        for dist in dists
        for scheme in schemes
    ]
    if any(group.target.oracle_passes for group in groups):
        _flagged("oracle_k", check_oracle_k, config.oracle_k, levels)
    return specs, levels, groups


def _check_distinct(field_name: str, names: tuple[str, ...], labels: list[str]) -> None:
    """Two entries that parse to one label would run one group twice and
    write its rows twice under one key."""
    seen: dict[str, str] = {}
    for name, label in zip(names, labels):
        if label in seen:
            raise ValueError(
                f"{field_name}: {seen[label]!r} and {name!r} both name {label!r}"
            )
        seen[label] = name


# the column names of the CSV header and of the JSON rows, in ResultRow order
_COLUMNS = (
    "distribution", "scheme", "estimator", "alpha", "n", "K", "metric", "value", "mc_stderr"
)


@dataclass(frozen=True)
class ResultRow:
    distribution: str
    scheme: str
    estimator: str
    alpha: float
    n: int
    k: int
    metric: str
    value: float
    mc_stderr: Optional[float]


@dataclass(frozen=True, eq=False)
class ResultTable:
    """All study rows, exactly |dists| * |schemes| * |estimators| * 5 of them."""

    rows: tuple[ResultRow, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        shape = self.metadata.get("shape")
        if shape is not None:
            expected = shape[0] * shape[1] * shape[2] * len(METRICS)
            if len(self.rows) != expected:
                raise ValueError(
                    f"expected {expected} rows for shape {shape}, got {len(self.rows)}"
                )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(_COLUMNS) + "\n")
        for r in self.rows:
            stderr = "" if r.mc_stderr is None else repr(r.mc_stderr)
            buf.write(
                f"{r.distribution},{r.scheme},{r.estimator},{r.alpha!r},{r.n},{r.k},"
                f"{r.metric},{r.value!r},{stderr}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [dict(zip(_COLUMNS, astuple(r))) for r in self.rows]
        return json.dumps({"metadata": self.metadata, "rows": rows}, indent=2)


def run_study(config: BenchConfig) -> ResultTable:
    """Execute the full study described by the config.

    The grid splits into independent tasks: one reference per
    (distribution, scheme) group and the group's replications in slices of
    whole tiles. They run on every usable CPU (see _in_order), every
    reference first and the longest first. Their results are read group by
    group, the group with the shortest reference first: its reference, then
    its slices, after which the group is reduced to its metrics and its
    estimate arrays are dropped. Each row keeps its bits, because its
    streams depend only on the cell and the replication index and every
    slice starts on a tile boundary.

    A failed task aborts the run with its group's tag attached; a study is
    either complete or it is an error.
    """
    t0 = time.monotonic()
    specs, levels, groups = _grid(config)
    contract = RandomnessContract(config.seed)
    slices = [range(s0, min(s0 + _SLICE, config.k)) for s0 in range(0, config.k, _SLICE)]

    # every reference starts before any slice, the costliest first (a stable
    # sort: ties keep grid order), so that no long oracle starts after the
    # short ones and runs on alone. The groups are read in the reverse
    # order, so each reference has run longest when its group reaches it,
    # and a pool holds few finished slices while the calling process waits
    by_cost = sorted(groups, key=lambda group: group.target.oracle_passes, reverse=True)
    by_read = sorted(groups, key=lambda group: group.target.oracle_passes)
    tasks = []
    for group in by_read:
        key = stream_key(config.seed, f"oracle|{group.tag}", 0)
        tasks.append((group, _reference_task, (group.target, levels, specs, config.oracle_k, key)))
        tasks += [
            (group, _evaluate_replications, (group.dist, group.scheme, specs, part, contract))
            for part in slices
        ]
    # where each reference sits in the task list, the costliest first
    first = [by_read.index(group) * (1 + len(slices)) for group in by_cost]
    workers = _worker_count(len(tasks))
    reports: dict[str, list[MetricReport]] = {}
    # per group: the reference's seconds, the slices' seconds summed over
    # the workers that ran them, and the metric reduction's seconds
    timings: dict[str, dict[str, float]] = {}
    with contextlib.closing(_in_order(tasks, first, workers)) as results:
        for group in by_read:
            group_references, reference_s = next(results)
            estimates = np.empty((config.k, len(specs)))
            companions = np.empty(config.k)
            replications_s = 0.0
            # zip stops at the end of slices before it takes another result
            for part, ((part_estimates, part_companions), seconds) in zip(slices, results):
                estimates[part.start : part.stop] = part_estimates
                companions[part.start : part.stop] = part_companions
                replications_s += seconds
            start = time.perf_counter()
            with _naming(group):
                reports[group.tag] = [
                    _metrics_from(estimates[:, i], companions, float(spec.alpha), float(ref))
                    for i, (spec, ref) in enumerate(zip(specs, group_references))
                ]
            timings[group.tag] = {
                "reference_s": round(reference_s, 4),
                "replications_s": round(replications_s, 4),
                "metrics_s": round(time.perf_counter() - start, 4),
            }

    rows = [
        ResultRow(
            group.dist.label, group.scheme.label, spec.name, spec.alpha,
            config.n, config.k, m, report.metric(m), report.stderr(m),
        )
        for group in groups
        for spec, report in zip(specs, reports[group.tag])
        for m in METRICS
    ]
    metadata = {
        "config": config.to_dict(),
        "build_id": config.build_id(),
        "wall_seconds": round(time.monotonic() - t0, 3),
        "shape": (len(config.distributions), len(config.schemes), len(specs)),
        "timings": {"workers": workers, "groups": {g.tag: timings[g.tag] for g in groups}},
    }
    return ResultTable(rows=tuple(rows), metadata=metadata)


# replications per slice task: whole tiles, so every slice starts on a tile
# boundary; a default-grid slice takes 20-40 ms, long enough that handing
# back its 1024 x 7 estimates costs little and short enough that the last
# slices keep every CPU busy
_SLICE = 8 * _BLOCK


class _Group(NamedTuple):
    """One (distribution, scheme) group, the variable its reference is of
    and its tag."""

    dist: object
    scheme: Scheme
    target: object
    tag: str


def _reference_task(target, levels, specs, oracle_k: int, seed: int) -> list[float]:
    """Each estimator's reference value for one group's target."""
    risks = true_risk_levels(target, levels, oracle_k=oracle_k, seed=seed)
    return [reference_value(spec, risks[spec.alpha]) for spec in specs]


def _timed(function, args):
    """function(*args) and the seconds it took."""
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _worker_count(tasks: int) -> int:
    """One worker per usable CPU, at most one per task. One, in this
    process, where processes cannot be forked, or not safely: a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in every worker."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), tasks)


def _in_order(tasks, first, workers: int):
    """Yield (result, seconds) for each (group, function, args) task, in
    task order.

    One worker runs the tasks in order in this process. More run them on a
    pool of forked processes, which starts the tasks at the indices in
    `first` before the rest; a finished result waits in this process until
    it is read. Either way the group named on a failure is that of the
    first task in order that failed. A pool then cancels the tasks not yet
    started, lets the started ones end and joins its workers.
    """
    groups, functions, args = zip(*tasks)
    pool = None
    if workers > 1:
        # imported here: only a study on several CPUs needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        if pool is None:
            results = map(_timed, functions, args)
        else:
            start = dict.fromkeys([*first, *range(len(tasks))])  # first, then the rest in order
            futures = {i: pool.submit(_timed, functions[i], args[i]) for i in start}
            # popped as it is read, so the pool lets go of each result
            results = (futures.pop(i).result() for i in range(len(tasks)))
        for group in groups:
            with _naming(group):
                result = next(results)
            yield result
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _naming(group):
    """Attach the group's tag to any failure inside the block."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"benchmark cell group {group.tag} failed: {exc}") from exc


def format_metric_table(table: ResultTable) -> str:
    """Render the study as text blocks: one per (distribution, scheme), rows
    the five metrics as percents to one decimal, columns the estimators."""
    groups: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    estimators: list[str] = []
    for r in table.rows:
        key = (r.distribution, r.scheme)
        groups.setdefault(key, {})[(r.estimator, r.metric)] = r.value
        if r.estimator not in estimators:
            estimators.append(r.estimator)

    width = max(8, max(len(e) for e in estimators) + 2)
    lines = []
    for (dist, scheme), cells in groups.items():
        lines.append(f"== {dist} | {scheme} ==")
        lines.append("metric" + "".join(e.rjust(width) for e in estimators))
        for metric in METRICS:
            row = [metric.ljust(6)]
            for e in estimators:
                row.append(f"{100.0 * cells[(e, metric)]:.1f}%".rjust(width))
            lines.append("".join(row))
        lines.append("")
    return "\n".join(lines)

