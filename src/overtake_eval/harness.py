"""Campaign orchestration: run seeded campaigns, estimate, and write outputs.

A campaign samples the configured environments, runs every applicable
estimator, attempts the brute-force reference value when its budget guard
permits, and emits a fixed set of files:

* ``records.csv``          one row per episode (id, seed, env, accident, l, w)
* ``critical_log.csv``     sidecar with one row per logged critical moment
* ``convergence_<m>.csv``  per-prefix (n, mu, rhw) for each method
* ``adjusted_points.csv``  weighted indicator and its control-variate adjusted
                           value ``y - z . beta`` per NADE record
* ``summary.json``         estimates, stopping counts, acceleration factors
* ``replications.csv``     per-replication table (replication studies only)

One path serves every entry point.  ``_sample`` draws one environment's
episodes for one or several root seeds; :func:`estimate_from_records` fits
each method once over a record set and reads its estimate, convergence
table, stopping count and (for ATSCV) adjusted points off that one
:class:`~.estimators.PooledFit`, then takes the acceleration ratios;
:func:`run_campaign` is that on freshly sampled records plus the oracle,
and a replication row is the same estimate at seed root+rep, without the
oracle and on one warm criticality evaluator per worker chunk.  A chunk's
replications are sampled in groups that fit one sampler block, one sampler
call per environment and group, and fitted one by one.  Records read back
from an output directory are checked against what the samplers write, so a
value they never write fails with its file and line.

Episodes fan out to a worker pool in contiguous index chunks; every record is
a pure function of (root seed, environment, index), so output bytes do not
depend on the worker count.  The worker count is deliberately left out of the
summary's config echo for the same reason.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import __version__, sampling
from .config import CampaignConfig
from .criticality import CriticalityEvaluator
from .estimators import (
    METHODS,
    EmptyInput,
    Estimate,
    PooledFit,
    fit,
    tests_to_threshold,
)
from .oracle import BudgetExceeded, brute_force_mu
from .sampling import (
    CriticalMoment,
    Roots,
    TestRecord,
    sample_nade_batch,
    sample_nde_batch,
)


@dataclass
class MethodResult:
    """One method's fit of a record set, its convergence table and the
    stopping count read off that table."""

    fit: PooledFit
    table: np.ndarray
    tests_to_threshold: Optional[int]

    @property
    def estimate(self) -> Estimate:
        return self.fit.estimate()

    @property
    def rhw(self) -> Optional[float]:
        """The relative half-width, or None where there is no interval."""
        return _finite(float(self.table[-1, 2]))


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: Dict[str, List[TestRecord]]
    methods: Dict[str, MethodResult]
    oracle_mu: Optional[float] = None
    acceleration: Dict[str, Optional[float]] = field(default_factory=dict)
    replication_rows: List[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# sampling fan-out


def _chunk_bounds(n: int, parts: int) -> List[Tuple[int, int]]:
    base, rem = divmod(n, parts)
    bounds = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < rem else 0)
        if count:
            bounds.append((start, count))
        start += count
    return bounds


def _budgets(cfg: CampaignConfig) -> Dict[str, int]:
    """Episodes per environment the campaign runs, in sampling order."""
    return {env: n for env, n in (("nde", cfg.episodes_nde),
                                  ("nade", cfg.episodes_nade))
            if cfg.environment in (env, "both") and n > 0}


def _sample(env: str, cfg: CampaignConfig, roots: Roots, n: int,
            start: int = 0, evaluator: Optional[CriticalityEvaluator] = None
            ) -> List[TestRecord]:
    """Episodes ``start .. start+n-1`` of each root seed, root-major.  The
    samplers are read off this module at every call, so a wrapper set on
    ``harness.sample_nde_batch`` or ``sample_nade_batch`` sees them all."""
    if env == "nde":
        return sample_nde_batch(roots, cfg.scenario, n, start=start)
    return sample_nade_batch(roots, cfg.scenario, n, start=start,
                             evaluator=evaluator,
                             max_control_steps=cfg.max_control_steps)


def _pool(workers: int, fn, args) -> list:
    """``fn(*a)`` for each ``a`` in a worker pool, results concatenated."""
    with multiprocessing.Pool(workers) as pool:
        parts = pool.starmap(fn, args)
    return [x for part in parts for x in part]


def sample_env(cfg: CampaignConfig, env: str) -> List[TestRecord]:
    n = cfg.episodes_nde if env == "nde" else cfg.episodes_nade
    if n == 0:
        return []
    if cfg.workers <= 1 or n < 2 * cfg.workers:
        return _sample(env, cfg, cfg.seed, n)
    return _pool(cfg.workers, _sample,
                 [(env, cfg, cfg.seed, count, start)
                  for start, count in _chunk_bounds(n, cfg.workers)])


# ---------------------------------------------------------------------------
# campaigns


def _finite(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


def _method_results(cfg: CampaignConfig, records: Dict[str, List[TestRecord]]
                    ) -> Dict[str, MethodResult]:
    """Every applicable method's result, from one fit each."""
    methods = {}
    for m in METHODS:
        recs = records.get("nde" if m == "nde" else "nade")
        if recs:
            f = fit(recs, m)
            table = f.table(cfg.gamma)
            methods[m] = MethodResult(f, table, tests_to_threshold(
                table[:, 2], cfg.rhw_threshold, cfg.confirm_window))
    return methods


def _ratio(a: Optional[int], b: Optional[int]) -> Optional[float]:
    if a is None or b is None or b == 0:
        return None
    return a / b


def _acceleration(methods: Dict[str, MethodResult]) -> Dict[str, Optional[float]]:
    t = {m: methods[m].tests_to_threshold if m in methods else None
         for m in METHODS}
    return {
        "nde_over_nade": _ratio(t["nde"], t["nade"]),
        "nade_over_atscv": _ratio(t["nade"], t["atscv"]),
    }


def _attempt_oracle(cfg: CampaignConfig) -> Optional[float]:
    try:
        return brute_force_mu(cfg.scenario, cfg.oracle_bins, cfg.oracle_budget)
    except BudgetExceeded:
        return None


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Sample the configured environments, estimate, and collect results."""
    cfg.validate()
    records = {env: sample_env(cfg, env) for env in _budgets(cfg)}
    result = estimate_from_records(cfg, records)
    result.oracle_mu = _attempt_oracle(cfg)
    return result


def estimate_from_records(cfg: CampaignConfig,
                          records: Dict[str, List[TestRecord]]) -> CampaignResult:
    """Run the estimators over sampled or previously emitted records, of
    the environments ``cfg.environment`` selects."""
    records = {env: recs for env, recs in records.items()
               if cfg.environment in (env, "both")}
    methods = _method_results(cfg, records)
    return CampaignResult(config=cfg, records=records, methods=methods,
                          acceleration=_acceleration(methods))


# ---------------------------------------------------------------------------
# replication studies


def _replicate(cfg: CampaignConfig, reps: Sequence[int]) -> List[dict]:
    """Replication rows: the campaign's estimates at seed root+rep, without
    the oracle, on one warm evaluator for the whole chunk.

    Consecutive replications whose episodes fit in one sampler block
    (``sampling.BLOCK``), and at least one, form a group: one sampler call
    per environment walks all their episodes in lockstep, so their cut-ins
    resolve in one rollout and each step's new grid cells fill in one
    batch.  The records are split back per replication, which is fitted on
    its own.  Every record is a pure function of (root, environment, index)
    and every cache value of its grid key, so the rows do not depend on the
    grouping.
    """
    budgets = _budgets(cfg)
    evaluator = CriticalityEvaluator(cfg.scenario) if "nade" in budgets else None
    size = max(1, sampling.BLOCK // max(budgets.values(), default=1))
    rows = []
    for i in range(0, len(reps), size):
        rows += _replicate_group(cfg, budgets, reps[i:i + size], evaluator)
    return rows


def _replicate_group(cfg: CampaignConfig, budgets: Dict[str, int],
                     group: Sequence[int],
                     evaluator: Optional[CriticalityEvaluator]) -> List[dict]:
    """The rows of one replication group; its records die with the call."""
    seeds = [cfg.seed + rep for rep in group]
    drawn = {env: _sample(env, cfg, seeds, n, evaluator=evaluator)
             for env, n in budgets.items()}
    rows = []
    for i, (rep, seed) in enumerate(zip(group, seeds)):
        methods = _method_results(cfg, {
            env: recs[i * budgets[env]:(i + 1) * budgets[env]]
            for env, recs in drawn.items()})
        row: Dict[str, object] = {"replication": rep, "seed": seed}
        for m in METHODS:
            mr = methods.get(m)
            row[f"{m}_mu"], row[f"{m}_rhw"], row[f"{m}_tests"] = (
                (mr.estimate.mu, mr.rhw, mr.tests_to_threshold) if mr
                else (None, None, None))
        acc = _acceleration(methods)
        row["accel_nde_nade"] = acc["nde_over_nade"]
        row["accel_nade_atscv"] = acc["nade_over_atscv"]
        rows.append(row)
    return rows


def run_replications(cfg: CampaignConfig) -> List[dict]:
    """One campaign per replication, seeded root+1 ... root+R."""
    cfg.validate()
    reps = list(range(1, cfg.replications + 1))
    if cfg.workers <= 1 or len(reps) == 1:
        return _replicate(cfg, reps)
    return _pool(cfg.workers, _replicate,
                 [(cfg, reps[start:start + count])
                  for start, count in _chunk_bounds(len(reps), cfg.workers)])


def _aggregate_replications(rows: List[dict]) -> dict:
    def median_of(key):
        vals = [r[key] for r in rows if r[key] is not None]
        return statistics.median(vals) if vals else None

    pairs = [(r["atscv_tests"], r["nade_tests"]) for r in rows
             if r["atscv_tests"] is not None and r["nade_tests"] is not None]
    return {
        "replications": len(rows),
        "median_nde_tests": median_of("nde_tests"),
        "median_nade_tests": median_of("nade_tests"),
        "median_atscv_tests": median_of("atscv_tests"),
        "median_accel_nde_nade": median_of("accel_nde_nade"),
        "median_accel_nade_atscv": median_of("accel_nade_atscv"),
        "atscv_faster_than_nade": sum(1 for a, b in pairs if a < b),
        "atscv_nade_comparable": len(pairs),
    }


# ---------------------------------------------------------------------------
# file emission


RECORD_COLUMNS = ["id", "seed", "env", "accident", "l", "w"]
ADJUSTED_COLUMNS = ["id", "l", "unadjusted", "adjusted"]
CONVERGENCE_COLUMNS = ["n", "mu", "rhw"]
REPLICATION_COLUMNS = [
    "replication", "seed",
    "nde_mu", "nde_rhw", "nde_tests",
    "nade_mu", "nade_rhw", "nade_tests",
    "atscv_mu", "atscv_rhw", "atscv_tests",
    "accel_nde_nade", "accel_nade_atscv",
]


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _cell(value) -> str:
    return "" if value is None else str(value)


def _log_columns(panel_size: int) -> List[str]:
    return ["record_id", "moment", "p", "q_alpha"] + [
        f"q_{j + 1}" for j in range(panel_size)]


def write_records(path: str, records: Sequence[TestRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow([r.index, r.seed, r.env, r.accident,
                        r.control_steps, repr(r.weight)])


def write_critical_log(path: str, records: Sequence[TestRecord],
                       panel_size: int) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(_log_columns(panel_size))
        for r in records:
            for k, m in enumerate(r.critical_log):
                w.writerow([r.index, k, repr(m.p), repr(m.q_alpha)]
                           + [repr(q) for q in m.q])


def write_convergence(path: str, table) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(CONVERGENCE_COLUMNS)
        for n, mu, r in table:
            w.writerow([int(n), repr(float(mu)), repr(float(r))])


def write_adjusted_points(path: str, records: Sequence[TestRecord],
                          fit: Optional[PooledFit]) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(ADJUSTED_COLUMNS)
        if not records or fit is None:
            return
        adjusted = fit.adjusted()
        for i, r in enumerate(records):
            w.writerow([r.index, r.control_steps,
                        repr(r.accident * r.weight), repr(float(adjusted[i]))])


def write_replications(path: str, rows: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(REPLICATION_COLUMNS)
        for row in rows:
            w.writerow([_cell(row.get(col)) for col in REPLICATION_COLUMNS])


def config_echo(cfg: CampaignConfig) -> dict:
    """Config as a JSON-safe dict; the worker count is execution detail and
    deliberately excluded so summaries are invariant to it."""
    echo = dataclasses.asdict(cfg)
    echo.pop("workers", None)
    return echo


def build_summary(result: CampaignResult) -> dict:
    methods = {}
    for name, mr in result.methods.items():
        methods[name] = {
            "n": mr.estimate.n,
            "mu": mr.estimate.mu,
            "variance": _finite(mr.estimate.variance),
            "rhw": mr.rhw,
            "tests_to_threshold": mr.tests_to_threshold,
        }
    summary = {
        "version": __version__,
        "config": config_echo(result.config),
        "oracle_mu": result.oracle_mu,
        "methods": methods,
        "acceleration": result.acceleration,
    }
    if result.replication_rows:
        summary["replications"] = result.replication_rows
        summary["aggregates"] = _aggregate_replications(result.replication_rows)
    return summary


def emit_outputs(result: CampaignResult, out_dir: str) -> List[str]:
    """Write the full output file set; returns the manifest of paths."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    records = result.records
    manifest = []

    def out(name):
        manifest.append(os.path.join(out_dir, name))
        return manifest[-1]

    write_records(out("records.csv"),
                  list(records.get("nde", [])) + list(records.get("nade", [])))
    write_critical_log(out("critical_log.csv"), records.get("nade", []),
                       len(cfg.scenario.surrogates))
    for method in METHODS:
        mr = result.methods.get(method)
        write_convergence(out(f"convergence_{method}.csv"),
                          [] if mr is None else mr.table)
    atscv = result.methods.get("atscv")
    write_adjusted_points(out("adjusted_points.csv"), records.get("nade", []),
                          None if atscv is None else atscv.fit)
    if result.replication_rows:
        write_replications(out("replications.csv"), result.replication_rows)
    with open(out("summary.json"), "w") as fh:
        json.dump(build_summary(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# loading emitted records back


def _check_record(r: TestRecord) -> None:
    """Raise ``ValueError`` for a field value the samplers never write."""
    if r.env not in ("nde", "nade"):
        raise ValueError(f"env {r.env!r} is neither 'nde' nor 'nade'")
    if r.accident not in (0, 1):
        raise ValueError(f"accident {r.accident} is neither 0 nor 1")
    if r.env == "nde" and r.weight != 1.0:
        raise ValueError(f"nde weight {r.weight!r} is not 1")
    if not (math.isfinite(r.weight) and r.weight >= 0.0):
        raise ValueError(f"weight {r.weight!r} is not finite and >= 0")


def _check_moment(m: CriticalMoment) -> None:
    """Raise ``ValueError`` unless every density is finite and >= 0 and
    ``q_alpha``, the density the action was drawn from, is positive."""
    densities = (m.p, m.q_alpha) + m.q
    if not (all(math.isfinite(d) and d >= 0.0 for d in densities)
            and m.q_alpha > 0.0):
        raise ValueError(f"densities {densities} are not finite and >= 0 "
                         f"with q_alpha > 0")


def read_records(path: str) -> List[Tuple[TestRecord, int]]:
    """Records from a ``records.csv``, each with its ``l`` column (the count
    of critical moments it logged); ``ValueError`` names the file and line
    of a header other than ``RECORD_COLUMNS``, of a malformed row or of a
    value the samplers never write."""
    out = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != RECORD_COLUMNS:
            raise ValueError(f"{path}: header {header} is not {RECORD_COLUMNS}")
        for row in rows:
            try:
                index, seed, env, accident, logged, weight = row
                r = TestRecord(index=int(index), seed=int(seed), env=env,
                               accident=int(accident), weight=float(weight))
                _check_record(r)
                out.append((r, int(logged)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {rows.line_num}: {exc}") from exc
    return out


def read_critical_log(path: str, nade_ids: Set[int]
                      ) -> Dict[int, List[CriticalMoment]]:
    """Each NADE record's logged moments, in moment order; ``ValueError``
    names the file and line of a malformed row, of a density the sampler
    never writes or of a ``record_id`` outside ``nade_ids``."""
    logs: Dict[int, List[Tuple[int, CriticalMoment]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}
        q_cols = [i for i, name in enumerate(header) if name.startswith("q_")
                  and name != "q_alpha"]
        for row in reader:
            try:
                rid = int(row[0])
                moment = CriticalMoment(
                    p=float(row[2]), q_alpha=float(row[3]),
                    q=tuple(float(row[i]) for i in q_cols))
                if rid not in nade_ids:
                    raise ValueError(f"record_id {rid} is no NADE record")
                _check_moment(moment)
                logs.setdefault(rid, []).append((int(row[1]), moment))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return {rid: [m for _, m in sorted(entries, key=lambda t: t[0])]
            for rid, entries in logs.items()}


def load_campaign_records(out_dir: str) -> Dict[str, List[TestRecord]]:
    """Rebuild the per-environment record lists from an output directory.

    A NADE record takes its moments from ``critical_log.csv``; a record whose
    ``l`` differs from the moments it gets (as every NADE record with
    moments does when the log is missing) raises ``ValueError``, as does a
    value either reader rejects, and a ``records.csv`` without a row raises
    ``EmptyInput``."""
    path = os.path.join(out_dir, "records.csv")
    log_path = os.path.join(out_dir, "critical_log.csv")
    rows = read_records(path)
    logs = (read_critical_log(log_path, {r.index for r, _ in rows
                                         if r.env == "nade"})
            if os.path.exists(log_path) else {})
    by_env: Dict[str, List[TestRecord]] = {}
    for r, logged in rows:
        if r.env == "nade":
            r = dataclasses.replace(r, critical_log=tuple(logs.get(r.index, ())))
        if logged != r.control_steps:
            raise ValueError(
                f"{path}: episode {r.index} ({r.env}) has l = {logged} but "
                f"the critical log holds {r.control_steps}")
        by_env.setdefault(r.env, []).append(r)
    if not by_env:
        raise EmptyInput(f"{path}: no records")
    return by_env


# ---------------------------------------------------------------------------
# summary schema


_METHOD_SCHEMA = {
    "type": "object",
    "required": ["n", "mu", "variance", "rhw", "tests_to_threshold"],
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "mu": {"type": "number"},
        "variance": {"type": ["number", "null"], "minimum": 0},
        "rhw": {"type": ["number", "null"]},
        "tests_to_threshold": {"type": ["integer", "null"]},
    },
}

SUMMARY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "config", "methods", "acceleration"],
    "properties": {
        "version": {"type": "string"},
        "config": {"type": "object"},
        "oracle_mu": {"type": ["number", "null"]},
        "methods": {
            "type": "object",
            "additionalProperties": _METHOD_SCHEMA,
        },
        "acceleration": {
            "type": "object",
            "properties": {
                "nde_over_nade": {"type": ["number", "null"]},
                "nade_over_atscv": {"type": ["number", "null"]},
            },
        },
        "replications": {"type": "array", "items": {"type": "object"}},
        "aggregates": {"type": "object"},
    },
}
