"""Campaign orchestration: run seeded campaigns, estimate, and write outputs.

A campaign samples the configured environments, runs every applicable
estimator, attempts the brute-force reference value when its budget guard
permits, and emits a fixed set of files:

* ``records.csv``          one row per episode (id, seed, env, accident, l, w)
* ``critical_log.csv``     sidecar with one row per logged critical moment
* ``convergence_<m>.csv``  per-prefix (n, mu, rhw) for each method
* ``adjusted_points.csv``  weighted indicator and its control-variate adjusted
                           value ``y - z . beta`` per NADE record
* ``summary.json``         estimates, stopping counts, acceleration factors;
                           a study's adds its rows and ``aggregates``: their
                           count and each ``median_<m>_tests`` of the stops
* ``replications.csv``     a study's rows: replication, seed and each
                           method's ``<m>_mu``, ``<m>_rhw`` and ``<m>_tests``

Records travel as columns: a sampler call returns one
:class:`~.sampling.Records` block per environment, a replication's records
are a slice of its group's block, and the writers, the loader and
:func:`~.estimators.fit` use the block's arrays as they are.  ``_sample``
draws one environment's episodes ``0 .. n-1`` for one or several root
seeds, in the calling process.  :func:`estimate_from_records` is the one
estimate path: it fits each method once and reads its estimate,
convergence table, stopping count and (for ATSCV) adjusted points off that
one :class:`~.estimators.PooledFit`.  :func:`run_campaign` is that on
freshly sampled records plus the oracle, ``estimate --records`` is that on
emitted records, and a replication row is that on the replication's slice
of its group's records (seed root+rep), without the oracle and on one warm
criticality evaluator per worker chunk.

Every CSV table goes through one column writer, ``_write_table``, and one
reader, ``_read_table``, which checks the header and the field count of
every row.  :func:`emit_records` and :func:`load_campaign_records` are the
two ends of ``records.csv`` and ``critical_log.csv``; a value the samplers
never write fails with its file and line.

The worker pool serves replication studies only: :func:`run_replications`
takes the worker count as an argument and hands each worker a contiguous
chunk of replications.  A campaign samples in one process, because
shipping its records back from workers costs more than drawing them.
Every record is a pure function of (root seed, environment, index), so
output bytes do not depend on the worker count, which is no config field:
``summary.json`` echoes the config as it is.
"""

from __future__ import annotations

import array
import dataclasses
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    Records,
    Roots,
    log_product,
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
    records: Dict[str, Records]
    methods: Dict[str, MethodResult]
    oracle_mu: Optional[float] = None
    acceleration: Dict[str, Optional[float]] = field(default_factory=dict)
    replication_rows: List[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# sampling


def _budgets(cfg: CampaignConfig) -> Dict[str, int]:
    """Episodes per environment the campaign runs, in sampling order."""
    return {env: n for env, n in (("nde", cfg.episodes_nde),
                                  ("nade", cfg.episodes_nade))
            if cfg.environment in (env, "both") and n > 0}


def _sample(env: str, cfg: CampaignConfig, roots: Roots, n: int,
            evaluator: Optional[CriticalityEvaluator] = None) -> Records:
    """Episodes ``0 .. n-1`` of each root seed, root-major.  The samplers
    are read off this module at every call, so a wrapper set on
    ``harness.sample_nde_batch`` or ``sample_nade_batch`` sees them all."""
    if env == "nde":
        return sample_nde_batch(roots, cfg.scenario, n)
    return sample_nade_batch(roots, cfg.scenario, n, evaluator=evaluator)


def sample_env(cfg: CampaignConfig, env: str) -> Records:
    """Every episode of one environment at the campaign's seed."""
    n = cfg.episodes_nde if env == "nde" else cfg.episodes_nade
    return _sample(env, cfg, cfg.seed, n)


# ---------------------------------------------------------------------------
# campaigns


def _finite(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


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
                          records: Dict[str, Records]) -> CampaignResult:
    """Run the estimators over sampled or previously emitted records, of
    the environments ``cfg.environment`` selects."""
    records = {env: recs for env, recs in records.items()
               if cfg.environment in (env, "both")}
    methods = {}
    for m in METHODS:
        recs = records.get("nde" if m == "nde" else "nade")
        if recs:
            f = fit(recs, m)
            table = f.table(cfg.gamma)
            methods[m] = MethodResult(f, table, tests_to_threshold(
                table[:, 2], cfg.rhw_threshold, cfg.confirm_window))
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
    resolve in one rollout and each block's cache fills at most once, on
    its first miss.  A replication's row is :func:`estimate_from_records` of its
    slice of the group's records, as a campaign at its seed estimates.
    Every record is a pure function of (root, environment, index) and every
    cache value of its grid key, so the rows do not depend on the grouping.
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
        result = estimate_from_records(cfg, {
            env: drawn[env][i * n:(i + 1) * n] for env, n in budgets.items()})
        row: Dict[str, object] = {"replication": rep, "seed": seed}
        for m in METHODS:
            mr = result.methods.get(m)
            row[f"{m}_mu"], row[f"{m}_rhw"], row[f"{m}_tests"] = (
                (mr.estimate.mu, mr.rhw, mr.tests_to_threshold) if mr
                else (None, None, None))
        rows.append(row)
    return rows


def run_replications(cfg: CampaignConfig, workers: int = 1) -> List[dict]:
    """One campaign per replication, seeded root+1 ... root+R; ``workers``
    processes, at most one per usable CPU, fit them in contiguous chunks."""
    cfg.validate()
    reps = list(range(1, cfg.replications + 1))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    parts = min(workers, len(reps), cpus)
    if parts == 1:
        return _replicate(cfg, reps)
    import multiprocessing  # about 9 ms of import, paid only for a pool
    chunks = [reps[i * len(reps) // parts:(i + 1) * len(reps) // parts]
              for i in range(parts)]
    with multiprocessing.Pool(parts) as pool:
        rows = pool.starmap(_replicate, [(cfg, chunk) for chunk in chunks])
    return [row for chunk in rows for row in chunk]


def _aggregate_replications(rows: List[dict]) -> dict:
    agg = {"replications": len(rows)}
    for m in METHODS:
        tests = [r[f"{m}_tests"] for r in rows if r[f"{m}_tests"] is not None]
        agg[f"median_{m}_tests"] = statistics.median(tests) if tests else None
    return agg


# ---------------------------------------------------------------------------
# file emission


ENVS = ("nde", "nade")
RECORD_COLUMNS = ["id", "seed", "env", "accident", "l", "w"]
ADJUSTED_COLUMNS = ["id", "l", "unadjusted", "adjusted"]
CONVERGENCE_COLUMNS = ["n", "mu", "rhw"]
REPLICATION_COLUMNS = ["replication", "seed"] + [
    f"{m}_{col}" for m in METHODS for col in ("mu", "rhw", "tests")]


def _log_columns(panel_size: int) -> List[str]:
    return ["record_id", "moment", "p", "q_alpha"] + [
        f"q_{j + 1}" for j in range(panel_size)]


def _cells(cols: Sequence, lo: int, hi: int) -> List[List[str]]:
    """Rows ``lo:hi`` of the columns as text: ``str`` of an int array's
    values, ``repr`` of a float array's, a ``str`` on every row, and ``str``
    of a list's items, ``None`` as an empty cell.  Each distinct float bit
    pattern is formatted once, so ``-0.0`` and ``0.0`` keep their own text."""
    k = hi - lo
    floats = [c[lo:hi] for c in cols
              if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    bits, inverse = np.unique(np.concatenate([np.empty(0), *floats]).view(
        np.uint64), return_inverse=True)
    text = np.array([*map(repr, bits.view(float).tolist())], dtype=object)
    float_text = iter(text[inverse].reshape(-1, k).tolist())
    cells = []
    for c in cols:
        if isinstance(c, str):
            cells.append([c] * k)
        elif not isinstance(c, np.ndarray):
            cells.append(["" if x is None else str(x) for x in c[lo:hi]])
        else:
            cells.append(next(float_text) if c.dtype.kind == "f"
                         else list(map(str, c[lo:hi].tolist())))
    return cells


def _write_table(path: str, header: Sequence[str],
                 parts: Iterable[Sequence]) -> None:
    """Write a CSV table: the header, then each part's equally long columns
    (:func:`_cells`), ``sampling.BLOCK`` rows at a time.  No cell holds a
    comma, a quote or a line break, so nothing is quoted."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cols in parts:
            n = len(next(c for c in cols if not isinstance(c, str)))
            for lo in range(0, n, sampling.BLOCK):
                cells = _cells(cols, lo, min(n, lo + sampling.BLOCK))
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def emit_records(out_dir: str, blocks: Sequence[Records],
                 panel_size: int) -> List[str]:
    """Write the record blocks to ``records.csv`` and its
    ``critical_log.csv`` sidecar, which :func:`load_campaign_records`
    reads back; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name)
             for name in ("records.csv", "critical_log.csv")]
    _write_table(paths[0], RECORD_COLUMNS, [
        [b.index, b.seed, b.env, b.accident, b.control_steps, b.weight]
        for b in blocks])
    _write_table(paths[1], _log_columns(panel_size), [
        [np.repeat(b.index, b.control_steps),
         np.arange(len(b.p)) - np.repeat(b.offsets[:-1], b.control_steps),
         b.p, b.q_alpha, *b.q.T] for b in blocks])
    return paths


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
        "config": dataclasses.asdict(result.config),
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
    records = result.records
    manifest = emit_records(out_dir, [records[env] for env in ENVS
                                      if env in records],
                            len(result.config.scenario.surrogates))

    def out(name):
        manifest.append(os.path.join(out_dir, name))
        return manifest[-1]

    for method in METHODS:
        mr = result.methods.get(method)
        _write_table(out(f"convergence_{method}.csv"), CONVERGENCE_COLUMNS,
                     [] if mr is None else [[mr.table[:, 0].astype(np.int64),
                                             mr.table[:, 1], mr.table[:, 2]]])
    atscv = result.methods.get("atscv")
    _write_table(out("adjusted_points.csv"), ADJUSTED_COLUMNS,
                 [] if atscv is None else [[
                     records["nade"].index, records["nade"].control_steps,
                     atscv.fit.y, atscv.fit.adjusted()]])
    if result.replication_rows:
        _write_table(out("replications.csv"), REPLICATION_COLUMNS, [[
            [row.get(col) for row in result.replication_rows]
            for col in REPLICATION_COLUMNS]])
    with open(out("summary.json"), "w") as fh:
        json.dump(build_summary(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# loading emitted records back


def _read_table(path: str, columns: Callable[[List[str]], Optional[str]],
                parse: Callable[[List[str]], Sequence]
                ) -> Tuple[List[np.ndarray], Optional[ValueError]]:
    """The columns of a CSV table that :func:`_write_table` wrote, one
    array per typecode that ``columns`` gives for the header (None rejects
    it: ``ValueError`` names the file and line 1), filled with ``parse`` of
    each row's fields.  The first row whose field count differs from the
    header's, or that ``parse`` or a column's 64-bit range rejects, ends the
    table; its error, naming the file and line, is returned rather than
    raised, so that a check across the rows before it reports first."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        codes = columns(header)
        if codes is None:
            raise ValueError(f"{path}, line 1: unexpected header {header}")
        cols, error = [array.array(code) for code in codes], None
        for line, text in enumerate(fh, start=2):
            fields = text.rstrip("\n").split(",")
            try:
                if len(fields) != len(header):
                    raise ValueError(f"{len(fields)} fields, the header has "
                                     f"{len(header)}")
                for col, value in zip(cols, parse(fields)):
                    col.append(value)
            except (ValueError, OverflowError) as exc:
                kind = "out of range: " if isinstance(exc, OverflowError) else ""
                error = ValueError(f"{path}, line {line}: {kind}{exc}")
                for col in cols:
                    del col[line - 2:]
                break
    return [np.frombuffer(col, dtype=col.typecode) for col in cols], error


def load_campaign_records(out_dir: str) -> Dict[str, Records]:
    """Rebuild the per-environment record blocks from an output directory.

    ``ValueError`` names the file and line of the first value the samplers
    never write, ``id`` repeated within an environment, or log row whose
    ``record_id`` is no NADE record or whose ``moment`` is not its
    record's next (0, 1, ...); then the file and episode of the first
    record whose ``l`` differs from the moments its log holds (as when
    ``critical_log.csv`` is missing) or whose ``w`` is not its log's
    product of ``p / q_alpha``, bit for bit.  ``EmptyInput`` is a
    ``records.csv`` without a row."""
    path = os.path.join(out_dir, "records.csv")
    log_path = os.path.join(out_dir, "critical_log.csv")

    def record(fields):
        index, seed, env, accident, logged, weight = fields
        index, accident, weight = int(index), int(accident), float(weight)
        if env not in ENVS:
            raise ValueError(f"env {env!r} is neither 'nde' nor 'nade'")
        if accident not in (0, 1):
            raise ValueError(f"accident {accident} is neither 0 nor 1")
        if env == "nde" and weight != 1.0:
            raise ValueError(f"nde weight {weight!r} is not 1")
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError(f"weight {weight!r} is not finite and >= 0")
        return index, int(seed), ENVS.index(env), accident, int(logged), weight

    (index, seed, env, accident, logged, weight), error = _read_table(
        path, lambda h: "qQbqqd" if h == RECORD_COLUMNS else None, record)
    order = np.lexsort((index, env))  # stable: a repeat sorts after its id
    again = order[1:][(env[order][1:] == env[order][:-1])
                      & (index[order][1:] == index[order][:-1])]
    if again.size:
        i = again.min()
        raise ValueError(f"{path}, line {i + 2}: {ENVS[env[i]]} id "
                         f"{index[i]} repeats")
    if error:
        raise error

    cols, error = ([np.empty(0, dtype=np.int64)] * 2 + [np.empty(0)] * 2,
                   None)
    if os.path.exists(log_path):
        cols, error = _read_table(log_path, lambda h: (
            "qq" + "d" * (len(h) - 2)
            if len(h) > 4 and h == _log_columns(len(h) - 4) else None),
            lambda f: [*map(int, f[:2]), *map(float, f[2:])])
    rid, k, p, q_alpha, *q = cols
    q = np.stack(q, axis=1) if q else np.empty((len(p), 0))
    # Each log row's record, and how many rows of that record precede it.
    nade = np.flatnonzero(env == 1)
    ids, sorter = index[nade], np.argsort(index[nade])
    known = np.isin(rid, ids)
    pos = np.full(len(rid), -1)
    pos[known] = nade[sorter[np.searchsorted(ids, rid[known], sorter=sorter)]]
    order = np.argsort(pos, kind="stable")
    rank = np.empty(len(pos), dtype=np.int64)
    rank[order] = np.arange(len(pos)) - np.searchsorted(pos[order], pos[order])
    # q_alpha is the density the action was drawn from
    proper = (np.isfinite(p) & (p >= 0.0) & np.isfinite(q_alpha)
              & (q_alpha > 0.0) & (np.isfinite(q) & (q >= 0.0)).all(axis=1))
    bad = np.flatnonzero(~known | (k != rank) | ~proper)
    if bad.size:
        i = bad[0]
        densities = (float(p[i]), float(q_alpha[i]), *q[i].tolist())
        raise ValueError(f"{log_path}, line {i + 2}: " + (
            f"record_id {rid[i]} is no NADE record" if not known[i] else
            f"moment {k[i]} of record_id {rid[i]} should be {rank[i]}"
            if k[i] != rank[i] else f"densities {densities} are not finite "
                                    f"and >= 0 with q_alpha > 0"))
    if error:
        raise error

    # One CSR log over every record; an NDE record has no moment.
    count = np.bincount(pos, minlength=len(index))
    p, q_alpha, q = p[order], q_alpha[order], q[order]
    product = log_product(np.concatenate([[0], np.cumsum(count)]),
                          p / q_alpha)
    bad = np.flatnonzero((logged != count) | (weight != product))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: episode {index[i]} ({ENVS[env[i]]}) has " + (
            f"l = {logged[i]} but the critical log holds {count[i]}"
            if logged[i] != count[i] else f"w = {weight[i].item()!r} but "
            f"its critical log gives {product[i].item()!r}"))
    if not len(index):
        raise EmptyInput(f"{path}: no records")
    blocks = {}
    for code, name in enumerate(ENVS):
        rows = np.flatnonzero(env == code)
        offsets = np.concatenate([[0], np.cumsum(count[rows])])
        if rows.size:  # every moment is a NADE record's
            blocks[name] = Records(
                name, index[rows], seed[rows], accident[rows], weight[rows],
                offsets, *(x[:offsets[-1]] for x in (p, q_alpha, q)))
    return blocks


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


def _exactly(properties: dict) -> dict:
    """An object with exactly these properties."""
    return {"type": "object", "required": list(properties),
            "properties": properties, "additionalProperties": False}


_REPLICATION_SCHEMA = _exactly({
    col: {"type": "integer"} if col in ("replication", "seed") else
    {"type": ["integer" if col.endswith("_tests") else "number", "null"]}
    for col in REPLICATION_COLUMNS})

_AGGREGATES_SCHEMA = _exactly({
    key: {"type": ["number", "null"]}
    for key in ["replications", *(f"median_{m}_tests" for m in METHODS)]})

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
        "replications": {"type": "array", "items": _REPLICATION_SCHEMA},
        "aggregates": _AGGREGATES_SCHEMA,
    },
}
