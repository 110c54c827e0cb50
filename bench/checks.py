"""Correctness checks on the files one ``overtake-eval`` command wrote.

Every check is counted: ``CheckCounter.attempted`` grows by one per check and
``failures`` names the ones that did not hold.  A command that exited
non-zero fails every check of its workload.  The checks never change what
they read.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os

import jsonschema
from scipy.stats import binom

from overtake_eval.config import CampaignConfig
from overtake_eval.harness import (
    SUMMARY_SCHEMA,
    estimate_from_records,
    load_campaign_records,
)

CAMPAIGN_FILES = frozenset({
    "records.csv", "critical_log.csv", "convergence_nde.csv",
    "convergence_nade.csv", "convergence_atscv.csv", "adjusted_points.csv",
    "summary.json",
})
REPLICATE_FILES = CAMPAIGN_FILES | {"replications.csv"}
DIGEST_FILES = ("records.csv", "critical_log.csv", "convergence_nde.csv",
                "convergence_nade.csv", "convergence_atscv.csv",
                "replications.csv")

# A campaign estimate further than this many of its own standard errors from
# the oracle fails.  Under a normal error that happens once in 16,000; for NDE
# at 10,000 episodes (about 56 accidents) the standard error is estimated
# from the same count, and the exact binomial false-fail rate is 6e-4.
Z_LIMIT = 4.0
# Two-sided tail mass of the binomial band around the nominal coverage.
COVERAGE_TAIL = 0.002
REL_TOL = 1e-9


class CheckCounter:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, name, fn, *args):
        """Count one check; any exception or a false result fails it."""
        self.attempted += 1
        try:
            ok = fn(*args)
            detail = ""
        except Exception as exc:  # a broken output must not stop the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def fail_all(self, names, reason):
        self.attempted += len(names)
        self.failures.extend(f"{name} {reason}" for name in names)


def digests(out_dir):
    """sha256 of each deterministic output file the command wrote."""
    out = {}
    for name in DIGEST_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _file_set(out_dir, expected):
    return set(os.listdir(out_dir)) == expected


def _schema(out_dir):
    jsonschema.validate(load_summary(out_dir), SUMMARY_SCHEMA)
    return True


def _records_rows(out_dir, env, episodes):
    rows = _csv_rows(os.path.join(out_dir, "records.csv"))
    summary = load_summary(out_dir)
    return (len(rows) == episodes
            and all(r["env"] == env for r in rows)
            and all(m["n"] == episodes for m in summary["methods"].values()))


def _reestimate(out_dir, env):
    """Re-estimating from the emitted files reproduces every method."""
    summary = load_summary(out_dir)
    cfg = dataclasses.replace(CampaignConfig(), environment=env)
    result = estimate_from_records(cfg, load_campaign_records(out_dir))
    if set(result.methods) != set(summary["methods"]) or not result.methods:
        return False
    return all(
        _close(mr.estimate.mu, summary["methods"][name]["mu"])
        and _close(mr.estimate.variance, summary["methods"][name]["variance"])
        for name, mr in result.methods.items())


def z_scores(summary, oracle_mu):
    """(mu - oracle) / standard error for every method that has one."""
    out = {}
    for name, m in summary["methods"].items():
        if m["variance"] > 0.0:
            out[name] = (m["mu"] - oracle_mu) / math.sqrt(m["variance"])
    return out


def _oracle(out_dir, oracle_mu):
    """NDE and NADE lie within a few standard errors of the oracle, and the
    summary quotes the same oracle value."""
    summary = load_summary(out_dir)
    z = z_scores(summary, oracle_mu)
    unbiased = [m for m in ("nde", "nade") if m in summary["methods"]]
    return (bool(unbiased)
            and _close(summary["oracle_mu"], oracle_mu)
            and all(m in z and abs(z[m]) <= Z_LIMIT for m in unbiased))


def _replication_rows(out_dir, replications):
    rows = _csv_rows(os.path.join(out_dir, "replications.csv"))
    summary = load_summary(out_dir)
    return (len(rows) == replications
            and summary["aggregates"]["replications"] == replications
            and not _csv_rows(os.path.join(out_dir, "records.csv")))


def coverage(rows, method, oracle_mu):
    """Share of replications whose interval ``mu (1 +/- rhw)`` holds the
    oracle; a replication without an interval does not cover."""
    hits = 0
    for row in rows:
        mu, r = row[f"{method}_mu"], row[f"{method}_rhw"]
        if mu is not None and r is not None and abs(mu - oracle_mu) <= r * mu:
            hits += 1
    return hits / len(rows)


def coverage_band(replications, nominal):
    lo = binom.ppf(COVERAGE_TAIL / 2, replications, nominal)
    hi = binom.isf(COVERAGE_TAIL / 2, replications, nominal)
    return float(lo) / replications, float(hi) / replications


def _nade_coverage(out_dir, oracle_mu):
    summary = load_summary(out_dir)
    rows = summary["replications"]
    nominal = 1.0 - summary["config"]["gamma"]
    lo, hi = coverage_band(len(rows), nominal)
    return lo <= coverage(rows, "nade", oracle_mu) <= hi


def check_campaign(counter, exit_code, out_dir, env, episodes, oracle_mu):
    checks = [
        ("file_set", _file_set, out_dir, CAMPAIGN_FILES),
        ("summary_schema", _schema, out_dir),
        ("records_rows", _records_rows, out_dir, env, episodes),
        ("reestimate", _reestimate, out_dir, env),
        ("oracle_z", _oracle, out_dir, oracle_mu),
    ]
    _run_all(counter, exit_code, checks)


def check_replicate(counter, exit_code, out_dir, replications, oracle_mu):
    checks = [
        ("file_set", _file_set, out_dir, REPLICATE_FILES),
        ("summary_schema", _schema, out_dir),
        ("replication_rows", _replication_rows, out_dir, replications),
        ("nade_coverage", _nade_coverage, out_dir, oracle_mu),
    ]
    _run_all(counter, exit_code, checks)


def _run_all(counter, exit_code, checks):
    names = ["exit_code"] + [c[0] for c in checks]
    if exit_code != 0:
        counter.fail_all(names, f"(command exited {exit_code})")
        return
    counter.run("exit_code", lambda: True)
    for name, fn, *args in checks:
        counter.run(name, fn, *args)
