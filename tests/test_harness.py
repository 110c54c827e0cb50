"""Campaign-level contracts of the harness."""
import dataclasses
import json
import math
import multiprocessing
import os
import statistics
from itertools import repeat, starmap

import jsonschema
import numpy as np
import pytest

from overtake_eval import cli, estimators, harness, sampling
from overtake_eval.config import CampaignConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.harness import (
    SUMMARY_SCHEMA,
    CampaignResult,
    emit_outputs,
    load_campaign_records,
    run_campaign,
    run_replications,
)
from overtake_eval.sampling import BLOCK
from scalar_reference import block_columns, write_table


def _campaign_ini(tmp_path, **keys):
    (tmp_path / "campaign.ini").write_text("[campaign]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items()))


def _estimated(tmp_path, name, *flags):
    # A campaign's worker count is only ``estimate --workers``.
    ini = tmp_path / "campaign.ini"
    assert cli.main(["estimate", "--config", str(ini), *map(str, flags),
                     "--out", str(tmp_path / name)]) == 0
    return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}


def test_worker_count_does_not_change_outputs(tmp_path, capsys):
    # The NDE episodes span two sampler blocks and end partway through the
    # second, so a campaign larger than one block is covered too.
    _campaign_ini(tmp_path, seed=99, episodes_nde=BLOCK + 300,
                  episodes_nade=60, environment="both")
    one = _estimated(tmp_path, "one")
    one_out = capsys.readouterr().out.splitlines()[:-1]
    two = _estimated(tmp_path, "two", "--workers", 2)
    assert capsys.readouterr().out.splitlines()[:-1] == one_out
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name
    assert one["records.csv"].count(b"\n") == 1 + BLOCK + 300 + 60


def test_campaign_samples_in_one_process(tmp_path, monkeypatch, capsys):
    # Shipping records back from workers costs more than drawing them, so
    # a campaign starts no pool whatever its worker count.
    def no_pool(*args, **kwargs):
        raise AssertionError("a campaign started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    _campaign_ini(tmp_path, seed=98, episodes_nde=400, episodes_nade=40,
                  environment="both")
    one = _estimated(tmp_path, "one")
    one_out = capsys.readouterr().out.splitlines()[:-1]
    assert _estimated(tmp_path, "four", "--workers", 4) == one
    assert capsys.readouterr().out.splitlines()[:-1] == one_out


def test_emitted_records_load_back_field_for_field(tmp_path):
    # records.csv and critical_log.csv carry every field of a sampled
    # record, critical moments included, with floats written by repr.
    cfg = CampaignConfig(seed=7, episodes_nde=200, episodes_nade=200,
                         environment="both")
    result = run_campaign(cfg)
    emit_outputs(result, str(tmp_path))
    loaded = load_campaign_records(str(tmp_path))
    assert sorted(loaded) == ["nade", "nde"]
    for env in ("nde", "nade"):
        assert loaded[env].env == env
        assert block_columns(loaded[env]) == block_columns(result.records[env])
        assert loaded[env].q.shape[1] == 3
    assert loaded["nade"].control_steps.any()


def test_column_writer_matches_the_row_writer(tmp_path):
    # Floats are formatted once per distinct bit pattern in a block: -0.0
    # keeps its sign next to 0.0, and values repeat within and across
    # columns and blocks.  Ints include uint64 seeds of 2**63 and above.
    rng = np.random.default_rng(2024)
    n = BLOCK + 7
    pool = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
                     5e-324, -1e300, 2.0 ** 53])
    q = rng.choice(pool, (n, 3))
    q[rng.random((n, 3)) < 0.3] = rng.standard_normal()
    seeds = rng.integers(2 ** 63, 2 ** 64 - 1, n, dtype=np.uint64,
                         endpoint=True)
    seeds[:2] = 2 ** 63, 2 ** 64 - 1
    ints = np.arange(n, dtype=np.int64) - 3
    mixed = [None if i % 3 == 0 else i if i % 2 else i / 7 for i in range(n)]
    part = [ints, seeds, "nade", q[:, 0], *q.T, mixed]
    parts = [part, [c if isinstance(c, str) else c[:0] for c in part],
             [c if isinstance(c, str) else c[:5] for c in part]]
    header = [f"c{i}" for i in range(len(part))]

    def rows(cols):
        values = [repeat(c) if isinstance(c, str) else
                  c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
        return zip(*values)

    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    harness._write_table(str(got), header, parts)
    write_table(str(want), header, (r for cols in parts for r in rows(cols)))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\n") == 1 + n + 5
    assert b",-0.0," in got.read_bytes() and b",0.0," in got.read_bytes()
    harness._write_table(str(got), header, [])
    write_table(str(want), header, [])
    assert got.read_bytes() == want.read_bytes() == b",".join(
        h.encode() for h in header) + b"\n"


def _replication_files(cfg, out_dir, workers=1):
    rows = run_replications(cfg, workers)
    result = CampaignResult(config=cfg, records={}, methods={},
                            replication_rows=rows)
    emit_outputs(result, str(out_dir))
    return rows, {name: (out_dir / name).read_bytes()
                  for name in ("replications.csv", "summary.json")}


def test_replication_row_is_the_campaign_at_its_seed(tmp_path):
    # A replication is the campaign at seed root+rep, oracle aside.  The
    # loose threshold gives every method a stopping count.  The aggregates
    # are the rows' count and each method's median stopping count.
    cfg = CampaignConfig(seed=40, episodes_nde=300, episodes_nade=120,
                         environment="both", replications=3,
                         rhw_threshold=2.0, confirm_window=5)
    rows, _ = _replication_files(cfg, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["aggregates"]) == {
        "replications", "median_nde_tests", "median_nade_tests",
        "median_atscv_tests"}
    assert summary["aggregates"]["replications"] == len(rows)
    assert [r["replication"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert row["seed"] == cfg.seed + row["replication"]
        result = run_campaign(dataclasses.replace(cfg, seed=row["seed"],
                                                  replications=1))
        for m in ("nde", "nade", "atscv"):
            mr = result.methods[m]
            assert row[f"{m}_mu"] == mr.estimate.mu
            assert row[f"{m}_rhw"] == mr.rhw
            assert row[f"{m}_tests"] == mr.tests_to_threshold
            assert mr.tests_to_threshold is not None
    for m in ("nde", "nade", "atscv"):
        assert summary["aggregates"][f"median_{m}_tests"] == statistics.median(
            r[f"{m}_tests"] for r in rows if r[f"{m}_tests"] is not None)


def test_replication_files_do_not_depend_on_worker_count(tmp_path):
    cfg = CampaignConfig(seed=41, episodes_nde=200, episodes_nade=100,
                         environment="both", replications=3)
    rows, one = _replication_files(cfg, tmp_path / "one")
    _, two = _replication_files(cfg, tmp_path / "two", workers=2)
    assert one == two
    assert one["replications.csv"].count(b"\n") == 1 + len(rows)


def test_pool_is_no_larger_than_the_usable_cpus(monkeypatch):
    # Each worker holds its own criticality cache, so workers beyond the
    # CPUs the process may run on only cost memory.
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return list(starmap(func, args))

    cfg = CampaignConfig(seed=43, episodes_nade=20, environment="nade",
                         replications=64)
    one = run_replications(cfg)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert run_replications(cfg, workers=64) == one
    assert sizes == [2]


def test_summaries_match_schema(tmp_path):
    cfg = CampaignConfig(seed=42, episodes_nde=200, episodes_nade=100,
                         environment="both", replications=2)
    emit_outputs(run_campaign(cfg), str(tmp_path / "campaign"))
    _replication_files(cfg, tmp_path / "replications")
    for name in ("campaign", "replications"):
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        jsonschema.validate(summary, SUMMARY_SCHEMA)
    row = summary["replications"][0]
    for bad in (dict(summary, methods={"nde": {"n": -1}}),
                dict(summary, replications=[dict(row, accel_nade_atscv=1.0)]),
                dict(summary, aggregates=dict(summary["aggregates"],
                                              atscv_faster_than_nade=2))):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, SUMMARY_SCHEMA)


def test_each_method_is_fitted_once_per_record_set(tmp_path, monkeypatch):
    # The estimate, the convergence table, the stopping count and the
    # adjusted points all read off one fit per method and record set; each
    # replication of a study is one record set, fitted on its own.
    solved = []
    solve = estimators._solve

    def counting(method, y, Z):
        solved.append((method, len(y)))
        return solve(method, y, Z)

    monkeypatch.setattr(estimators, "_solve", counting)
    cfg = CampaignConfig(seed=43, episodes_nde=150, episodes_nade=60,
                         environment="both", replications=2)
    emit_outputs(run_campaign(cfg), str(tmp_path))
    assert sorted(solved) == [("atscv", 60), ("nade", 60), ("nde", 150)]
    solved.clear()
    run_replications(cfg)  # one worker: the fits run in this process
    assert sorted(solved) == [("atscv", 60)] * 2 + [("nade", 60)] * 2 + [
        ("nde", 150)] * 2


def test_replications_are_sampled_in_groups_that_fit_a_block(monkeypatch):
    calls = []

    def counting(name):
        sample = getattr(harness, name)

        def hooked(roots, cfg, n, **kwargs):
            calls.append((name, list(roots), n, kwargs.get("evaluator")))
            return sample(roots, cfg, n, **kwargs)
        monkeypatch.setattr(harness, name, hooked)

    counting("sample_nde_batch")
    counting("sample_nade_batch")

    def groups(block, cfg):
        calls.clear()
        monkeypatch.setattr(sampling, "BLOCK", block)
        return run_replications(cfg)

    # Blocks of 100 episodes hold three replications of 30.
    cfg = CampaignConfig(seed=50, episodes_nade=30, environment="nade",
                         replications=5)
    grouped = groups(100, cfg)
    assert [(roots, n) for _, roots, n, _ in calls] == [
        ([51, 52, 53], 30), ([54, 55], 30)]
    evaluator = calls[0][3]
    assert all(ev is evaluator for *_, ev in calls)

    # A block of 30 holds one replication: the same rows and cache misses.
    assert groups(30, cfg) == grouped
    assert [roots for _, roots, _, _ in calls] == [[51 + i] for i in range(5)]
    assert set(calls[0][3]._entry_cache) == set(evaluator._entry_cache)

    # A replication larger than a block gets a group of its own.
    assert groups(20, dataclasses.replace(cfg, replications=2)) == grouped[:2]
    assert [roots for _, roots, _, _ in calls] == [[51], [52]]

    # Both environments share the groups, sized by the larger budget.
    both = dataclasses.replace(cfg, environment="both", episodes_nde=45,
                               replications=3)
    groups(100, both)
    assert [(name, roots, n) for name, roots, n, _ in calls] == [
        ("sample_nde_batch", [51, 52], 45), ("sample_nade_batch", [51, 52], 30),
        ("sample_nde_batch", [53], 45), ("sample_nade_batch", [53], 30)]


def test_the_names_the_benchmark_binds_exist():
    # bench/child.py times these where harness and cli bind them and skips a
    # missing one silently, which reads 0 for its layer; bench/checks.py
    # imports the rest.
    for name in ("sample_nde_batch", "sample_nade_batch",
                 "tests_to_threshold", "brute_force_mu",
                 "estimate_from_records", "load_campaign_records",
                 "SUMMARY_SCHEMA"):
        assert hasattr(harness, name), name
    assert callable(cli.emit_outputs)
    assert callable(CriticalityEvaluator.profile)
    ev = CriticalityEvaluator(CampaignConfig().scenario)
    assert isinstance(ev._entry_cache, dict)
