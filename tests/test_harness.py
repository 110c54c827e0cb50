"""Campaign-level contracts of the harness."""
import dataclasses
import json
import multiprocessing
import os

import jsonschema
import pytest

from overtake_eval import estimators, harness, sampling
from overtake_eval.config import CampaignConfig
from overtake_eval.harness import (
    SUMMARY_SCHEMA,
    CampaignResult,
    emit_outputs,
    load_campaign_records,
    run_campaign,
    run_replications,
)
from overtake_eval.sampling import BLOCK
from scalar_reference import block_columns


def _emitted(cfg, out_dir):
    paths = emit_outputs(run_campaign(cfg), str(out_dir))
    files = {}
    for path in paths:
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read()
    return files


def test_worker_count_does_not_change_outputs(tmp_path):
    # The NDE episodes span two sampler blocks and end partway through the
    # second, so a campaign larger than one block is covered too.
    cfg = CampaignConfig(seed=99, episodes_nde=BLOCK + 300,
                         episodes_nade=60, environment="both")
    one = _emitted(cfg, tmp_path / "one")
    two = _emitted(dataclasses.replace(cfg, workers=2), tmp_path / "two")
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name
    assert one["records.csv"].count(b"\n") == 1 + cfg.episodes_nde + 60


def test_campaign_samples_in_one_process(tmp_path, monkeypatch):
    # Shipping records back from workers costs more than drawing them, so
    # a campaign starts no pool whatever its worker count.
    def no_pool(*args, **kwargs):
        raise AssertionError("a campaign started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfg = CampaignConfig(seed=98, episodes_nde=400, episodes_nade=40,
                         environment="both")
    one = _emitted(cfg, tmp_path / "one")
    assert _emitted(dataclasses.replace(cfg, workers=4), tmp_path / "four") == one


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


def _replication_files(cfg, out_dir):
    rows = run_replications(cfg)
    result = CampaignResult(config=cfg, records={}, methods={},
                            replication_rows=rows)
    emit_outputs(result, str(out_dir))
    return rows, {name: (out_dir / name).read_bytes()
                  for name in ("replications.csv", "summary.json")}


def test_replication_row_is_the_campaign_at_its_seed(tmp_path):
    # A replication is the campaign at seed root+rep, oracle aside.  The
    # loose threshold gives every method a stopping count and a ratio.
    cfg = CampaignConfig(seed=40, episodes_nde=300, episodes_nade=120,
                         environment="both", replications=2,
                         rhw_threshold=2.0, confirm_window=5)
    rows = run_replications(cfg)
    assert [r["replication"] for r in rows] == [1, 2]
    for row in rows:
        assert row["seed"] == cfg.seed + row["replication"]
        result = run_campaign(dataclasses.replace(cfg, seed=row["seed"],
                                                  replications=1))
        for m in ("nde", "nade", "atscv"):
            mr = result.methods[m]
            assert row[f"{m}_mu"] == mr.estimate.mu
            assert row[f"{m}_rhw"] == mr.rhw
            assert row[f"{m}_tests"] == mr.tests_to_threshold
        assert row["accel_nde_nade"] == result.acceleration["nde_over_nade"]
        assert row["accel_nade_atscv"] == result.acceleration["nade_over_atscv"]
        assert None not in (row["accel_nde_nade"], row["accel_nade_atscv"])


def test_replication_files_do_not_depend_on_worker_count(tmp_path):
    cfg = CampaignConfig(seed=41, episodes_nde=200, episodes_nade=100,
                         environment="both", replications=3)
    rows, one = _replication_files(cfg, tmp_path / "one")
    _, two = _replication_files(dataclasses.replace(cfg, workers=2),
                                tmp_path / "two")
    assert one == two
    assert one["replications.csv"].count(b"\n") == 1 + len(rows)


def test_summaries_match_schema(tmp_path):
    cfg = CampaignConfig(seed=42, episodes_nde=200, episodes_nade=100,
                         environment="both", replications=2)
    emit_outputs(run_campaign(cfg), str(tmp_path / "campaign"))
    _replication_files(cfg, tmp_path / "replications")
    for name in ("campaign", "replications"):
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        jsonschema.validate(summary, SUMMARY_SCHEMA)
    bad = dict(summary, methods={"nde": {"n": -1}})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, SUMMARY_SCHEMA)


def test_each_method_is_fitted_once_per_record_set(tmp_path, monkeypatch):
    # The estimate, the convergence table, the stopping count and the
    # adjusted points all read off one fit per method and record set.
    solved = []
    solve = estimators._solve

    def counting(method, y, Z):
        solved.append(method)
        return solve(method, y, Z)

    monkeypatch.setattr(estimators, "_solve", counting)
    cfg = CampaignConfig(seed=43, episodes_nde=150, episodes_nade=60,
                         environment="both", replications=2)
    emit_outputs(run_campaign(cfg), str(tmp_path))
    assert sorted(solved) == ["atscv", "nade", "nde"]
    solved.clear()
    run_replications(cfg)  # one worker: the fits run in this process
    assert sorted(solved) == ["atscv"] * 2 + ["nade"] * 2 + ["nde"] * 2


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
