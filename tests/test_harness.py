"""Campaign-level contracts of the harness."""
import dataclasses
import os

from overtake_eval.config import CampaignConfig
from overtake_eval.harness import emit_outputs, load_campaign_records, run_campaign
from overtake_eval.sampling import NDE_BLOCK


def _emitted(cfg, out_dir):
    paths = emit_outputs(run_campaign(cfg), str(out_dir))
    files = {}
    for path in paths:
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read()
    return files


def test_worker_count_does_not_change_outputs(tmp_path):
    # Two workers split each environment into two chunks; the NDE chunks
    # start off the sampler's block grid, so block layout is covered too.
    cfg = CampaignConfig(seed=99, episodes_nde=NDE_BLOCK + 300,
                         episodes_nade=60, environment="both")
    one = _emitted(cfg, tmp_path / "one")
    two = _emitted(dataclasses.replace(cfg, workers=2), tmp_path / "two")
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name
    assert one["records.csv"].count(b"\n") == 1 + cfg.episodes_nde + 60


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
        assert loaded[env] == result.records[env]
    assert any(r.critical_log for r in loaded["nade"])
