"""Configuration loading, validation, and the written default file."""
import dataclasses
import os

import pytest

from overtake_eval.cli import main
from overtake_eval.config import (
    MAX_DESIGN_WIDTH,
    CampaignConfig,
    ConfigError,
    ScenarioConfig,
    load_config,
    write_default_config,
)
from overtake_eval.models import IdmParams


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_validate(campaign):
    campaign.validate()


def test_default_file_roundtrips(tmp_path):
    p = str(tmp_path / "default.ini")
    write_default_config(p)
    assert load_config(p) == CampaignConfig()


def test_partial_file_keeps_other_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[campaign]\nseed = 7\nepisodes_nde = 500\n"))
    assert cfg.seed == 7
    assert cfg.episodes_nde == 500
    assert cfg.episodes_nade == CampaignConfig().episodes_nade
    assert cfg.scenario == ScenarioConfig()


def test_scenario_and_model_overrides(tmp_path):
    text = """
[scenario]
max_steps = 120
vehicle_length = 4.0

[initial]
r1_low = 28.0
r1_high = 34.0

[mobil]
gamma_p = 0.02

[sm_fvdm1]
kappa = 3.5
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.scenario.max_steps == 120
    assert cfg.scenario.vehicle_length == 4.0
    assert cfg.scenario.init.r1_low == 28.0
    assert cfg.scenario.init.r1_high == 34.0
    assert cfg.scenario.mobil.gamma_p == 0.02
    by_name = {m.name: m for m in cfg.scenario.surrogates}
    assert by_name["fvdm1"].fvdm.kappa == 3.5
    assert by_name["fvdm2"].fvdm.kappa == 6.0  # untouched


def test_surrogate_panel_selection_preserves_order(tmp_path):
    cfg = load_config(write(tmp_path, "[criticality]\nsurrogates = fvdm2, idm\n"))
    assert [m.name for m in cfg.scenario.surrogates] == ["fvdm2", "idm"]


def test_unknown_surrogate_rejected(tmp_path):
    with pytest.raises(ConfigError, match="warpdrive"):
        load_config(write(tmp_path, "[criticality]\nsurrogates = idm, warpdrive\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[nonsense\]"):
        load_config(write(tmp_path, "[nonsense]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write(tmp_path, "[campaign]\nbogus = 2\n"))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write(tmp_path, "[mobil]\nbogus = 2\n"))


def test_bad_value_reports_field(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_config(write(tmp_path, "[campaign]\nseed = notanint\n"))
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path, "[scenario]\ndt = fast\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "does-not-exist.ini"))


def test_garbage_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "episodes = 3\nno section header\n"))


def test_loaded_config_is_validated(tmp_path):
    with pytest.raises(ConfigError, match="environment"):
        load_config(write(tmp_path, "[campaign]\nenvironment = martian\n"))
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(write(tmp_path, "[criticality]\nepsilon = 1.5\n"))


@pytest.mark.parametrize("field,value,message", [
    ("gamma", 0.0, "gamma"),
    ("rhw_threshold", -0.1, "rhw_threshold"),
    ("confirm_window", 0, "confirm_window"),
    ("max_control_steps", -1, "max_control_steps"),
    ("oracle_bins", 0, "oracle_bins"),
    ("replications", 0, "replications"),
    ("workers", 0, "workers"),
    ("environment", "street", "environment"),
])
def test_campaign_validation_messages(field, value, message):
    cfg = dataclasses.replace(CampaignConfig(), **{field: value})
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


@pytest.mark.parametrize("field,value,message", [
    ("dt", 0.0, "dt"),
    ("max_steps", 0, "max_steps"),
    ("d_accid", -1.0, "d_accid"),
    ("vehicle_length", -1.0, "vehicle_length"),
    ("epsilon", 0.0, "epsilon"),
    ("surrogates", (), "surrogate"),
    ("bv_idm", IdmParams(v0=0.0), "bv_idm"),
    ("av_idm", IdmParams(b=0.0), "av_idm"),
])
def test_scenario_validation_messages(field, value, message):
    sc = dataclasses.replace(ScenarioConfig(), **{field: value})
    cfg = dataclasses.replace(CampaignConfig(), scenario=sc)
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


def test_design_width_guard():
    stock = CampaignConfig()
    assert len(stock.scenario.surrogates) == 3
    for steps in (10, 12):  # 2^12 = MAX_DESIGN_WIDTH columns
        dataclasses.replace(stock, max_control_steps=steps).validate()
    for steps in (13, 20):
        with pytest.raises(ConfigError, match="max_control_steps"):
            dataclasses.replace(stock, max_control_steps=steps).validate()
    # a two-model panel has one column per group at any cap
    sc = dataclasses.replace(stock.scenario,
                             surrogates=stock.scenario.surrogates[:2])
    dataclasses.replace(stock, scenario=sc, max_control_steps=50).validate()
    assert MAX_DESIGN_WIDTH == 2 ** 12


def test_design_width_guard_exit_code(tmp_path, capsys):
    path = write(tmp_path, "[estimator]\nmax_control_steps = 20\n")
    out = str(tmp_path / "out")
    rc = main(["estimate", "--config", path, "--env", "nade",
               "--episodes", "5", "--out", out])
    assert rc == 2
    assert "max_control_steps" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_inverted_initial_range_rejected():
    sc = ScenarioConfig()
    sc = dataclasses.replace(sc, init=dataclasses.replace(sc.init, r1_high=29.0))
    with pytest.raises(ConfigError, match="r1"):
        dataclasses.replace(CampaignConfig(), scenario=sc).validate()
