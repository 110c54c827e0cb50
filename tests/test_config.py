"""Configuration loading and validation."""
import dataclasses
import os

import pytest

from overtake_eval.cli import main
from overtake_eval.config import (
    CampaignConfig,
    ConfigError,
    InitialStateParams,
    ScenarioConfig,
    load_config,
)
from overtake_eval.models import FvdmParams, IdmParams, MobilParams, SurrogateModel


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_validate(campaign):
    campaign.validate()


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
    ("oracle_bins", 0, "oracle_bins"),
    ("replications", 0, "replications"),
    ("environment", "street", "environment"),
    ("seed", -1, "seed"),
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


def test_control_step_cap_key_is_unknown(tmp_path, capsys):
    # NADE samples every critical moment from q_alpha and logs it; an old
    # file that still caps them fails instead of running uncapped.
    out = tmp_path / "out"
    for cap in (10, 20):
        path = write(tmp_path, f"[estimator]\nmax_control_steps = {cap}\n")
        rc = main(["estimate", "--config", path, "--env", "nade",
                   "--episodes", "20", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: unknown key 'max_control_steps' in section "
            "[estimator]\n")
        assert not out.exists()


def test_workers_key_is_unknown(tmp_path, capsys):
    # The worker count is an argument of replicate, not of the experiment:
    # a file that sets it fails instead of being read by one verb only.
    out = tmp_path / "out"
    path = write(tmp_path, "[campaign]\nworkers = 2\n")
    rc = main(["replicate", "--config", path, "--env", "nade",
               "--episodes", "20", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: unknown key 'workers' in section [campaign]\n")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["estimate", "replicate"])
def test_workers_below_one_exit_code(tmp_path, capsys, verb):
    out = str(tmp_path / "out")
    rc = main([verb, "--workers", "0", "--env", "nade", "--episodes", "5",
               "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == "config error: workers must be at least 1\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["estimate", "--seed", "-1"],
    ["replicate", "--seed", "-5"],
    ["estimate", "--config", "seed_file"],
])
def test_negative_seed_exit_code(tmp_path, capsys, argv):
    path = write(tmp_path, "[campaign]\nseed = -1\n")
    out = str(tmp_path / "out")
    argv = [path if a == "seed_file" else a for a in argv]
    rc = main(argv + ["--env", "nade", "--episodes", "5", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == "config error: seed must be non-negative\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("source,message", [
    ("[scenario]\ndt = nan\n", "dt must be finite"),
    ("[scenario]\nvehicle_length = nan\n", "vehicle_length must be finite"),
    ("[scenario]\nd_accid = inf\n", "d_accid must be finite"),
    ("--rhw-threshold nan", "rhw_threshold must be finite"),
    ("[initial]\nr1_low = nan\n", "init.r1_low must be finite"),
    ("[mobil]\np_max = inf\n", "mobil.p_max must be finite"),
    ("[av_idm]\nv0 = inf\n", "av_idm.v0 must be finite"),
    ("[sm_idm]\ns0 = nan\n", "idm.s0 must be finite"),
    ("[sm_fvdm2]\nkappa = -inf\n", "fvdm2.kappa must be finite"),
    # FVDM divides the gap by b_f
    ("[sm_fvdm1]\nb_f = 0\n", "fvdm1: b_f must be positive"),
], ids=["dt", "vehicle_length", "d_accid", "rhw_threshold", "r1_low",
        "p_max", "av_v0", "sm_idm_s0", "fvdm2_kappa", "b_f"])
def test_non_finite_config_values_exit_code(tmp_path, capsys, source,
                                            message):
    # Each ran to exit 0 (or blamed the data) with NaN or certain outcomes
    # in every episode; the config names the field instead.
    out = tmp_path / "out"
    argv = ["estimate", "--env", "nde", "--episodes", "50", "--out", str(out)]
    if source.startswith("--"):
        argv += source.split()
    else:
        argv += ["--config", write(tmp_path, source)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("source,message", [
    ("[initial]\nv_bv = -1\n[bv_idm]\ndelta = 4.5\n",
     "initial speed init.v_bv must be non-negative, got -1.0"),
    ("[initial]\nr1_dot = -9\n",
     "initial speed init.v_bv + init.r1_dot must be non-negative, got -1.0"),
    ("[initial]\nr2_dot = 9\n",
     "initial speed init.v_bv - init.r2_dot must be non-negative, got -1.0"),
], ids=["bv", "leader", "follower"])
def test_negative_initial_speed_exit_code(tmp_path, capsys, source, message):
    # The BV's case with a real IDM exponent ended as a data error (exit 4)
    # after numpy warnings; the others simulated a vehicle driving backwards.
    out = tmp_path / "out"
    rc = main(["estimate", "--env", "nde", "--episodes", "300", "--config",
               write(tmp_path, source), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("p_max", ["2", "-0.5", "1.0000001"])
def test_lane_change_probability_cap_outside_unit_interval_exit_code(
        tmp_path, capsys, p_max):
    # p_max = 2 with a steep gain made lane-change "probabilities" of 2 and
    # a follow atom of mass -1, and every method reported mu = 0 (exit 0).
    out = tmp_path / "out"
    rc = main(["estimate", "--episodes", "2000", "--config",
               write(tmp_path, f"[mobil]\ngamma_p = 100\np_max = {p_max}\n"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: mobil.p_max must lie in [0, 1], got {float(p_max)}\n")
    assert not out.exists()


@pytest.mark.parametrize("p_max", [0.0, 1.0])
def test_lane_change_probability_cap_at_its_bounds_is_valid(tmp_path, p_max):
    # p_max = 0 switches lane changes off.
    cfg = load_config(write(tmp_path, f"[mobil]\np_max = {p_max}\n"))
    assert cfg.scenario.mobil.p_max == p_max


def test_inverted_initial_range_rejected():
    sc = ScenarioConfig()
    sc = dataclasses.replace(sc, init=dataclasses.replace(sc.init, r1_high=29.0))
    with pytest.raises(ConfigError, match="r1"):
        dataclasses.replace(CampaignConfig(), scenario=sc).validate()


EVERY_KEY = """
[campaign]
seed = 7
episodes_nde = 11
episodes_nade = 13
environment = nade
replications = 3

[estimator]
gamma = 0.2
rhw_threshold = 0.3
confirm_window = 5
oracle_bins = 8
oracle_budget = 999

[scenario]
dt = 0.2
max_steps = 50
d_accid = 0.5
vehicle_length = 4.5

[initial]
v_bv = 9.0
r1_low = 20.0
r1_high = 25.0
r1_dot = -4.0
r2 = 6.0
r2_dot = -3.0

[criticality]
epsilon = 0.2
surrogates = fvdm2, idm, fvdm1

[bv_idm]
v0 = 16.0
headway = 1.1
a_max = 2.1
b = 2.2
s0 = 2.3
delta = 3.5
hard_decel = 5.0

[av_idm]
v0 = 13.0
headway = 1.3
a_max = 1.4
b = 2.6
s0 = 2.7
delta = 3.0
hard_decel = 4.5

[mobil]
politeness = 0.01
delta_a_th = 0.2
b_safe = 5.0
gamma_p = 0.02
p_max = 0.2

[sm_idm]
v0 = 17.0
headway = 0.9
a_max = 1.9
b = 1.8
s0 = 1.7
delta = 2.0
hard_decel = 3.9

[sm_fvdm1]
kappa = 2.5
lam = 0.6
v_cap = 16.0
b_f = 11.0
c_f = 2.1
hard_decel = 3.5
hard_accel = 4.1

[sm_fvdm2]
kappa = 6.5
lam = 0.7
v_cap = 17.0
b_f = 12.0
c_f = 2.2
hard_decel = 4.7
hard_accel = 4.2
"""


def test_every_key_of_every_section_is_read(tmp_path):
    expected = CampaignConfig(
        seed=7, episodes_nde=11, episodes_nade=13, environment="nade",
        replications=3, gamma=0.2, rhw_threshold=0.3,
        confirm_window=5, oracle_bins=8, oracle_budget=999,
        scenario=ScenarioConfig(
            dt=0.2, max_steps=50, d_accid=0.5, vehicle_length=4.5,
            epsilon=0.2,
            init=InitialStateParams(v_bv=9.0, r1_low=20.0, r1_high=25.0,
                                    r1_dot=-4.0, r2=6.0, r2_dot=-3.0),
            bv_idm=IdmParams(v0=16.0, headway=1.1, a_max=2.1, b=2.2, s0=2.3,
                             delta=3.5, hard_decel=5.0),
            av_idm=IdmParams(v0=13.0, headway=1.3, a_max=1.4, b=2.6, s0=2.7,
                             delta=3.0, hard_decel=4.5),
            mobil=MobilParams(politeness=0.01, delta_a_th=0.2, b_safe=5.0,
                              gamma_p=0.02, p_max=0.2),
            surrogates=(
                SurrogateModel("fvdm2", "fvdm", fvdm=FvdmParams(
                    kappa=6.5, lam=0.7, v_cap=17.0, b_f=12.0, c_f=2.2,
                    hard_decel=4.7, hard_accel=4.2)),
                SurrogateModel("idm", "idm", idm=IdmParams(
                    v0=17.0, headway=0.9, a_max=1.9, b=1.8, s0=1.7,
                    delta=2.0, hard_decel=3.9)),
                SurrogateModel("fvdm1", "fvdm", fvdm=FvdmParams(
                    kappa=2.5, lam=0.6, v_cap=16.0, b_f=11.0, c_f=2.1,
                    hard_decel=3.5, hard_accel=4.1)),
            )))
    loaded = load_config(write(tmp_path, EVERY_KEY))
    assert loaded == expected
    assert all(isinstance(getattr(loaded, f.name), type(getattr(expected, f.name)))
               for f in dataclasses.fields(CampaignConfig))

    # The file above must keep touching every field, so a field added to a
    # block without a key shows up here.
    stock = CampaignConfig()
    stock_sm = {m.name: m for m in stock.scenario.surrogates}
    pairs = [(loaded, stock), (loaded.scenario, stock.scenario),
             (loaded.scenario.init, stock.scenario.init),
             (loaded.scenario.bv_idm, stock.scenario.bv_idm),
             (loaded.scenario.av_idm, stock.scenario.av_idm),
             (loaded.scenario.mobil, stock.scenario.mobil)]
    for sm in loaded.scenario.surrogates:
        block = "idm" if sm.kind == "idm" else "fvdm"
        pairs.append((getattr(sm, block), getattr(stock_sm[sm.name], block)))
    for got, default in pairs:
        for f in dataclasses.fields(got):
            assert getattr(got, f.name) != getattr(default, f.name), f.name
