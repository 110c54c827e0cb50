"""The command-line verbs and their exit codes, driven through ``main``,
and the process policy the program sets."""
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from overtake_eval import __version__, harness
from overtake_eval.cli import main
from overtake_eval.config import CampaignConfig
from overtake_eval.estimators import EmptyInput
from overtake_eval.models import NonPositiveGap, ZeroDensity
from overtake_eval.oracle import brute_force_mu

from conftest import STRESSED


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def test_oracle_writes_brute_force_value(tmp_path, capsys):
    rc, out, _ = run(capsys, "oracle", "--out", tmp_path)
    assert rc == 0
    cfg = CampaignConfig()
    mu = brute_force_mu(cfg.scenario, cfg.oracle_bins, cfg.oracle_budget)
    written = json.loads((tmp_path / "oracle.json").read_text())
    assert written["oracle_mu"] == mu
    assert written["bins"] == cfg.oracle_bins
    assert f"oracle_mu {mu!r}" in out


def test_oracle_budget_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[estimator]\noracle_budget = 10\n")
    rc, _, err = run(capsys, "oracle", "--config", cfg)
    assert rc == 3
    assert err.startswith("oracle budget exceeded")


def test_report_prints_methods_table(tmp_path, capsys):
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 150,
               "--out", tmp_path)[0] == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    rc, out, _ = run(capsys, "report", "--out", tmp_path)
    assert rc == 0
    lines = out.splitlines()
    header = lines.index(next(l for l in lines if l.startswith("method")))
    assert lines[header].split() == ["method", "n", "mu", "rhw", "tests"]
    rows = [l.split() for l in lines[header + 1:header + 3]]
    assert [r[0] for r in rows] == ["nade", "atscv"]
    assert [int(r[1]) for r in rows] == [150, 150]
    assert float(rows[0][2]) == pytest.approx(summary["methods"]["nade"]["mu"],
                                              rel=1e-5)


def test_a_run_prints_the_report_of_what_it_wrote(tmp_path, capsys):
    # estimate, estimate --records and replicate print what report prints
    # of the summary.json they wrote, then where they wrote it.  Each
    # summary echoes the config as it is, every field and nothing else.
    first = tmp_path / "first"
    fields = {f.name for f in dataclasses.fields(CampaignConfig)}
    for argv, heading in (
            (["estimate", "--episodes", 200, "--out", first],
             "campaign summary"),
            (["estimate", "--records", first, "--out", tmp_path / "again"],
             "campaign summary"),
            (["replicate", "--env", "nade", "--episodes", 100,
              "--replications", 3, "--out", tmp_path / "study"],
             "replication study")):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        rc, report, _ = run(capsys, "report", "--out", argv[-1])
        assert rc == 0
        assert out == report + f"outputs -> {argv[-1]}\n"
        assert report.startswith(f"{heading} (version {__version__})\n")
        summary = json.loads((argv[-1] / "summary.json").read_text())
        assert set(summary["config"]) == fields
    assert "replication aggregates:\n  median_atscv_tests:" in report


def test_estimate_from_records_reproduces_every_method(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(capsys, "estimate", "--episodes", 300, "--seed", 8,
               "--out", first)[0] == 0
    assert run(capsys, "estimate", "--records", first, "--out", again)[0] == 0
    first_summary = json.loads((first / "summary.json").read_text())
    again_summary = json.loads((again / "summary.json").read_text())
    # A campaign adds the oracle; re-estimation from records does not.
    scenario = CampaignConfig().scenario
    assert first_summary["oracle_mu"] == brute_force_mu(scenario)
    assert again_summary["oracle_mu"] is None
    original, reloaded = first_summary["methods"], again_summary["methods"]
    assert sorted(original) == sorted(reloaded) == ["atscv", "nade", "nde"]
    for name, m in original.items():
        assert reloaded[name]["mu"] == m["mu"]
        assert reloaded[name]["variance"] == m["variance"]
    # the per-record and per-prefix files come back byte for byte
    for name in ("convergence_nde.csv", "convergence_nade.csv",
                 "convergence_atscv.csv", "adjusted_points.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("flags", [
    ("--seed", 77), ("--episodes", 5), ("--episodes", 5, "--seed", 77)])
def test_estimate_from_records_refuses_seed_and_episodes(tmp_path, capsys,
                                                         flags):
    # Re-estimation reads its records; a seed or an episode budget would
    # only be echoed in the summary's config beside records they never made.
    d = tmp_path / "run"
    assert run(capsys, "estimate", "--env", "nde", "--episodes", 50,
               "--out", d)[0] == 0
    rc, out, err = run(capsys, "estimate", "--records", d, *flags,
                       "--out", tmp_path / "again")
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: --records")
    for flag in flags[::2]:
        assert flag in err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("ini, echoed", [
    (None, (None, 300, 300)),
    ("[campaign]\nseed = 77\nepisodes_nde = 5\nenvironment = nade\n",
     (None, 0, 300))], ids=["no-config", "config"])
def test_estimate_from_records_echoes_the_records_it_estimated(
        tmp_path, capsys, ini, echoed):
    # The echoed budgets count the records estimated per environment, and
    # the seed is null: the records do not hold their root seed, and a
    # config file's seed and budgets did not make them.
    d = tmp_path / "run"
    assert run(capsys, "estimate", "--episodes", 300, "--seed", 5,
               "--out", d)[0] == 0
    config = ()
    if ini:
        (tmp_path / "cfg.ini").write_text(ini)
        config = ("--config", tmp_path / "cfg.ini")
    assert run(capsys, "estimate", "--records", d, *config,
               "--out", tmp_path / "again")[0] == 0
    summary = json.loads((tmp_path / "again" / "summary.json").read_text())
    echo = summary["config"]
    assert (echo["seed"], echo["episodes_nde"], echo["episodes_nade"]) == echoed
    assert {m: v["n"] for m, v in summary["methods"].items()} == {
        m: n for m, n in (("nde", echoed[1]), ("nade", echoed[2]),
                          ("atscv", echoed[2])) if n}


def test_gamma_below_the_last_quantile_has_no_interval(tmp_path, capsys):
    # 1 - gamma/2 rounds to 1: the quantile is infinite, and so is every
    # half-width of a run with accidents.
    rc, _, _ = run(capsys, "estimate", "--env", "nade", "--episodes", 200,
                   "--gamma", 1e-17, "--out", tmp_path)
    assert rc == 0
    methods = json.loads((tmp_path / "summary.json").read_text())["methods"]
    assert sorted(methods) == ["atscv", "nade"]
    for m in methods.values():
        assert m["mu"] > 0
        assert m["rhw"] is None


@pytest.mark.parametrize("verb", ["estimate"])
def test_no_episodes_exit_code(tmp_path, capsys, verb):
    # An empty record block still writes both headers.
    rc, out, _ = run(capsys, verb, "--env", "nade", "--episodes", 0,
                     "--out", tmp_path)
    assert rc == 0
    assert (tmp_path / "records.csv").read_text() == \
        "id,seed,env,accident,l,w\n"
    assert (tmp_path / "critical_log.csv").read_text() == \
        "record_id,moment,p,q_alpha,q_1,q_2,q_3\n"


def test_single_episode_has_no_interval(tmp_path, capsys):
    # One record leaves no residual degree of freedom for either method.
    rc, out, _ = run(capsys, "estimate", "--env", "nade", "--episodes", 1,
                     "--out", tmp_path)
    assert rc == 0
    rows = {cells[0]: cells for cells in map(str.split, out.splitlines())
            if cells[:1] in (["nade"], ["atscv"])}
    assert rows["nade"][3] == rows["atscv"][3] == "-"
    summary = json.loads((tmp_path / "summary.json").read_text())
    for name in ("nade", "atscv"):
        assert summary["methods"][name]["rhw"] is None
        assert summary["methods"][name]["variance"] is None
        table = (tmp_path / f"convergence_{name}.csv").read_text()
        assert table.splitlines()[1].endswith(",inf")


# ---------------------------------------------------------------------------
# bad input data: exit 4 with one stderr line


def _records_dir(tmp_path, text):
    d = tmp_path / "records"
    d.mkdir()
    (d / "records.csv").write_text(text)
    return d


@pytest.mark.parametrize("text,message", [
    ("id,seed,env,accident,l,w\n0,5,nde,x,0,1.0\n", "line 2"),
    ("id,seed,env,accident,l,w\n0,5,nde,0,0,1.0\n1,6\n", "line 3"),
    ("id,seed\n", "header"),
    ("", "header"),
    # values the samplers never write
    ("id,seed,env,accident,l,w\n0,5,nde,0,0,1.0\n1,6,xyz,0,0,1.0\n",
     "line 3: env 'xyz'"),
    ("id,seed,env,accident,l,w\n0,5,nde,7,0,1.0\n", "line 2: accident 7"),
    ("id,seed,env,accident,l,w\n0,5,nade,1,0,nan\n", "line 2: weight nan"),
    ("id,seed,env,accident,l,w\n0,5,nade,1,0,-0.5\n", "line 2: weight -0.5"),
    ("id,seed,env,accident,l,w\n0,5,nde,1,0,2.0\n", "line 2: nde weight 2.0"),
    # an integer outside its 64-bit column
    ("id,seed,env,accident,l,w\n0,-5,nde,0,0,1.0\n", "line 2: out of range"),
    ("id,seed,env,accident,l,w\n0,5,nde,0,9223372036854775808,1.0\n",
     "line 2: out of range"),
    # a row with a field the header does not name
    ("id,seed,env,accident,l,w\n0,5,nde,0,0,1.0,9\n", "line 2: 7 fields"),
    # an id is an episode index, unique within its environment
    ("id,seed,env,accident,l,w\n0,5,nade,1,0,2.0\n1,5,nde,0,0,1.0\n"
     "0,6,nade,0,0,1.0\n", "line 4: nade id 0 repeats"),
])
def test_malformed_records_exit_code(tmp_path, capsys, text, message):
    d = _records_dir(tmp_path, text)
    rc, _, err = run(capsys, "estimate", "--records", d,
                     "--out", tmp_path / "out")
    assert rc == 4
    assert err.count("\n") == 1
    assert err.startswith("data error: ")
    assert str(d / "records.csv") in err and message in err


def test_records_holding_only_their_header_exit_code(tmp_path, capsys):
    d = _records_dir(tmp_path, "id,seed,env,accident,l,w\n")
    rc, out, err = run(capsys, "estimate", "--records", d,
                       "--out", tmp_path / "out")
    assert rc == 4
    assert out == ""
    assert err == f"data error: {d / 'records.csv'}: no records\n"


def test_records_without_the_selected_environment_exit_code(tmp_path,
                                                            capsys):
    d = tmp_path / "nade"
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 20,
               "--out", d)[0] == 0
    rc, out, err = run(capsys, "estimate", "--records", d, "--env", "nde",
                       "--out", tmp_path / "out")
    assert rc == 4
    assert out == ""
    assert err == f"data error: {d / 'records.csv'}: no nde records\n"
    assert not (tmp_path / "out").exists()


def test_malformed_critical_log_exit_code(tmp_path, capsys):
    d = _records_dir(tmp_path, "id,seed,env,accident,l,w\n0,5,nade,1,1,2.0\n")
    (d / "critical_log.csv").write_text(
        "record_id,moment,p,q_alpha,q_1,q_2,q_3\n0,0,0.1\n")
    rc, _, err = run(capsys, "estimate", "--records", d,
                     "--out", tmp_path / "out")
    assert rc == 4
    assert "critical_log.csv, line 2" in err


@pytest.mark.parametrize("rows,message", [
    ("0,0,0.1,0.0,0.1,0.2,0.3\n", "line 2: densities"),       # q_alpha 0
    ("0,0,0.1,0.2,nan,0.2,0.3\n", "line 2: densities"),
    ("0,0,-0.1,0.2,0.1,0.2,0.3\n", "line 2: densities"),
    ("0,0,0.1,0.2,0.1,0.2,0.3\n7,0,0.1,0.2,0.1,0.2,0.3\n",
     "line 3: record_id 7 is no NADE record"),
    ("0,0,0.1,0.2,0.1,0.2,0.3\n1,0,0.1,0.2,0.1,0.2,0.3\n",   # an NDE id
     "line 3: record_id 1 is no NADE record"),
])
def test_critical_log_values_the_sampler_never_writes_exit_code(
        tmp_path, capsys, rows, message):
    d = _records_dir(tmp_path, "id,seed,env,accident,l,w\n"
                               "0,5,nade,1,1,0.5\n1,6,nde,0,0,1.0\n")
    log = d / "critical_log.csv"
    log.write_text("record_id,moment,p,q_alpha,q_1,q_2,q_3\n" + rows)
    rc, out, err = run(capsys, "estimate", "--records", d,
                       "--out", tmp_path / "out")
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {log}, {message}")


@pytest.mark.parametrize("log,logged,message", [
    # columns by name, not by position
    ("record_id,moment,q_alpha,p,q_2,q_1\n0,0,0.2,0.1,0.2,0.3\n", 1,
     "line 1: unexpected header"),
    ("record_id,moment,p,q_alpha\n0,0,0.1,0.2\n", 1,
     "line 1: unexpected header"),
    ("record_id,moment,p,q_alpha,q_1,q_2,q_3\n0,0,0.1,0.2,0.1,0.2,0.3,9\n",
     1, "line 2: 8 fields, the header has 7"),
    # moments are numbered 0, 1, ... in the order the sampler logged them
    ("record_id,moment,p,q_alpha,q_1,q_2,q_3\n0,0,0.1,0.2,0.1,0.2,0.3\n"
     "0,0,0.1,0.2,0.1,0.2,0.3\n", 2,
     "line 3: moment 0 of record_id 0 should be 1"),
    ("record_id,moment,p,q_alpha,q_1,q_2,q_3\n0,1,0.1,0.2,0.1,0.2,0.3\n"
     "0,0,0.1,0.2,0.1,0.2,0.3\n", 2,
     "line 2: moment 1 of record_id 0 should be 0"),
], ids=["swapped", "no-q", "extra-field", "repeated-moment", "reordered"])
def test_critical_log_layout_the_writer_never_writes_exit_code(
        tmp_path, capsys, log, logged, message):
    d = _records_dir(tmp_path, "id,seed,env,accident,l,w\n"
                               f"0,5,nade,1,{logged},0.5\n1,6,nde,0,0,1.0\n")
    (d / "critical_log.csv").write_text(log)
    rc, out, err = run(capsys, "estimate", "--records", d,
                       "--out", tmp_path / "out")
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {d / 'critical_log.csv'}, {message}")


def test_estimate_from_records_keeps_only_the_selected_environment(
        tmp_path, capsys):
    both, nade = tmp_path / "both", tmp_path / "nade"
    assert run(capsys, "estimate", "--episodes", 200, "--seed", 5,
               "--out", both)[0] == 0
    rc, out, _ = run(capsys, "estimate", "--records", both, "--env", "nade",
                     "--out", nade)
    assert rc == 0
    assert not any(line.startswith("nde ") for line in out.splitlines())
    summary = json.loads((nade / "summary.json").read_text())
    assert summary["config"]["environment"] == "nade"
    assert sorted(summary["methods"]) == ["atscv", "nade"]
    records = (nade / "records.csv").read_text().splitlines()[1:]
    assert len(records) == 200
    assert {line.split(",")[2] for line in records} == {"nade"}
    assert (nade / "convergence_nde.csv").read_text() == "n,mu,rhw\n"
    for name in ("convergence_nade.csv", "convergence_atscv.csv",
                 "adjusted_points.csv", "critical_log.csv"):
        assert (nade / name).read_bytes() == (both / name).read_bytes(), name


def test_records_of_another_panel_exit_code(tmp_path, capsys):
    # Re-estimated under the default three-surrogate panel, a two-surrogate
    # run's records would leave a critical log whose rows are shorter than
    # its header, and a summary echoing a panel that did not log them.
    ini = tmp_path / "two.ini"
    ini.write_text("[criticality]\nsurrogates = idm, fvdm1\n")
    d = tmp_path / "two"
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 200,
               "--config", ini, "--out", d)[0] == 0
    rc, out, err = run(capsys, "estimate", "--records", d,
                       "--out", tmp_path / "three")
    assert rc == 4
    assert out == ""
    assert err == (f"data error: {d / 'critical_log.csv'}: 2 surrogate "
                   f"densities per moment, the configured panel has 3\n")
    assert not (tmp_path / "three").exists()
    again = tmp_path / "again"
    assert run(capsys, "estimate", "--records", d, "--config", ini,
               "--out", again)[0] == 0
    for name in ("records.csv", "critical_log.csv"):
        assert (again / name).read_bytes() == (d / name).read_bytes(), name


def test_truncated_summary_exit_code(tmp_path, capsys):
    assert run(capsys, "estimate", "--env", "nde", "--episodes", 50,
               "--out", tmp_path)[0] == 0
    path = tmp_path / "summary.json"
    path.write_text(path.read_text()[:40])
    rc, out, err = run(capsys, "report", "--out", tmp_path)
    assert rc == 4
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {path}: ")


def test_records_without_their_critical_log_exit_code(tmp_path, capsys):
    # Without the log, every NADE record would be re-estimated as if it had
    # logged no critical moments.
    d = tmp_path / "run"
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 200,
               "--out", d)[0] == 0
    lines = (d / "records.csv").read_text().splitlines()[1:]
    first = next(line.split(",") for line in lines if line.split(",")[4] != "0")
    (d / "critical_log.csv").unlink()
    rc, _, err = run(capsys, "estimate", "--records", d, "--env", "nade",
                     "--out", tmp_path / "again")
    assert rc == 4
    assert err == (f"data error: {d / 'records.csv'}: episode {first[0]} "
                   f"(nade) has l = {first[4]} but the critical log holds 0\n")


def test_record_moment_count_must_match_its_log(tmp_path, capsys):
    d = _records_dir(tmp_path, "id,seed,env,accident,l,w\n"
                               "0,5,nade,1,2,2.0\n")
    (d / "critical_log.csv").write_text(
        "record_id,moment,p,q_alpha,q_1,q_2,q_3\n0,0,0.1,0.2,0.1,0.2,0.3\n")
    rc, _, err = run(capsys, "estimate", "--records", d,
                     "--out", tmp_path / "out")
    assert rc == 4
    assert "episode 0 (nade) has l = 2 but the critical log holds 1" in err


def test_record_weight_must_be_its_logs_likelihood_ratio(tmp_path, capsys):
    # A NADE weight is p / q_alpha multiplied over the logged moments in log
    # order, so a ``w`` its log does not give, bit for bit, was tampered
    # with; re-estimating it would move every NADE and ATSCV figure.
    d = tmp_path / "run"
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 300,
               "--seed", 11, "--out", d)[0] == 0
    path = d / "records.csv"
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines[1:], start=1)
              if line.split(",")[4] != "0")
    fields = lines[at].split(",")
    w = float(fields[5])
    lines[at] = ",".join(fields[:5] + [repr(3.0 * w)])
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "estimate", "--records", d, "--env", "nade",
                       "--out", tmp_path / "again")
    assert rc == 4
    assert out == ""
    assert err == (f"data error: {path}: episode {fields[0]} (nade) has "
                   f"w = {3.0 * w!r} but its critical log gives {w!r}\n")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("text", ['[]', '"x"', '{"methods": []}',
                                  '{"methods": {"nade": 3}}',
                                  '{"acceleration": [1]}'])
def test_summary_of_the_wrong_shape_exit_code(tmp_path, capsys, text):
    (tmp_path / "summary.json").write_text(text)
    rc, out, err = run(capsys, "report", "--out", tmp_path)
    assert rc == 4
    assert out == ""
    assert err.startswith(f"data error: {tmp_path / 'summary.json'}: not a "
                          f"campaign summary")


def test_report_prints_missing_method_fields_as_dashes(tmp_path, capsys):
    (tmp_path / "summary.json").write_text('{"methods": {"nade": {"n": 7}}}')
    rc, out, _ = run(capsys, "report", "--out", tmp_path)
    assert rc == 0
    assert out.splitlines()[-1].split() == ["nade", "7", "-", "-", "-"]


@pytest.mark.parametrize("verb", ["oracle"])
def test_workers_is_refused_where_it_changes_nothing(tmp_path, capsys, verb):
    # Only replicate splits work among processes; estimate keeps the flag
    # and runs in one process.
    with pytest.raises(SystemExit) as exc:
        main([verb, "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_simulate_is_no_verb(tmp_path, capsys):
    # ``estimate`` writes the records and critical log of its campaign.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'simulate'" in capsys.readouterr().err


def test_seed_is_refused_by_the_oracle(tmp_path, capsys):
    # The brute-force value draws nothing, so a seed would change nothing.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("estimate", "--env", "nde", "--episodes", 20),
    ("estimate", "--env", "nade", "--episodes", 20),
    ("oracle",)], ids=["estimate-nde", "estimate-nade", "oracle"])
def test_leader_contact_exit_code(tmp_path, capsys, argv):
    # Without lane changes every episode and every oracle bin follows its
    # BV into the LV.  The masked walk is the one place a closed gap is
    # judged, whichever verb drives it.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mobil]\np_max = 0\n[initial]\nr1_low = 5\nr1_high = 5.5\n"
                   "r1_dot = -8\nr2 = 20\n")
    rc, out, err = run(capsys, *argv, "--config", cfg,
                       "--out", tmp_path / "out")
    assert rc == 4
    assert out == ""
    assert re.fullmatch(r"data error: IDM requires gap > 0, got -\d\.\d+\n",
                        err)


PINNED = {
    "records.csv":
        "8e7a7c8baa165d33c38c92d8875692b6d0e7545834bccb1c18b2bd942983528f",
    "critical_log.csv":
        "65b52ac791a59d2434c2a82ba0cc666d10f656e5d8b5aaa524d12e7d5a20b5f5",
    "convergence_nde.csv":
        "90a1b134662b412bb74c273101d4f6ae6865f6524802d7edc93440b7ec66cfc5",
    "convergence_nade.csv":
        "cdfe8969e91758dbfbc3a27fe60da0b7ff41cd1edca6058de63c559424a2c770",
}


def test_estimate_writes_the_pinned_bytes(tmp_path, capsys):
    # Changes that keep every output byte are checked against these values:
    # the records, the critical log and the two convergence tables of a
    # small campaign, and the oracle at the default scenario and with the
    # follower 20 m back.  The eigh-fitted outputs are left out: their last
    # bits may follow the LAPACK build.
    assert run(capsys, "estimate", "--episodes", 300, "--seed", 11,
               "--out", tmp_path)[0] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in PINNED}
    assert digests == PINNED
    scen = CampaignConfig().scenario
    far = dataclasses.replace(scen, init=dataclasses.replace(scen.init,
                                                             r2=20.0))
    assert repr(brute_force_mu(scen)) == "0.005603536878876694"
    assert repr(brute_force_mu(far)) == "0.050786964077358825"


def test_oracle_keeps_its_bits_where_they_are_hardest_to_keep():
    # Truncated rollout budgets, mu(r1) jumping inside bins, walks of up to
    # 270 m, and a tested vehicle that brakes softer.
    scen = CampaignConfig().scenario
    init = lambda **kw: dataclasses.replace(
        scen, init=dataclasses.replace(scen.init, **kw))
    assert repr(brute_force_mu(STRESSED)) == "0.09783518155878894"
    assert repr(brute_force_mu(init(r1_low=10.0, r1_high=60.0), 256)) == \
        "0.02347483038040209"
    assert repr(brute_force_mu(init(r2_dot=0.5, r1_low=30.0,
                                    r1_high=300.0))) == "0.0009069294245728193"
    soft = dataclasses.replace(scen, av_idm=dataclasses.replace(
        scen.av_idm, hard_decel=3.0))
    assert repr(brute_force_mu(soft)) == "0.015277451521965633"


def test_estimate_pins_the_bytes_of_blocks_that_first_miss_late(tmp_path,
                                                               capsys):
    # Three blocks of a wide initial range: the second and third start on
    # cells the first filled, and first miss the cache steps later, where
    # they fill only the walks of their live episodes.
    (tmp_path / "r1.ini").write_text("[initial]\nr1_low = 10\nr1_high = 60\n")
    assert run(capsys, "estimate", "--env", "nade", "--episodes", 20000,
               "--seed", 3, "--config", tmp_path / "r1.ini",
               "--out", tmp_path / "out")[0] == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in ("records.csv", "critical_log.csv")}
    assert digests == {
        "records.csv":
            "fb8aa75ad37b5cccb3d27b60a74f2f569fe690f6583e97b7508fb5e442f2bed2",
        "critical_log.csv":
            "90372079fe7192526f31126cea710799d8472bd7a118e5ab88c08b14d9e606bb",
    }


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
    (MemoryError(), "MemoryError")], ids=["numpy", "bare"])
def test_failed_allocation_exit_code(tmp_path, capsys, monkeypatch, error,
                                     message):
    # A budget too large for memory ends in one line, not a traceback.
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(harness, "_sample", fail)
    rc, out, err = run(capsys, "estimate", "--episodes", 10 ** 12,
                       "--out", tmp_path / "out")
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [ZeroDensity, EmptyInput, NonPositiveGap])
def test_library_data_errors_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("raised by the sampler")
    monkeypatch.setattr(harness, "sample_nade_batch", fail)
    rc, _, err = run(capsys, "estimate", "--env", "nade", "--episodes", 5,
                     "--out", tmp_path)
    assert rc == 4
    assert err == "data error: raised by the sampler\n"


# ---------------------------------------------------------------------------
# the BLAS thread policy
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))


def python(code, **env):
    """Standard output of ``code`` in a fresh interpreter whose environment
    is the package path and ``env``, nothing inherited."""
    return subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": SRC, **env}, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_package_import_leaves_numpy_out():
    # The program can set the BLAS policy only if numpy is not loaded yet.
    code = "import sys, overtake_eval; print('numpy' in sys.modules)"
    assert python(code) == "False"


def test_cli_import_freezes_the_heap_and_keeps_the_collector():
    # Exit then skips the import-time objects; collection stays on.
    code = ("import gc, overtake_eval.cli; "
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    assert python(code) == "True True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc")
def test_cli_runs_blas_on_one_thread():
    code = ("import os, overtake_eval.cli, numpy as np; "
            "np.linalg.eigh(np.ones((4000, 3, 3)) + np.eye(3)); "
            "print(len(os.listdir('/proc/self/task')))")
    assert python(code) == "1"


@pytest.mark.parametrize("caller, added", [
    ({}, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {}),
    ({"OMP_NUM_THREADS": "2"}, {}),
    ({"MKL_NUM_THREADS": "2"}, {}),
], ids=["unset", "openblas", "omp", "mkl"])
def test_cli_sets_one_blas_thread_unless_the_caller_chose(caller, added):
    code = ("import json, os; before = dict(os.environ); "
            "import overtake_eval.cli; "
            "print(json.dumps({k: v for k, v in os.environ.items() "
            "if before.get(k) != v}))")
    assert json.loads(python(code, **caller)) == added
