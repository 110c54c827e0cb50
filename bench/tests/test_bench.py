"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from overtake_eval.cli import main as cli_main  # noqa: E402
from overtake_eval.config import CampaignConfig  # noqa: E402
from overtake_eval.oracle import brute_force_mu  # noqa: E402

TINY = {
    "nde-campaign": run.Workload("nde-campaign", "estimate", "nde", 3_000),
    "nade-campaign": run.Workload("nade-campaign", "estimate", "nade", 150),
    "nade-replicate": run.Workload("nade-replicate", "replicate", "nade", 100,
                                   replications=10),
}


@pytest.fixture(scope="module")
def oracle_mu():
    cfg = CampaignConfig()
    return brute_force_mu(cfg.scenario, cfg.oracle_bins, cfg.oracle_budget)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Untouched outputs of each tiny workload, written once in-process."""
    base = tmp_path_factory.mktemp("outputs")
    dirs = {}
    for name, w in TINY.items():
        out = str(base / name)
        assert cli_main(w.argv(run.root_seed(1), out)) == 0
        dirs[name] = out
    return dirs


def _copy(outputs, name, tmp_path):
    dst = str(tmp_path / name)
    shutil.copytree(outputs[name], dst)
    return dst


def _check(name, out_dir, oracle_mu, exit_code=0):
    counter = checks.CheckCounter()
    w = TINY[name]
    if w.verb == "replicate":
        checks.check_replicate(counter, exit_code, out_dir, w.replications,
                               oracle_mu)
    else:
        checks.check_campaign(counter, exit_code, out_dir, w.env, w.episodes,
                              oracle_mu)
    return counter


def _failed(counter):
    return {f.split()[0] for f in counter.failures}


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(name, trace, tmp_path):
    record = run.run_workload(TINY[name], seed=1, seconds=0, trace=trace,
                              work_dir=str(tmp_path))
    units = run.PER_LAYER if trace else run.END_TO_END
    result = run.result_line(record, units)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(units)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))
    lines = run.report(record, units)
    for metric, unit in units.items():
        assert any(line.startswith(f"metric {metric} ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert any(line.startswith("metric failed_ratio 0 ratio") for line in lines)
    assert set(record["provenance"]["blas"]["threads_env"]) == set(run.BLAS_VARS)
    assert record["digests"]["records.csv"]
    if trace:
        assert len(record["repetitions"]) == 2
        assert result["metrics"]["trace.covered_share"]["value"] > 0.5


def test_replicate_reports_atscv_coverage(tmp_path):
    record = run.run_workload(TINY["nade-replicate"], seed=1, seconds=0,
                              trace=0, work_dir=str(tmp_path))
    assert 0.0 <= record["quality"]["estimators.atscv_coverage"] <= 1.0
    assert 0.0 <= record["quality"]["estimators.nade_coverage"] <= 1.0


def test_trace_overhead_pairs_adjacent_repetitions():
    def rep(traced, wall_s, exit_code=0):
        return run.Rep(traced=traced, exit_code=exit_code, wall_s=wall_s,
                       cpu_s=wall_s, peak_rss_mb=1.0, setup_s=0.5,
                       import_s=0.4, layers={}, digests={}, log="")
    # The host halves its speed after the first pair; each pair still shows
    # a 0.1 s overhead.
    reps = [rep(False, 1.0), rep(True, 1.1), rep(False, 2.0), rep(True, 2.1),
            rep(False, 2.0), rep(True, 9.9, exit_code=1)]
    assert run.per_layer(reps)["trace.overhead_s"] == pytest.approx(0.1)


def test_tracer_without_the_evaluator_cache():
    """An evaluator that no longer keeps ``_entry_cache`` counts 0 misses."""
    tracer = child.Tracer.__new__(child.Tracer)
    tracer.spans, tracer.stack = [], []
    tracer.evaluators = {1: object()}
    assert tracer.totals()["criticality.profile"]["cache_misses"] == 0


def test_benchmark_json_matches_the_script():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    """With only the benchmark's files present there is nothing to run."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nde-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# each check fails on a tampered output


@pytest.mark.parametrize("name", sorted(TINY))
def test_untouched_outputs_pass(name, outputs, oracle_mu):
    counter = _check(name, outputs[name], oracle_mu)
    assert counter.attempted > 0 and not counter.failures


@pytest.mark.parametrize("name", sorted(TINY))
def test_nonzero_exit_fails_every_check(name, outputs, oracle_mu):
    counter = _check(name, outputs[name], oracle_mu, exit_code=1)
    assert len(counter.failures) == counter.attempted > 1


def test_edited_weight_fails_reestimate(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nade-campaign", tmp_path)
    path = os.path.join(out, "records.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * 2.0 + 1.0)
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _failed(_check("nade-campaign", out, oracle_mu)) == {"reestimate"}


def test_missing_file_fails_file_set(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nde-campaign", tmp_path)
    os.remove(os.path.join(out, "adjusted_points.csv"))
    assert _failed(_check("nde-campaign", out, oracle_mu)) == {"file_set"}


def test_dropped_row_fails_row_count(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nde-campaign", tmp_path)
    path = os.path.join(out, "records.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert "records_rows" in _failed(_check("nde-campaign", out, oracle_mu))


def _edit_summary(out, edit):
    path = os.path.join(out, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    edit(summary)
    with open(path, "w") as fh:
        json.dump(summary, fh)


def test_schema_violation_fails_schema(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nade-campaign", tmp_path)
    _edit_summary(out, lambda s: s["methods"]["nade"].update(variance=-1.0))
    failed = _failed(_check("nade-campaign", out, oracle_mu))
    assert "summary_schema" in failed


def test_estimate_far_from_oracle_fails(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nde-campaign", tmp_path)
    assert "oracle_z" not in _failed(_check("nde-campaign", out, oracle_mu))
    assert _failed(_check("nde-campaign", out, 3.0 * oracle_mu)) == {"oracle_z"}


def test_missing_replication_fails_rows(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nade-replicate", tmp_path)
    path = os.path.join(out, "replications.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert _failed(_check("nade-replicate", out, oracle_mu)) == {"replication_rows"}


def test_narrow_intervals_fail_coverage(outputs, oracle_mu, tmp_path):
    out = _copy(outputs, "nade-replicate", tmp_path)

    def shrink(summary):
        for row in summary["replications"]:
            if row["nade_rhw"] is not None:
                row["nade_rhw"] *= 1e-6
    _edit_summary(out, shrink)
    assert _failed(_check("nade-replicate", out, oracle_mu)) == {"nade_coverage"}


def test_changed_bytes_change_digest(outputs, tmp_path):
    out = _copy(outputs, "nade-campaign", tmp_path)
    before = checks.digests(out)
    with open(os.path.join(out, "critical_log.csv"), "a") as fh:
        fh.write("\n")
    after = checks.digests(out)
    assert set(before) == set(checks.DIGEST_FILES) - {"replications.csv"}
    assert {k for k in before if before[k] != after[k]} == {"critical_log.csv"}


def test_coverage_band_holds_the_nominal_rate():
    lo, hi = checks.coverage_band(40, 0.9)
    assert lo < 0.9 <= hi
    assert checks.coverage_band(400, 0.9)[0] > lo
