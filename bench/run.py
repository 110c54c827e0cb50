"""Benchmark of ``overtake-eval``: one workload, one seed, a fixed time.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each repetition runs the workload's command in a fresh interpreter through
``overtake_eval.cli.main`` (see ``bench/child.py``) with one worker, checks
the files it wrote (``bench/checks.py``) and deletes them.  Repetitions go on
until ``--seconds`` have passed; every metric is the median over them.

``--trace 0`` prints the end-to-end metrics of untraced repetitions:

* ``wall_s``       spawn of the interpreter until it has exited
* ``cpu_s``        user + system CPU of that process, all its threads
* ``setup_s``      spawn until the first sampling call: interpreter start,
                   ``import overtake_eval`` and the config build
* ``peak_rss_mb``  peak resident memory of that process

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus ``trace.overhead_s``, the median
wall-time difference of a traced repetition and the untraced one just before
it.  A traced repetition must write the same bytes as an untraced one.

Every repetition's checks are counted; ``failed_ratio`` is failed checks
over attempted ones.  Quality figures (tests to threshold, z-scores against
the oracle, interval coverage), run provenance and the sha256 of the
deterministic outputs are printed above the result and saved under
``.bench_runs/``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "bench", "child.py")
RUNS = os.path.join(ROOT, ".bench_runs")

# One repetition that runs longer than this is killed and fails its checks.
REP_TIMEOUT_S = 120.0

# Repetitions inherit the caller's environment, BLAS threading included, so
# ``cpu_s`` counts BLAS helper threads as a user's run would.  The thread
# settings are recorded with every result; compare only runs made under the
# same ones.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    env: str
    episodes: int
    replications: int = 0

    def argv(self, root_seed, out_dir):
        args = [self.verb, "--env", self.env, "--episodes", str(self.episodes),
                "--workers", "1", "--seed", str(root_seed), "--out", out_dir]
        if self.verb == "replicate":
            args += ["--replications", str(self.replications)]
        return args


# Sizes give each repetition 3 to 5 s on a 2-core x86 machine, so a run of
# the configured length takes the median of six to twelve repetitions.
WORKLOADS = {w.name: w for w in (
    # Scalar NDE kernel and large record emission; bypasses criticality and
    # the ATSCV regression.
    Workload("nde-campaign", "estimate", "nde", 10_000),
    # ATSCV convergence series and cold criticality-cache misses.
    Workload("nade-campaign", "estimate", "nade", 1_500),
    # Many small fits and the lazy stopping rule over one warm evaluator.
    Workload("nade-replicate", "replicate", "nade", 300, replications=20),
)}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "sampling.nde_s": "s",
    "sampling.nde_episodes_per_s": "1/s",
    "sampling.nde_accident_ratio": "ratio",
    "sampling.nade_s": "s",
    "sampling.nade_episodes_per_s": "1/s",
    "sampling.nade_moments_per_episode": "count",
    "sampling.nade_ess_ratio": "ratio",
    "criticality.profile_calls": "count",
    "criticality.profile_s": "s",
    "criticality.cache_misses": "count",
    "estimators.estimate_s": "s",
    "estimators.stopping_s": "s",
    "estimators.convergence_atscv_s": "s",
    "estimators.convergence_pooled_s": "s",
    "oracle.s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}


def root_seed(seed):
    """Campaign root seed for a workload seed.  Replications use root+1 ...
    root+R, so spacing roots 1000 apart keeps two seeds' replications apart."""
    return 1000 * seed


# ---------------------------------------------------------------------------
# one repetition


@dataclass
class Rep:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    import_s: float
    layers: dict
    digests: dict
    log: str  # end of the command's output when it failed


def _wait(proc, timeout):
    """Reap ``proc`` with its resource usage; kill it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _tail(path, size=2000):
    with open(path) as fh:
        return fh.read()[-size:]


def run_rep(workload, seed, out_dir, traced, counter, oracle_mu):
    from checks import check_campaign, check_replicate, digests

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    timing_path = out_dir + ".timing.json"
    log_path = out_dir + ".log"
    if os.path.exists(timing_path):
        os.remove(timing_path)
    cmd = [sys.executable, CHILD, timing_path, "traced" if traced else "plain"]
    cmd += workload.argv(root_seed(seed), out_dir)
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        usage = _wait(proc, REP_TIMEOUT_S)
        t_exit = time.monotonic()
    timing = {}
    if os.path.exists(timing_path):
        with open(timing_path) as fh:
            timing = json.load(fh)
    exit_code = proc.returncode
    if exit_code == 0 and timing.get("package") != os.path.join(SRC, "overtake_eval"):
        exit_code = -1  # the command did not run the code under test
    failures_before = len(counter.failures)
    if workload.verb == "replicate":
        check_replicate(counter, exit_code, out_dir, workload.replications,
                        oracle_mu)
    else:
        check_campaign(counter, exit_code, out_dir, workload.env,
                       workload.episodes, oracle_mu)
    rep = Rep(
        traced=traced,
        exit_code=exit_code,
        wall_s=t_exit - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=timing["t_first_sampling"] - t_spawn if timing else float("nan"),
        import_s=timing["t_ready"] - t_spawn if timing else float("nan"),
        layers=timing.get("layers") or {},
        digests=digests(out_dir) if exit_code == 0 else {},
        log=_tail(log_path) if exit_code != 0 else "",
    )
    passed = len(counter.failures) == failures_before
    quality = quality_figures(workload, out_dir, oracle_mu) if passed else {}
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep, quality


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition.  Times are inclusive of
    nested layers except ``harness.emit_s``, which is the self time of
    writing files (the convergence series it calls is reported apart).
    A layer the workload never reaches reads 0."""
    L = rep.layers

    def get(span, key):
        return L.get(span, {}).get(key, 0)

    def per(a, b):
        return a / b if b else 0.0

    nde_s, nade_s = get("sampling.nde", "total_s"), get("sampling.nade", "total_s")
    nde_n, nade_n = get("sampling.nde", "episodes"), get("sampling.nade", "episodes")
    sum_w, sum_w2 = get("sampling.nade", "sum_w"), get("sampling.nade", "sum_w2")
    covered = rep.import_s + sum(v["self_s"] for v in L.values())
    return {
        "setup.import_s": rep.import_s,
        "sampling.nde_s": nde_s,
        "sampling.nde_episodes_per_s": per(nde_n, nde_s),
        "sampling.nde_accident_ratio": per(get("sampling.nde", "accidents"), nde_n),
        "sampling.nade_s": nade_s,
        "sampling.nade_episodes_per_s": per(nade_n, nade_s),
        "sampling.nade_moments_per_episode": per(get("sampling.nade", "moments"), nade_n),
        "sampling.nade_ess_ratio": per(per(sum_w * sum_w, sum_w2), nade_n),
        "criticality.profile_calls": get("criticality.profile", "calls"),
        "criticality.profile_s": get("criticality.profile", "total_s"),
        "criticality.cache_misses": get("criticality.profile", "cache_misses"),
        "estimators.estimate_s": get("estimators.estimate", "total_s"),
        "estimators.stopping_s": get("estimators.stopping", "total_s"),
        "estimators.convergence_atscv_s": get("estimators.convergence.atscv", "total_s"),
        "estimators.convergence_pooled_s": get("estimators.convergence.pooled", "total_s"),
        "oracle.s": get("oracle", "total_s"),
        "harness.emit_s": get("harness.emit", "self_s"),
        "harness.emit_bytes": get("harness.emit", "bytes"),
        "trace.covered_share": covered / rep.wall_s,
    }


def quality_figures(workload, out_dir, oracle_mu):
    """Reported, never gated: tests to threshold, z against the oracle
    (campaigns) and 90% interval coverage (replications)."""
    from checks import coverage, load_summary, z_scores

    summary = load_summary(out_dir)
    out = {}
    if workload.verb == "replicate":
        rows = summary["replications"]
        for m in ("nade", "atscv"):
            tests = [r[f"{m}_tests"] for r in rows if r[f"{m}_tests"] is not None]
            out[f"estimators.{m}_tests"] = statistics.median(tests) if tests else None
            out[f"estimators.{m}_coverage"] = coverage(rows, m, oracle_mu)
    else:
        z = z_scores(summary, oracle_mu)
        for m, res in summary["methods"].items():
            out[f"estimators.{m}_tests"] = res["tests_to_threshold"]
            out[f"estimators.{m}_z"] = z.get(m)
    return out


def end_to_end(reps):
    return {name: statistics.median(getattr(r, name) for r in reps)
            for name in END_TO_END}


def per_layer(reps):
    """Medians over the traced repetitions.  ``trace.overhead_s`` is the
    median over adjacent (untraced, traced) pairs of their wall-time
    difference, so a change of host speed between pairs cancels."""
    rows = [layer_metrics(r) for r in reps if r.traced and r.exit_code == 0]
    if not rows:
        return {}
    out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    diffs = [t.wall_s - p.wall_s for p, t in zip(reps[::2], reps[1::2])
             if p.exit_code == 0 and t.exit_code == 0]
    if not diffs:
        return {}
    out["trace.overhead_s"] = statistics.median(diffs)
    return out


# ---------------------------------------------------------------------------
# provenance


def _blas():
    """BLAS library and the thread settings repetitions run under; an unset
    variable leaves the library's default, one thread per core."""
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"),
            "threads_env": {var: os.environ.get(var) for var in BLAS_VARS}}


def _source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        "root_seed": root_seed(seed),
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(workload, seed, seconds, trace, work_dir=RUNS):
    """Repeat the workload until ``seconds`` have passed; return the full
    record of the run."""
    from checks import CheckCounter

    from overtake_eval.config import CampaignConfig
    from overtake_eval.oracle import brute_force_mu

    cfg = CampaignConfig()
    oracle_mu = brute_force_mu(cfg.scenario, cfg.oracle_bins, cfg.oracle_budget)
    counter = CheckCounter()
    reps, quality = [], {}
    t0 = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        out_dir = os.path.join(work_dir, "work", f"{workload.name}-{len(reps)}")
        rep, q = run_rep(workload, seed, out_dir, traced, counter, oracle_mu)
        if reps:
            counter.run("same_bytes", lambda: rep.digests == reps[0].digests)
        reps.append(rep)
        quality = quality or q
        # Stop before a repetition that would end past the time limit.
        typical = statistics.median(r.wall_s for r in reps)
        done = time.monotonic() - t0 + typical > seconds
        if done and (not trace or len(reps) >= 2):
            break
    if trace:
        metrics = per_layer(reps)
    else:
        plain = [r for r in reps if r.exit_code == 0]
        metrics = end_to_end(plain) if plain else {}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(workload, seed),
        "oracle_mu": oracle_mu,
        "attempted": counter.attempted,
        "failed": len(counter.failures),
        "failures": counter.failures,
        "failed_ratio": len(counter.failures) / counter.attempted,
        "quality": quality,
        "digests": reps[0].digests,
        "metrics": metrics,
        "repetitions": [dataclasses.asdict(r) for r in reps],
    }


def result_line(record, units):
    metrics = {}
    for name, value in record["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _threads(threads_env):
    return ",".join(f"{k}={v}" for k, v in threads_env.items() if v) or "default"


def report(record, units):
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']} repetitions {len(record['repetitions'])}"]
    prov = record["provenance"]
    lines.append(f"provenance nproc={prov['nproc']} python={prov['python']} "
                 f"numpy={prov['numpy']} scipy={prov['scipy']} "
                 f"blas={prov['blas']['name']}-{prov['blas']['version']} "
                 f"blas_threads={_threads(prov['blas']['threads_env'])} "
                 f"commit={prov['git_commit']} source={prov['source_sha256'][:16]}")
    for name, value in record["metrics"].items():
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    lines.append(f"metric failed_ratio {record['failed_ratio']:.6g} ratio "
                 f"({record['failed']}/{record['attempted']} checks failed)")
    for failure in record["failures"]:
        lines.append(f"failed {failure}")
    for name, value in sorted(record["quality"].items()):
        unit = "tests" if name.endswith("_tests") else "ratio" if \
            name.endswith("_coverage") else "sd"
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"quality {name} {shown} {unit}")
    for name, digest in sorted(record["digests"].items()):
        lines.append(f"sha256 {name} {digest}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(SRC, "overtake_eval")):
        print(f"no package under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace)
    units = PER_LAYER if args.trace else END_TO_END
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for line in report(record, units):
        print(line)
    print(json.dumps(result_line(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
