"""Command-line front end.

Verbs:

* ``simulate``   run one environment's episodes, write records + log
* ``estimate``   full campaign (or re-estimate from --records) + all outputs
* ``oracle``     brute-force reference accident rate
* ``replicate``  seeded replication study
* ``report``     pretty-print a summary.json; ``estimate`` and ``replicate``
                 print ``report`` of the one they wrote, then its directory

``estimate --records DIR`` re-estimates the records of ``DIR`` that
``--env`` (or the configured environment) selects; it refuses ``--seed``
and ``--episodes``, which would change nothing but the config echo.  Its
summary echoes the records it estimated as the episode budgets, and a
``null`` seed, since the root seed is not in the records.

``--workers`` splits ``replicate``'s replications among processes, at most
one per usable CPU; ``estimate`` accepts it, inert, for the benchmark.
``oracle`` takes no ``--seed``: the brute-force value draws nothing.

Exit codes: 0 success, 1 a file cannot be read or written or memory cannot
be allocated, 2 configuration error (among them a float value that is not
finite, from a config file or a flag), 3 oracle budget exceeded, 4 bad
input data (a malformed records, critical-log or summary file: a header
other than the writer's, a row whose field count differs from its header's,
a value the samplers never write, among them an integer outside its 64-bit
column, an ``id`` repeated within one environment, a log row whose
``moment`` is not the next of its record, a record whose ``l`` or ``w`` its
critical log does not give; a ``--records`` directory with no record of the
selected environment, or whose NADE records log another number of surrogate
densities per moment than the configured panel has; or records the
estimators or samplers cannot use: a ``ValueError`` such as
``EmptyInput`` or ``NonPositiveGap``, or ``ZeroDensity``).

The program runs BLAS on one thread: importing this module sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless the caller has set
one of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``,
whose value then stands.  Its largest BLAS call is a batched ``eigh`` of
J x J blocks (J surrogates), too small for helper threads, which would
only spin.  ``replicate --workers`` processes inherit the setting.  To use
more threads, set one of those variables, e.g. ``OPENBLAS_NUM_THREADS=2
overtake-eval ...``; the outputs are the same bytes either way.  Importing
this module also freezes the import-time heap (``gc.freeze``) to speed exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from typing import Optional

# Before any import that loads numpy.
if not any(var in os.environ for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .config import CampaignConfig, ConfigError, load_config
from .estimators import EmptyInput
from .models import ZeroDensity
from .harness import (
    CampaignResult,
    emit_outputs,
    emit_records,
    estimate_from_records,
    load_campaign_records,
    run_campaign,
    run_replications,
    sample_env,
)
from .oracle import BudgetExceeded, brute_force_mu

# Collections, at exit too, skip the ~22k objects the imports made.
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_DATA = 4


# (argument, CampaignConfig field) pairs a verb's flags override.
_OVERRIDES = (("seed", "seed"), ("gamma", "gamma"),
              ("rhw_threshold", "rhw_threshold"),
              ("replications", "replications"), ("env", "environment"))


def _load_base_config(args) -> CampaignConfig:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    overrides = {name: getattr(args, arg) for arg, name in _OVERRIDES
                 if getattr(args, arg, None) is not None}
    if getattr(args, "episodes", None) is not None:
        env = overrides.get("environment", cfg.environment)
        for budget in ("nde", "nade"):
            if env in (budget, "both"):
                overrides[f"episodes_{budget}"] = args.episodes
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    if getattr(args, "workers", 1) < 1:
        raise ConfigError("workers must be at least 1")
    return cfg


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _cmd_simulate(args) -> int:
    cfg = _load_base_config(args)
    env = cfg.environment
    records = sample_env(cfg, env)
    emit_records(args.out, [records], len(cfg.scenario.surrogates))
    print(f"{env}: {len(records)} episodes, {records.accident.sum()} accidents "
          f"-> {args.out}/records.csv")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.records:
        given = [flag for flag in ("seed", "episodes")
                 if getattr(args, flag) is not None]
        if given:
            raise ConfigError(
                f"--records re-estimates the records it reads; "
                f"{' and '.join('--' + f for f in given)} would change "
                f"nothing but the summary's config echo")
    cfg = _load_base_config(args)
    if args.records:
        result = estimate_from_records(cfg, load_campaign_records(args.records))
        if not result.records:
            raise EmptyInput(f"{os.path.join(args.records, 'records.csv')}: "
                             f"no {cfg.environment} records")
        nade, panel = result.records.get("nade"), len(cfg.scenario.surrogates)
        if nade is not None and nade.q.shape[1] != panel:
            log = os.path.join(args.records, "critical_log.csv")
            raise ValueError(f"{log}: {nade.q.shape[1]} surrogate densities "
                             f"per moment, the configured panel has {panel}")
        result.config = dataclasses.replace(cfg, seed=None, **{
            f"episodes_{env}": len(result.records.get(env, ()))
            for env in ("nde", "nade")})
    else:
        result = run_campaign(cfg)
    emit_outputs(result, args.out)
    _cmd_report(args)
    print(f"outputs -> {args.out}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _load_base_config(args)
    mu = brute_force_mu(cfg.scenario, cfg.oracle_bins, cfg.oracle_budget)
    print(f"oracle_mu {mu!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "oracle.json")
        with open(path, "w") as fh:
            json.dump({"version": __version__, "oracle_mu": mu,
                       "bins": cfg.oracle_bins, "budget": cfg.oracle_budget},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"outputs -> {path}")
    return EXIT_OK


def _cmd_replicate(args) -> int:
    cfg = _load_base_config(args)
    rows = run_replications(cfg, args.workers)
    emit_outputs(CampaignResult(config=cfg, records={}, methods={},
                                replication_rows=rows), args.out)
    _cmd_report(args)
    print(f"outputs -> {args.out}")
    return EXIT_OK


def _is_summary(summary) -> bool:
    """The shape ``report`` reads: an object whose ``methods``,
    ``acceleration`` and ``aggregates`` are objects where present, and whose
    methods are objects too."""
    if not isinstance(summary, dict):
        return False
    methods, *rest = [summary.get(key)
                      for key in ("methods", "acceleration", "aggregates")]
    methods = {} if methods is None else methods
    return (isinstance(methods, dict)
            and all(isinstance(m, dict) for m in methods.values())
            and all(p is None or isinstance(p, dict) for p in rest))


def _cmd_report(args) -> int:
    path = os.path.join(args.out, "summary.json")
    with open(path) as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not _is_summary(summary):
        raise ValueError(f"{path}: not a campaign summary: expected an object "
                         f"whose methods, acceleration and aggregates are "
                         f"objects")
    agg = summary.get("aggregates")
    print("replication study" if agg else "campaign summary",
          f"(version {summary.get('version', '?')})")
    if summary.get("oracle_mu") is not None:
        print(f"oracle_mu: {_fmt(summary['oracle_mu'])}")
    methods = summary.get("methods") or {}
    if methods:
        print(f"{'method':<8}{'n':>10}{'mu':>14}{'rhw':>12}{'tests':>10}")
    for name in [n for n in ("nde", "nade", "atscv") if n in methods]:
        m = methods[name]
        print(f"{name:<8}{_fmt(m.get('n')):>10}{_fmt(m.get('mu')):>14}"
              f"{_fmt(m.get('rhw')):>12}{_fmt(m.get('tests_to_threshold')):>10}")
    acc = summary.get("acceleration", {})
    if acc:
        print(f"acceleration nde/nade {_fmt(acc.get('nde_over_nade'))}, "
              f"nade/atscv {_fmt(acc.get('nade_over_atscv'))}")
    if agg:
        print("replication aggregates:")
        for key, value in sorted(agg.items()):
            print(f"  {key}: {_fmt(value)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overtake-eval",
        description="Rare-event evaluation of an automated vehicle in a "
                    "two-lane overtaking scenario.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out_default="out", seed=True):
        p.add_argument("--config", help="INI configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--out", default=out_default, help="output directory")

    def campaign(p):
        p.add_argument("--episodes", type=int, help="episode budget override")
        p.add_argument("--env", choices=["nde", "nade"],
                       help="restrict to one environment")
        p.add_argument("--gamma", type=float, help="confidence complement")
        p.add_argument("--rhw-threshold", dest="rhw_threshold", type=float,
                       help="stopping threshold for the relative half-width")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes that split replicate's "
                            "replications")

    p = sub.add_parser("simulate", help="run one environment's episodes")
    common(p)
    p.add_argument("--episodes", type=int, help="episode budget override")
    p.add_argument("--env", choices=["nde", "nade"], default="nde")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate",
                       help="run a campaign (or re-estimate --records) "
                            "and write all outputs")
    common(p)
    campaign(p)
    p.add_argument("--records", help="directory with records.csv to re-estimate")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="brute-force reference accident rate")
    common(p, out_default=None, seed=False)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("replicate", help="seeded replication study")
    common(p)
    campaign(p)
    p.add_argument("--replications", type=int, help="replication count")
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("report", help="pretty-print a summary.json")
    p.add_argument("--out", default="out", help="directory with summary.json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDensity) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
