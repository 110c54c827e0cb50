"""Rare-event testing workbench for two-lane overtaking scenarios.

Estimates an automated vehicle's accident rate in a three-vehicle cut-in
scenario three ways: plain naturalistic Monte Carlo, criticality-driven
importance sampling, and a regression-adjusted variant that shrinks the
variance with sparse control variates built from the logged importance
densities.  A brute-force enumeration oracle provides the reference value
the estimators are checked against.  Both samplers, the criticality
evaluator and the oracle run on one lockstep array kernel (``kernel``),
and the samplers seed and draw whole blocks of episodes at once
(``stream``), bit for bit as numpy's ``default_rng`` would.  The
accelerated sampler fills the criticality cache once per block, from its
episodes' no-cut-in walks, before it walks them.  A campaign samples in
one process.  A sampler call takes one or several root seeds, so a
replication study walks the episodes of every replication that fits one
block (``sampling.BLOCK``, 8192 episodes) in one lockstep batch, and a
worker pool splits its replications into chunks.
"""

__version__ = "0.1.0"

from .models import (
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    SurrogateModel,
    ZeroDensity,
    default_surrogates,
)
from .criticality import CriticalityEvaluator, CriticalityProfile
from .config import (
    CampaignConfig,
    ConfigError,
    InitialStateParams,
    ScenarioConfig,
    load_config,
)
from .sampling import (
    CriticalMoment,
    TestRecord,
    episode_seeds,
    sample_nade_batch,
    sample_nde_batch,
)
from .estimators import (
    EmptyInput,
    Estimate,
    PooledFit,
    fit,
    tests_to_threshold,
)
from .oracle import BudgetExceeded, brute_force_mu
from .harness import (
    CampaignResult,
    MethodResult,
    SUMMARY_SCHEMA,
    build_summary,
    emit_outputs,
    estimate_from_records,
    load_campaign_records,
    run_campaign,
    run_replications,
    sample_env,
)
