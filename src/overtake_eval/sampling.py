"""Episode generation for the naturalistic and accelerated environments.

Both samplers roll the two-phase scenario forward from a random initial gap.
The naturalistic sampler draws every background-vehicle action from the
behavior model.  The accelerated sampler consults the criticality evaluator
at each pre-cut-in step: at critical moments it draws from the mixture
importance distribution instead, logs the densities needed by the estimators,
and accumulates the likelihood-ratio weight; everywhere else it behaves
exactly like the naturalistic sampler.

Naturalistic episodes run on the lockstep array kernel (``kernel.walk``)
in blocks of ``NDE_BLOCK``.  Accelerated episodes walk one at a time up to
their cut-in, because the criticality profile is scalar; their cut-ins are
then resolved together by ``kernel.cutin_crashes``.  Both reproduce the
scalar per-episode samplers bit for bit.

Episodes are deterministic functions of ``(root seed, environment, index)``;
the per-episode seed is derived through a counter-based spawn so campaigns
are invariant to worker count and scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .criticality import CriticalityEvaluator
from .kernel import CutIns, cutin_crashes, initial_states, walk
from .models import ZeroDensity
from .scenario import (
    Action,
    Phase,
    ScenarioState,
    check_termination,
    step_raw,
)

ENV_NDE = "nde"
ENV_NADE = "nade"
_ENV_CODES = {ENV_NDE: 0, ENV_NADE: 1}

# Naturalistic episodes advanced together; bounds the arrays held at once.
NDE_BLOCK = 1024
# Per-step uniforms drawn from an episode's generator at a time.
_DRAW_BLOCK = 16


# Records are slotted: a campaign holds one per episode, and the per-instance
# dict would be most of their memory.
@dataclass(frozen=True, slots=True)
class CriticalMoment:
    """One logged critical moment: densities evaluated at the chosen action."""

    p: float
    q_alpha: float
    q: Tuple[float, ...]
    step: Optional[int] = None
    action: Optional[Action] = None


@dataclass(frozen=True, slots=True)
class TestRecord:
    """One complete test episode and everything the estimators need from it."""

    __test__ = False  # keep pytest from collecting this as a test class

    index: int
    seed: int
    env: str
    accident: int
    weight: float
    critical_log: Tuple[CriticalMoment, ...] = ()

    @property
    def control_steps(self) -> int:
        return len(self.critical_log)

    def recomputed_weight(self) -> float:
        w = 1.0
        for m in self.critical_log:
            w *= m.p / m.q_alpha
        return w


def episode_seed(root_seed: int, env: str, index: int) -> int:
    """Per-episode seed from a counter-based derivation; order-independent."""
    ss = np.random.SeedSequence((root_seed, _ENV_CODES[env], index))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_initial_state(rng: np.random.Generator, cfg) -> ScenarioState:
    """Initial reduced state; only the BV-LV range is random."""
    init = cfg.init
    return ScenarioState(
        v_bv=init.v_bv,
        r1=rng.uniform(init.r1_low, init.r1_high),
        r1_dot=init.r1_dot,
        r2=init.r2,
        r2_dot=init.r2_dot,
        phase=Phase.BEFORE_CUT_IN,
    )


def _advance(s: ScenarioState, a_bv: float, cfg) -> ScenarioState:
    raw = step_raw(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot, a_bv, 0.0, cfg.dt)
    return ScenarioState(*raw, phase=Phase.BEFORE_CUT_IN)


def _nade_walk(rng: np.random.Generator, cfg, evaluator: CriticalityEvaluator,
               max_control_steps: int):
    """Roll one accelerated episode up to its cut-in.

    At critical moments (some surrogate sees positive criticality) the action
    comes from the mixture importance distribution and the densities at the
    chosen action are logged; the likelihood-ratio weight accumulates one
    p/q_alpha factor per logged moment.  After ``max_control_steps`` logged
    moments the sampler reverts to the naturalistic law, which caps the log
    length without affecting unbiasedness.

    Returns ``(weight, log, cut_in)``; ``cut_in`` is the pre-cut-in state and
    the remaining step budget, or None when the episode ended without one.
    """
    s = sample_initial_state(rng, cfg)
    k = 0
    weight = 1.0
    log: List[CriticalMoment] = []
    while check_termination(s, k, cfg) is None:
        prof = evaluator.profile(s)
        if prof.is_critical and len(log) < max_control_steps:
            a = prof.importance().sample(rng)
            p_a, q_a, q_js = prof.components(a)
            if q_a <= 0.0:
                raise ZeroDensity(
                    "drawn action has zero mixture density; the importance "
                    "distribution lost absolute continuity")
            weight *= p_a / q_a
            log.append(CriticalMoment(p=p_a, q_alpha=q_a, q=q_js,
                                      step=k, action=a))
        else:
            a = prof.naturalistic().sample(rng)
        if a.is_lane_change():
            return weight, log, (s.raw(), cfg.max_steps - k)
        s = _advance(s, a.a, cfg)
        k += 1
    return weight, log, None


def sample_nde_batch(root_seed: int, cfg, n: int, start: int = 0) -> List[TestRecord]:
    """Naturalistic episodes ``start .. start+n-1``, advanced in lockstep.

    Every BV action is drawn from the behaviour model: episode i cuts in at
    step k iff its k-th uniform is below p_R, which is what sampling the
    two-atom law amounts to.  Each episode draws from its own generator
    (one uniform for the initial range, then one per step, taken in blocks
    of ``_DRAW_BLOCK``), so records do not depend on the block layout.
    """
    out: List[TestRecord] = []
    found = []
    init = cfg.init
    draws = min(cfg.max_steps, _DRAW_BLOCK)
    for lo in range(start, start + n, NDE_BLOCK):
        seeds = [episode_seed(root_seed, ENV_NDE, i)
                 for i in range(lo, min(lo + NDE_BLOCK, start + n))]
        r1 = np.empty(len(seeds))
        u = np.empty((len(seeds), draws))
        for j, seed in enumerate(seeds):
            g = np.random.default_rng(seed)
            r1[j] = g.uniform(init.r1_low, init.r1_high)
            u[j] = g.random(draws)

        def fires(k, rows, p_r):
            if k and k % draws == 0:
                # Rebuild the generator of each row still walking and skip
                # what it has drawn: one 64-bit output per double, so the
                # range and k step uniforms.  Holding a generator per
                # episode instead would cost 1.6 kB each.
                for i in rows.tolist():
                    g = np.random.default_rng(seeds[i])
                    g.bit_generator.advance(1 + k)
                    u[i] = g.random(draws)
            return u[rows, k % draws] < p_r

        cut = walk(initial_states(r1, init), cfg, fires, stay=False)
        found.append(cut._replace(rows=len(out) + cut.rows))
        out.extend(TestRecord(index=lo + j, seed=seed, env=ENV_NDE,
                              accident=0, weight=1.0)
                   for j, seed in enumerate(seeds))
    # One rollout for every cut-in of the batch; few of them crash.
    cut = CutIns.concat(found)
    for j in cut.rows[cutin_crashes(cut.state, cut.budget, cfg)].tolist():
        out[j] = replace(out[j], accident=1)
    return out


def sample_nade_batch(root_seed: int, cfg, n: int, start: int = 0,
                      evaluator: Optional[CriticalityEvaluator] = None,
                      max_control_steps: int = 10) -> List[TestRecord]:
    """Accelerated episodes ``start .. start+n-1``; all cut-ins are resolved
    together in one rollout after the pre-cut-in walks."""
    if evaluator is None:
        evaluator = CriticalityEvaluator(cfg)
    walks = []
    for i in range(start, start + n):
        seed = episode_seed(root_seed, ENV_NADE, i)
        rng = np.random.default_rng(seed)
        walks.append((i, seed) + _nade_walk(rng, cfg, evaluator,
                                            max_control_steps))
    cut_ins = [w[4] for w in walks if w[4]]
    states = np.array([c[0] for c in cut_ins], dtype=float).reshape(-1, 5).T
    crashed = iter(cutin_crashes(states, [c[1] for c in cut_ins], cfg).tolist())
    return [TestRecord(index=i, seed=seed, env=ENV_NADE,
                       accident=int(next(crashed)) if cut_in else 0,
                       weight=weight, critical_log=tuple(log))
            for i, seed, weight, log, cut_in in walks]
