"""Criticality of pre-cut-in moments, and importance distributions built on it.

For a pre-cut-in state the background vehicle has exactly two options: cut in
now, or keep following its leader.  A panel of surrogate follower models is
used to score how dangerous each option is:

* the *challenge* of cutting in now is 1 or 0 depending on whether a
  deterministic rollout with the surrogate driving the follower ends in
  contact;
* the challenge of staying put is the probability that a cut-in at some later
  moment of the (deterministic) no-cut-in continuation ends in contact,
  accumulated over the lane-change hazard at each of those moments.

Combining the challenges with the naturalistic action probabilities gives a
per-surrogate *criticality* (the probability, one step ahead and beyond, of a
surrogate-predicted accident) and an exponentially tilted *importance
distribution* over the two actions.  The mixture of the per-surrogate
importance distributions is what the accelerated sampler draws from.

Challenge evaluation snaps the query state to a 0.1 m / 0.1 m/s grid and
evaluates the snapped representative, so that repeated queries hit a cache
whose values depend only on the grid cell, never on visit order.  The
naturalistic probabilities entering criticalities and importance weights are
always evaluated at the exact state.

This module stays scalar: the panel includes FVDM surrogates, and
``np.tanh`` does not match ``math.tanh`` bit for bit, so the lockstep
kernel cannot reproduce these rollouts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .models import (
    ActionDistribution,
    WrongPhase,
    bv_car_following_accel,
    idm_accel,
    mobil_right_lc_prob,
)
from .scenario import LANE_CHANGE, Action, Phase, ScenarioState, cutin_outcome, step_raw

__all__ = ["CriticalityProfile", "CriticalityEvaluator"]


@dataclass(frozen=True)
class CriticalityProfile:
    """Everything the accelerated sampler needs to know about one moment.

    Challenge and criticality entries are ordered like the surrogate panel in
    the configuration.  ``p_lane_change`` and ``follow_action`` are exact for
    the queried state; the challenge values come from the grid representative.
    """

    state: ScenarioState
    follow_action: Action
    p_lane_change: float
    lane_change_challenge: Tuple[float, ...]
    follow_challenge: Tuple[float, ...]
    criticalities: Tuple[float, ...]
    q_lane_change: Tuple[float, ...]
    q_follow: Tuple[float, ...]
    q_alpha_lane_change: float
    q_alpha_follow: float

    @property
    def is_critical(self) -> bool:
        return any(c > 0.0 for c in self.criticalities)

    def naturalistic(self) -> ActionDistribution:
        return ActionDistribution.from_pairs([
            (LANE_CHANGE, self.p_lane_change),
            (self.follow_action, 1.0 - self.p_lane_change),
        ])

    def importance(self) -> ActionDistribution:
        return ActionDistribution.from_pairs([
            (LANE_CHANGE, self.q_alpha_lane_change),
            (self.follow_action, self.q_alpha_follow),
        ])

    def surrogate_importance(self, j: int) -> ActionDistribution:
        return ActionDistribution.from_pairs([
            (LANE_CHANGE, self.q_lane_change[j]),
            (self.follow_action, self.q_follow[j]),
        ])

    def components(self, action: Action) -> Tuple[float, float, Tuple[float, ...]]:
        """Return ``(p, q_alpha, per-surrogate q)`` evaluated at ``action``."""
        if action.is_lane_change():
            return self.p_lane_change, self.q_alpha_lane_change, self.q_lane_change
        return (1.0 - self.p_lane_change, self.q_alpha_follow, self.q_follow)


class CriticalityEvaluator:
    """Caches challenge evaluations on a 0.1-resolution state grid.

    Cache values are pure functions of the grid key (they are computed from
    the snapped representative state with exact dynamics inside), so results
    do not depend on query order and the evaluator can be shared freely
    across episodes, replications, and workers.
    """

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self._entry_cache: Dict[Tuple[int, ...], Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}

    # -- grid handling ----------------------------------------------------

    @staticmethod
    def _quantize(s: ScenarioState) -> Tuple[int, ...]:
        return (
            round(s.v_bv * 10.0),
            round(s.r1 * 10.0),
            round(s.r1_dot * 10.0),
            round(s.r2 * 10.0),
            round(s.r2_dot * 10.0),
        )

    @staticmethod
    def _representative(key: Tuple[int, ...]) -> ScenarioState:
        return ScenarioState(
            v_bv=key[0] / 10.0,
            r1=key[1] / 10.0,
            r1_dot=key[2] / 10.0,
            r2=key[3] / 10.0,
            r2_dot=key[4] / 10.0,
            phase=Phase.BEFORE_CUT_IN,
        )

    # -- challenge machinery ----------------------------------------------

    def _crash_vector(self, s: ScenarioState) -> Tuple[float, ...]:
        """Per-surrogate contact indicator for a cut-in at ``s``."""
        cfg = self.cfg
        return tuple(
            1.0 if cutin_outcome(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot,
                                 sm.accel, cfg, cfg.max_steps) else 0.0
            for sm in cfg.surrogates
        )

    def _compute_challenges(self, key: Tuple[int, ...]):
        cfg = self.cfg
        rep = self._representative(key)
        lane_change = self._crash_vector(rep)

        # Walk the no-cut-in continuation.  The follower keeps its speed
        # until a cut-in happens, so the walk only carries the background
        # vehicle's car-following response.  It ends when the follower has
        # passed (no cut-in is possible any more) or the step budget runs out.
        suffix = []
        t = rep
        for _ in range(cfg.max_steps):
            gap_lv = t.r1 - cfg.vehicle_length
            if gap_lv <= 0.0:
                break
            a_bv = idm_accel(t.v_bv, gap_lv, -t.r1_dot, cfg.bv_idm)
            raw = step_raw(t.v_bv, t.r1, t.r1_dot, t.r2, t.r2_dot,
                           a_bv, 0.0, cfg.dt)
            t = ScenarioState(*raw, phase=Phase.BEFORE_CUT_IN)
            if t.r2 < 0.0 or t.r1 - cfg.vehicle_length <= 0.0:
                # the follower has passed, or the discrete step overshot
                # into leader contact: following is no longer modeled
                break
            suffix.append(t)

        # Accumulate backwards: at each later moment the lane change either
        # fires (and crashes or not) or the walk continues.  Moments with
        # zero lane-change probability contribute nothing, so their crash
        # rollouts are skipped outright.
        follow = [0.0] * len(cfg.surrogates)
        for t in reversed(suffix):
            p_r = mobil_right_lc_prob(t, cfg.mobil, cfg.bv_idm,
                                      cfg.vehicle_length)
            if p_r <= 0.0:
                continue
            crash = self._crash_vector(t)
            follow = [p_r * cr + (1.0 - p_r) * ch
                      for cr, ch in zip(crash, follow)]
        return lane_change, tuple(follow)

    def challenges(self, s: ScenarioState):
        """Cached ``(lane-change, follow)`` challenge vectors for ``s``."""
        key = self._quantize(s)
        cached = self._entry_cache.get(key)
        if cached is None:
            cached = self._compute_challenges(key)
            self._entry_cache[key] = cached
        return cached

    # -- profile assembly ---------------------------------------------------

    def profile(self, s: ScenarioState) -> CriticalityProfile:
        cfg = self.cfg
        if s.phase is not Phase.BEFORE_CUT_IN:
            raise WrongPhase("criticality is defined for pre-cut-in states only")
        p_lc = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        p_follow = 1.0 - p_lc
        follow_action = Action.accel(bv_car_following_accel(s, cfg))

        ch_lc, ch_follow = self.challenges(s)
        crits = tuple(cl * p_lc + cf * p_follow
                      for cl, cf in zip(ch_lc, ch_follow))

        eps = cfg.epsilon
        q_lc = []
        q_follow = []
        for cl, cf, c in zip(ch_lc, ch_follow, crits):
            if c > 0.0:
                q_lc.append(eps * p_lc + (1.0 - eps) * (cl * p_lc) / c)
                q_follow.append(eps * p_follow + (1.0 - eps) * (cf * p_follow) / c)
            else:
                q_lc.append(p_lc)
                q_follow.append(p_follow)

        n = len(crits)
        return CriticalityProfile(
            state=s,
            follow_action=follow_action,
            p_lane_change=p_lc,
            lane_change_challenge=ch_lc,
            follow_challenge=ch_follow,
            criticalities=crits,
            q_lane_change=tuple(q_lc),
            q_follow=tuple(q_follow),
            q_alpha_lane_change=sum(q_lc) / n,
            q_alpha_follow=sum(q_follow) / n,
        )
