"""Longitudinal driver models and the naturalistic BV action law.

These are the scalar forms, used where a state is handled on its own: the
criticality evaluator (which also drives FVDM surrogates) and the
accelerated sampler's pre-cut-in walk.  ``kernel`` holds the array forms of
IDM and MOBIL that batched code runs on; they agree bit for bit.  ``dv``
always denotes the closing speed ``v_follower - v_leader`` (positive while
approaching).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scenario import Action, Phase, ScenarioState


class NonPositiveGap(ValueError):
    """Car-following models need an open gap to the leader."""


class WrongPhase(ValueError):
    """Operation only defined before (or after) the cut-in."""


class ZeroDensity(RuntimeError):
    """A sampled action carries zero probability under the sampling law."""


@dataclass(frozen=True)
class IdmParams:
    """Intelligent Driver Model parameters.

    v0: desired speed (m/s); headway: safe time headway (s); a_max:
    maximum acceleration (m/s^2); b: comfortable deceleration (m/s^2);
    s0: jam distance (m); delta: free-flow exponent; hard_decel:
    physical braking floor applied when clipping the output.
    """

    v0: float = 15.0
    headway: float = 1.0
    a_max: float = 2.0
    b: float = 2.0
    s0: float = 2.0
    delta: float = 4.0
    hard_decel: float = 4.0


@dataclass(frozen=True)
class FvdmParams:
    """Full Velocity Difference Model parameters.

    The optimal-velocity curve is
    ``V(gap) = v_cap/2 * (tanh(gap/b_f - c_f) + tanh(c_f))``.
    """

    kappa: float = 2.0
    lam: float = 0.5
    v_cap: float = 15.0
    b_f: float = 10.0
    c_f: float = 2.0
    hard_decel: float = 4.0
    hard_accel: float = 4.0


@dataclass(frozen=True)
class MobilParams:
    """Stochastic MOBIL lane-change parameters.

    The incentive is the standard acceleration-gain criterion; the
    lane-change probability is ``clamp(gamma_p * incentive, 0, p_max)``.
    ``b_safe`` vetoes the move when the new follower's feasible braking
    (clipped at its hard_decel) would exceed it.
    """

    politeness: float = 0.0035
    delta_a_th: float = 0.1
    b_safe: float = 4.5
    gamma_p: float = 0.011
    p_max: float = 0.1


def idm_accel_raw(v: float, gap: float, dv: float, p: IdmParams) -> float:
    """Unclipped IDM acceleration; ``gap`` may be ``math.inf`` for free flow."""
    if gap <= 0.0:
        raise NonPositiveGap(f"IDM requires gap > 0, got {gap}")
    s_star = p.s0 + max(0.0, v * p.headway + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (v / p.v0) ** p.delta - (s_star / gap) ** 2)


def idm_accel(v: float, gap: float, dv: float, p: IdmParams) -> float:
    """IDM acceleration clipped to the physical range [-hard_decel, a_max]."""
    a = idm_accel_raw(v, gap, dv, p)
    if a > p.a_max:
        return p.a_max
    if a < -p.hard_decel:
        return -p.hard_decel
    return a


def fvdm_opt_velocity(gap: float, p: FvdmParams) -> float:
    return 0.5 * p.v_cap * (math.tanh(gap / p.b_f - p.c_f) + math.tanh(p.c_f))


def fvdm_accel(v: float, gap: float, dv: float, p: FvdmParams) -> float:
    """FVDM acceleration ``kappa*(V_opt(gap) - v) - lam*dv``, clipped."""
    if gap <= 0.0:
        raise NonPositiveGap(f"FVDM requires gap > 0, got {gap}")
    a = p.kappa * (fvdm_opt_velocity(gap, p) - v) - p.lam * dv
    if a > p.hard_accel:
        return p.hard_accel
    if a < -p.hard_decel:
        return -p.hard_decel
    return a


@dataclass(frozen=True)
class SurrogateModel:
    """A named car-following law used to probe the AV's reaction.

    ``kind`` selects the law ("idm" or "fvdm"); exactly one of the two
    parameter blocks is used.
    """

    name: str
    kind: str
    idm: Optional[IdmParams] = None
    fvdm: Optional[FvdmParams] = None

    def accel(self, v: float, gap: float, dv: float) -> float:
        if self.kind == "idm":
            return idm_accel(v, gap, dv, self.idm)
        if self.kind == "fvdm":
            return fvdm_accel(v, gap, dv, self.fvdm)
        raise ValueError(f"unknown surrogate kind {self.kind!r}")


def default_surrogates() -> Tuple[SurrogateModel, ...]:
    """The stock trio: one IDM and two FVDM variants with distinct braking.

    The hard braking floors straddle the tested vehicle's (4.0 m/s^2) so
    the three predicted crash boundaries bracket the real one.
    """
    return (
        SurrogateModel("idm", "idm", idm=IdmParams(hard_decel=3.8)),
        SurrogateModel("fvdm1", "fvdm", fvdm=FvdmParams(kappa=2.0, hard_decel=3.4)),
        SurrogateModel("fvdm2", "fvdm", fvdm=FvdmParams(kappa=6.0, hard_decel=4.6)),
    )


@dataclass
class ActionDistribution:
    """Finite distribution over BV actions (support size <= 2 here).

    Entries are kept in insertion order with the lane change first when
    present; zero-mass actions are dropped at construction.
    """

    entries: Dict[Action, float]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Action, float]]) -> "ActionDistribution":
        return ActionDistribution({a: p for a, p in pairs if p > 0.0})

    def prob(self, action: Action) -> float:
        return self.entries.get(action, 0.0)

    def support(self) -> List[Action]:
        return list(self.entries)

    def total(self) -> float:
        return sum(self.entries.values())

    def sample(self, rng) -> Action:
        u = rng.random()
        acc = 0.0
        last = None
        for action, p in self.entries.items():
            acc += p
            last = action
            if u < acc:
                return action
        if last is None:
            raise ZeroDensity("cannot sample from an empty distribution")
        return last

    @staticmethod
    def mixture(dists: Sequence["ActionDistribution"],
                weights: Sequence[float]) -> "ActionDistribution":
        """Convex combination; keys ordered by first appearance."""
        out: Dict[Action, float] = {}
        for d, w in zip(dists, weights):
            for action, p in d.entries.items():
                out[action] = out.get(action, 0.0) + w * p
        return ActionDistribution.from_pairs(out.items())


def bv_car_following_accel(s: ScenarioState, cfg) -> float:
    """The BV's IDM response to the LV (the non-lane-change action value)."""
    return idm_accel(s.v_bv, s.r1 - cfg.vehicle_length, -s.r1_dot, cfg.bv_idm)


def mobil_right_lc_prob(s: ScenarioState, mobil: MobilParams, idm: IdmParams,
                        vehicle_length: float = 0.0) -> float:
    """Probability that the BV starts the right lane change this step.

    Stochastic MOBIL: the acceleration-gain incentive is mapped linearly
    to a probability and clamped to [0, p_max].  The move is vetoed when
    it would place the BV on top of the AV or when the AV's braking,
    clipped at what its brakes can deliver, would exceed ``b_safe``.
    The politeness term uses the unclipped demand, so deep cut-ins into
    a fast-closing AV are increasingly unattractive.
    """
    if s.phase is Phase.AFTER_CUT_IN:
        raise WrongPhase("lane-change probability is a pre-cut-in quantity")
    gap_av = s.r2 - vehicle_length
    if gap_av <= 0.0:
        return 0.0
    v_av = s.v_bv - s.r2_dot
    a_pred_raw = idm_accel_raw(v_av, gap_av, -s.r2_dot, idm)
    a_pred = max(a_pred_raw, -idm.hard_decel)
    if a_pred < -mobil.b_safe:
        return 0.0
    gap_lv = s.r1 - vehicle_length
    a_old = idm_accel(s.v_bv, gap_lv, -s.r1_dot, idm)
    a_new = idm_accel(s.v_bv, math.inf, 0.0, idm)
    incentive = (a_new - a_old) + mobil.politeness * a_pred_raw - mobil.delta_a_th
    p = mobil.gamma_p * incentive
    if p <= 0.0:
        return 0.0
    return min(p, mobil.p_max)


def idm_follower(params: IdmParams):
    """Bind IDM parameters into an ``accel(v, gap, dv)`` follower callback."""
    def accel(v: float, gap: float, dv: float) -> float:
        return idm_accel(v, gap, dv, params)
    return accel
