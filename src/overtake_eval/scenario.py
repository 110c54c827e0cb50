"""Two-lane overtaking scenario: states, actions, kinematics, termination.

The scenario holds three vehicles.  A lead vehicle (LV) and a behind
vehicle (BV) travel in the left lane; the vehicle under test (AV)
approaches in the right lane.  Everything relevant to the dynamics is
captured by the reduced state

    (v_bv, r1, r1_dot, r2, r2_dot)

where ``r1 = x_lv - x_bv`` and ``r2 = x_bv - x_av`` are longitudinal
ranges and the dotted quantities are their rates.  Before the cut-in the
BV either tracks the LV or changes into the right lane; afterwards the
AV reacts to the BV while LV and BV hold speed.

The functions here are the scalar forms of the dynamics.  The criticality
evaluator and the accelerated sampler's pre-cut-in walk use them; the
naturalistic sampler, the oracle and every cut-in rollout of the vehicle
under test run on their array forms in ``kernel``, which agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple


class Phase(Enum):
    BEFORE_CUT_IN = "before_cut_in"
    AFTER_CUT_IN = "after_cut_in"


class Termination(Enum):
    ACCIDENT = "accident"
    PASSED = "passed"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class Action:
    """BV maneuver: a longitudinal acceleration or the right lane change."""

    kind: str  # "accel" | "lane_change"
    a: float = 0.0

    @staticmethod
    def accel(a: float) -> "Action":
        return Action("accel", float(a))

    def is_lane_change(self) -> bool:
        return self.kind == "lane_change"


LANE_CHANGE = Action("lane_change")


@dataclass(frozen=True)
class ScenarioState:
    """Reduced scenario state plus the maneuver phase."""

    v_bv: float
    r1: float
    r1_dot: float
    r2: float
    r2_dot: float
    phase: Phase = Phase.BEFORE_CUT_IN

    def raw(self) -> Tuple[float, float, float, float, float]:
        return (self.v_bv, self.r1, self.r1_dot, self.r2, self.r2_dot)


def advance(x: float, v: float, a: float, dt: float) -> Tuple[float, float]:
    """Constant-acceleration update with the speed clamped at zero."""
    x = x + v * dt + 0.5 * a * dt * dt
    v = v + a * dt
    if v < 0.0:
        v = 0.0
    return x, v


def step_raw(v_bv: float, r1: float, r1_dot: float, r2: float, r2_dot: float,
             a_bv: float, a_av: float, dt: float):
    """One kinematic step of the reduced state (scalar fast path).

    The three vehicles are reconstructed with the AV anchored at x = 0,
    advanced individually, and the ranges re-derived, so the 5-tuple is
    always consistent with an explicit vehicle-level simulation.
    """
    v_av = v_bv - r2_dot
    v_lv = v_bv + r1_dot
    x_av, v_av = advance(0.0, v_av, a_av, dt)
    x_bv, v_bv = advance(r2, v_bv, a_bv, dt)
    x_lv, v_lv = advance(r1 + r2, v_lv, 0.0, dt)
    return (v_bv, x_lv - x_bv, v_lv - v_bv, x_bv - x_av, v_bv - v_av)


def bumper_gap(s: ScenarioState, cfg) -> float:
    """AV-to-BV gap used by the accident predicate."""
    return s.r2 - cfg.vehicle_length


def check_termination(s: ScenarioState, step_index: int, cfg) -> Optional[Termination]:
    """Terminal outcome of a state, or None while the episode runs.

    Checks are ordered: accident, passed, step budget.
    """
    if s.phase is Phase.AFTER_CUT_IN and bumper_gap(s, cfg) <= cfg.d_accid:
        return Termination.ACCIDENT
    if s.phase is Phase.BEFORE_CUT_IN and s.r2 < 0.0:
        return Termination.PASSED
    if step_index >= cfg.max_steps:
        return Termination.MAX_STEPS
    return None


def cutin_outcome(v_bv: float, r1: float, r1_dot: float, r2: float,
                  r2_dot: float, accel_fn: Callable[[float, float, float], float],
                  cfg, n_states: int) -> bool:
    """Deterministic post-cut-in rollout; True when the AV rear-ends the BV.

    Starts from the pre-cut-in state at which the lane change was chosen,
    applies the cut-in step, and then lets ``accel_fn(v, gap, dv)`` drive
    the AV while the BV holds speed.  ``n_states`` caps how many states
    after the cut-in may be visited before the episode runs out of steps.
    """
    dt = cfg.dt
    contact = cfg.vehicle_length + cfg.d_accid
    v_bv, r1, r1_dot, r2, r2_dot = step_raw(
        v_bv, r1, r1_dot, r2, r2_dot, 0.0, 0.0, dt)
    for i in range(n_states):
        if r2 <= contact:
            return True
        if i == n_states - 1:
            break
        v_av = v_bv - r2_dot
        a_av = accel_fn(v_av, r2 - cfg.vehicle_length, -r2_dot)
        v_bv, r1, r1_dot, r2, r2_dot = step_raw(
            v_bv, r1, r1_dot, r2, r2_dot, 0.0, a_av, dt)
    return False
