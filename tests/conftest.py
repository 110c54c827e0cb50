"""Shared fixtures and reference implementations for the test suite.

The simulators in this module deliberately avoid the library's anchored
relative-state update.  They integrate absolute vehicle positions with
their own arithmetic and derive ranges at the end, so agreement with the
library is evidence of correctness rather than a tautology.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest

from overtake_eval import kernel
from overtake_eval.config import CampaignConfig, ScenarioConfig
from overtake_eval.models import IdmParams, MobilParams
from scalar_reference import (
    CriticalMoment,
    State,
    TestRecord,
    likelihood_ratio,
    mobil_right_lc_prob,
)


# ---------------------------------------------------------------------------
# scenarios the lockstep paths are checked on
# ---------------------------------------------------------------------------

# Small step budget (MAX_STEPS endings, truncated cut-in rollouts), a
# physical vehicle length and accident margin, and a lane-change law hot
# enough that most episodes cut in.
STRESSED = dataclasses.replace(
    ScenarioConfig(), vehicle_length=1.0, d_accid=0.5, max_steps=10,
    mobil=MobilParams(gamma_p=0.2, p_max=0.5))
# The follower starts 20 m back: episodes walk dozens of steps and take
# dozens of draws each.
LONG = dataclasses.replace(
    ScenarioConfig(), init=dataclasses.replace(ScenarioConfig().init, r2=20.0))
CONFIGS = {"default": ScenarioConfig(), "stressed": STRESSED, "long": LONG}


# ---------------------------------------------------------------------------
# the criticality evaluator on a batch of states
# ---------------------------------------------------------------------------

def _columns(ev, s):
    """The ``_table`` column of each of the states ``s``, filled, on a miss,
    with their own cells only (walks one state long)."""
    return ev.columns(s, 1)


def challenges(ev, s):
    """Cached ``(lane-change, follow)`` challenges of the states ``s``, each
    (J, m)."""
    at = _columns(ev, s)
    lane_change, follow = ev._table[:, :, at]
    return lane_change, follow


def profile(ev, s):
    """The evaluator's profile of the states ``s``."""
    return ev.profile(lc_prob(s, ev.cfg), _columns(ev, s))


# ---------------------------------------------------------------------------
# the BV's law at arbitrary states
# ---------------------------------------------------------------------------

def bv_follow(s, cfg) -> np.ndarray:
    """The BV's IDM response to the LV at the states ``s``: the
    acceleration ``kernel.no_cutin_walk`` follows with."""
    return kernel.idm_accel(s[0], s[1] - cfg.vehicle_length, -s[2],
                            cfg.bv_idm)


def lc_prob(s, cfg) -> np.ndarray:
    """The lane-change probability p_R that ``kernel.no_cutin_walk`` yields
    at the states ``s``; every state's LV gap must be open."""
    return kernel.mobil_right_lc_prob(
        s, bv_follow(s, cfg), kernel.idm_free_road(s[0], cfg.bv_idm),
        cfg.mobil, cfg.bv_idm, cfg.vehicle_length)


# ---------------------------------------------------------------------------
# absolute-position kinematics
# ---------------------------------------------------------------------------

def advance_abs(x: float, v: float, a: float, dt: float) -> Tuple[float, float]:
    # position integrates the commanded acceleration for the whole substep;
    # only the carried-over speed is floored at zero.
    x2 = x + v * dt + 0.5 * a * dt * dt
    v2 = v + a * dt
    if v2 < 0.0:
        v2 = 0.0
    return x2, v2


def idm_ref(v: float, gap: float, dv: float, p: IdmParams) -> float:
    """Car-following acceleration, written as a plain formula transcription
    (different operation order from the library on purpose)."""
    assert gap > 0.0
    interaction = v * p.headway + (v * dv) / (2.0 * math.sqrt(p.a_max * p.b))
    s_star = p.s0 + max(0.0, interaction)
    a = p.a_max - p.a_max * (v / p.v0) ** p.delta - p.a_max * (s_star / gap) ** 2
    return min(max(a, -p.hard_decel), p.a_max)


def abs_cutin_crash(v_bv: float, r1: float, r1_dot: float, r2: float,
                    r2_dot: float, accel_fn: Callable[[float, float, float], float],
                    cfg: ScenarioConfig, n_states: int,
                    until_clear: bool = False) -> bool:
    """Contact outcome of a cut-in fired from the given ranges, simulated on
    absolute positions: one zero-acceleration step while the lane change
    completes, then the follower controls against the cutting-in vehicle.
    With ``until_clear`` the rollout also ends, without contact, once the
    follower is no longer faster than the cutting-in vehicle."""
    v_av = v_bv - r2_dot
    v_lv = v_bv + r1_dot
    x_av, x_bv, x_lv = 0.0, r2, r2 + r1
    x_av, v_av = advance_abs(x_av, v_av, 0.0, cfg.dt)
    x_bv, v_bv = advance_abs(x_bv, v_bv, 0.0, cfg.dt)
    x_lv, v_lv = advance_abs(x_lv, v_lv, 0.0, cfg.dt)
    for i in range(n_states):
        gap = (x_bv - x_av) - cfg.vehicle_length
        if gap <= cfg.d_accid:
            return True
        if i == n_states - 1 or until_clear and v_av <= v_bv:
            break
        a = accel_fn(v_av, gap, v_av - v_bv)
        x_av, v_av = advance_abs(x_av, v_av, a, cfg.dt)
        x_bv, v_bv = advance_abs(x_bv, v_bv, 0.0, cfg.dt)
    return False


def _library_idm(v: float, gap: float, dv: float, p: IdmParams) -> float:
    return float(kernel.idm_accel(np.array([v]), np.array([gap]),
                                  np.array([dv]), p)[0])


def abs_no_cutin_walk(s: State, cfg: ScenarioConfig,
                      use_library_idm: bool = False) -> List[State]:
    """States reached while the slow vehicle keeps its lane: the background
    vehicle car-follows the leader, the follower coasts.  The returned list
    excludes the root state; it stops before a state where the follower has
    already passed, and never exceeds the step budget."""
    accel = _library_idm if use_library_idm else idm_ref
    v_bv, v_av, v_lv = s.v_bv, s.v_bv - s.r2_dot, s.v_bv + s.r1_dot
    x_av, x_bv = 0.0, s.r2
    x_lv = s.r2 + s.r1
    out: List[State] = []
    for _ in range(cfg.max_steps):
        gap_lv = (x_lv - x_bv) - cfg.vehicle_length
        if gap_lv <= 0.0:
            break
        a_bv = accel(v_bv, gap_lv, v_bv - v_lv, cfg.bv_idm)
        x_bv, v_bv = advance_abs(x_bv, v_bv, a_bv, cfg.dt)
        x_av, v_av = advance_abs(x_av, v_av, 0.0, cfg.dt)
        x_lv, v_lv = advance_abs(x_lv, v_lv, 0.0, cfg.dt)
        r2 = x_bv - x_av
        if r2 < 0.0 or (x_lv - x_bv) - cfg.vehicle_length <= 0.0:
            break  # follower passed, or the step overshot into the leader
        out.append(State(v_bv=v_bv, r1=x_lv - x_bv, r1_dot=v_lv - v_bv,
                         r2=r2, r2_dot=v_bv - v_av))
    return out


def follow_hazard_recursive(states: Sequence[State],
                            crash_fn: Callable[[State], float],
                            cfg: ScenarioConfig) -> float:
    """Probability that a lane change eventually fires somewhere along the
    walk *and* ends in contact, by forward recursion over the cut-in time."""
    def value(i: int) -> float:
        if i == len(states):
            return 0.0
        t = states[i]
        p_r = mobil_right_lc_prob(t, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        if p_r <= 0.0:
            return value(i + 1)
        return p_r * crash_fn(t) + (1.0 - p_r) * value(i + 1)

    return value(0)


def grid_state(v_bv: float, r1: float, r1_dot: float, r2: float,
               r2_dot: float) -> State:
    """A state whose coordinates sit exactly on the 0.1-resolution grid."""
    snap = lambda x: round(x * 10.0) / 10.0
    return State(v_bv=snap(v_bv), r1=snap(r1), r1_dot=snap(r1_dot),
                 r2=snap(r2), r2_dot=snap(r2_dot))


# ---------------------------------------------------------------------------
# synthetic record builders
# ---------------------------------------------------------------------------

def make_moment(p: float, q_alpha: float, q: Sequence[float]) -> CriticalMoment:
    return CriticalMoment(p=p, q_alpha=q_alpha, q=tuple(q))


def make_nade_record(index: int, accident: int,
                     moments: Sequence[CriticalMoment],
                     seed: int = 0) -> TestRecord:
    r = TestRecord(index=index, seed=seed, env="nade", accident=accident,
                   weight=1.0, critical_log=tuple(moments))
    return dataclasses.replace(r, weight=likelihood_ratio(r.critical_log))


def random_nade_records(rng: np.random.Generator, n: int, j: int = 3,
                        max_l: int = 4, p_accident: float = 0.35
                        ) -> List[TestRecord]:
    """Structurally valid weighted records with arbitrary densities."""
    out = []
    for i in range(n):
        l = int(rng.integers(0, max_l + 1))
        moments = []
        for _ in range(l):
            q = rng.uniform(0.05, 1.0, size=j)
            moments.append(make_moment(p=float(rng.uniform(0.01, 1.0)),
                                       q_alpha=float(np.mean(q)), q=q))
        acc = int(rng.random() < p_accident)
        out.append(make_nade_record(i, acc, moments))
    return out


def random_nde_records(rng: np.random.Generator, n: int,
                       p_accident: float = 0.3) -> List[TestRecord]:
    return [TestRecord(index=i, seed=i, env="nde",
                       accident=int(rng.random() < p_accident), weight=1.0)
            for i in range(n)]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture()
def scen() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture()
def campaign() -> CampaignConfig:
    return CampaignConfig()
