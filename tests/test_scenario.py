"""Kinematics, phase handling, and termination of the three-vehicle episode.

Phase handling lives in the lockstep kernel: ``kernel.walk`` advances
pre-cut-in states (the AV coasts, the BV car-follows) and
``kernel.cutin_crashes`` rolls a cut-in out (the BV holds speed, the AV
follows).  Both are checked against the absolute-position references in
conftest.py.
"""
import dataclasses

import numpy as np
import pytest

from overtake_eval import kernel
from overtake_eval.scenario import (
    LANE_CHANGE,
    Action,
    Phase,
    ScenarioState,
    Termination,
    advance,
    bumper_gap,
    check_termination,
    cutin_outcome,
    step_raw,
)
from overtake_eval.models import idm_follower

from conftest import abs_cutin_crash, abs_no_cutin_walk, advance_abs


def mk(v_bv, r1, r1_dot, r2, r2_dot, phase=Phase.BEFORE_CUT_IN):
    return ScenarioState(v_bv=v_bv, r1=r1, r1_dot=r1_dot, r2=r2,
                         r2_dot=r2_dot, phase=phase)


def cols(states):
    """Kernel arrays from a list of ScenarioStates."""
    return [np.array(c, dtype=float) for c in zip(*(s.raw() for s in states))]


def visited(states, cfg):
    """Every pre-cut-in state the kernel walk visits, as (row, state) pairs
    in step order: each state fires a cut-in candidate and keeps walking."""
    cut = kernel.walk(cols(states), cfg,
                      lambda k, rows, p_r: np.ones(len(rows), dtype=bool),
                      stay=True)
    rows = zip(*(c.tolist() for c in cut.state))
    return [(r, mk(*row)) for r, row in zip(cut.rows.tolist(), rows)]


# ---------------------------------------------------------------------------
# state derivation and single-step kinematics
# ---------------------------------------------------------------------------

def test_advance_constant_speed():
    assert advance(1.0, 4.0, 0.0, 0.5) == (3.0, 4.0)


def test_advance_speed_floor_keeps_substep_displacement():
    # With v=0.2 and a=-4 over 0.1 s the displacement 0.02 - 0.02 cancels
    # exactly, while the raw end speed -0.2 gets floored to zero.
    assert advance(0.0, 0.2, -4.0, 0.1) == (0.0, 0.0)
    # A stopped vehicle commanded to brake must not creep backwards.
    x, v = advance(3.0, 0.0, -4.0, 0.1)
    assert v == 0.0
    assert x == 3.0 - 0.5 * 4.0 * 0.01  # the substep still integrates a


def test_step_coasting_example(scen):
    # dt = 0.1, everyone coasting: ranges shrink by 0.5 m each.
    s = mk(8.0, 30.0, -5.0, 5.0, -5.0)
    v_bv, r1, r1_dot, r2, r2_dot = (
        float(c[0]) for c in kernel.step(cols([s]), 0.0, 0.0, scen.dt))
    assert r1 == pytest.approx(29.5, abs=1e-12)
    assert r2 == pytest.approx(4.5, abs=1e-12)
    assert v_bv == 8.0
    assert r1_dot == -5.0
    assert r2_dot == -5.0


def test_step_raw_matches_absolute_position_update():
    # The reduced update must agree with advancing three absolute vehicles.
    rng = np.random.default_rng(90125)
    for _ in range(300):
        v_bv = rng.uniform(0.0, 20.0)
        r1 = rng.uniform(0.1, 60.0)
        r1_dot = rng.uniform(-10.0, 10.0)
        r2 = rng.uniform(0.1, 30.0)
        r2_dot = rng.uniform(-10.0, 10.0)
        a_bv = rng.uniform(-4.0, 2.0)
        a_av = rng.uniform(-4.0, 2.0)
        got = step_raw(v_bv, r1, r1_dot, r2, r2_dot, a_bv, a_av, 0.1)

        x_av, v_av = advance_abs(0.0, v_bv - r2_dot, a_av, 0.1)
        x_bv, v_bv2 = advance_abs(r2, v_bv, a_bv, 0.1)
        x_lv, v_lv = advance_abs(r2 + r1, v_bv + r1_dot, 0.0, 0.1)
        want = (v_bv2, x_lv - x_bv, v_lv - v_bv2, x_bv - x_av, v_bv2 - v_av)
        assert got == pytest.approx(want, abs=1e-9)


def test_bv_acceleration_ignored_after_cut_in(scen):
    # Right behind a slow leader the BV's car-following law would brake
    # hard; after the cut-in it holds speed regardless, as in the
    # absolute-position rollout.
    rng = np.random.default_rng(4711)
    states = [mk(rng.uniform(6.0, 12.0), rng.uniform(0.5, 3.0),
                 rng.uniform(-6.0, -2.0), rng.uniform(0.5, 8.0),
                 rng.uniform(-8.0, 0.0)) for _ in range(120)]
    got = kernel.cutin_crashes(cols(states), np.full(120, scen.max_steps),
                               scen).tolist()
    follower = idm_follower(scen.av_idm)
    want = [abs_cutin_crash(*s.raw(), follower, scen, scen.max_steps)
            for s in states]
    assert got == want
    assert 0 < sum(got) < 120


def test_av_acceleration_ignored_before_cut_in(scen):
    # Before the cut-in the follower coasts while the BV car-follows: the
    # walk visits the states of the absolute-position walk.
    rng = np.random.default_rng(6174)
    roots = [mk(rng.uniform(4.0, 12.0), rng.uniform(8.0, 40.0),
                rng.uniform(-6.0, 2.0), rng.uniform(1.0, 10.0),
                rng.uniform(-8.0, 0.0)) for _ in range(40)]
    walked = visited(roots, scen)
    for i, root in enumerate(roots):
        mine = [t for r, t in walked if r == i]
        assert mine[0] == root
        # the walk counts the root among its max_steps states
        ref = abs_no_cutin_walk(root, scen, use_library_idm=True)
        assert len(mine) - 1 == min(len(ref), scen.max_steps - 1)
        for got, want in zip(mine[1:], ref):
            assert got.raw() == pytest.approx(want.raw(), abs=1e-9)


# ---------------------------------------------------------------------------
# lane change handling
# ---------------------------------------------------------------------------

def test_lane_change_is_zero_accel_step_with_phase_flip(scen):
    # With a budget of one state the rollout only sees the state the cut-in
    # step lands on: everyone coasts through it, and contact is then judged
    # on the post-cut-in (bumper-gap) rule.
    cfg = dataclasses.replace(scen, vehicle_length=1.0, d_accid=0.5)
    rng = np.random.default_rng(31)
    states = [mk(rng.uniform(2.0, 12.0), rng.uniform(5.0, 40.0),
                 rng.uniform(-6.0, 2.0), rng.uniform(1.0, 2.5),
                 rng.uniform(-8.0, 2.0)) for _ in range(200)]
    got = kernel.cutin_crashes(cols(states), np.ones(200, dtype=int),
                               cfg).tolist()
    coasted = [step_raw(*s.raw(), 0.0, 0.0, cfg.dt) for s in states]
    want = [c[3] <= cfg.vehicle_length + cfg.d_accid for c in coasted]
    assert got == want
    assert 0 < sum(got) < 200


def test_second_lane_change_rejected(scen):
    # A sampled episode ends at its cut-in: a walk row that fires leaves
    # the walk and never fires again.
    s = mk(8.0, 30.0, -5.0, 5.0, -5.0)
    cut = kernel.walk(cols([s] * 5), scen,
                      lambda k, rows, p_r: np.ones(len(rows), dtype=bool),
                      stay=False)
    assert cut.rows.tolist() == [0, 1, 2, 3, 4]
    assert cut.budget.tolist() == [scen.max_steps] * 5


def test_action_helpers():
    assert LANE_CHANGE.is_lane_change()
    assert not Action.accel(-2.0).is_lane_change()
    assert Action.accel(-2.0).a == -2.0


# ---------------------------------------------------------------------------
# termination
# ---------------------------------------------------------------------------

def test_termination_running_state(scen):
    assert check_termination(mk(8, 30, -5, 5, -5), 0, scen) is None


def test_termination_accident_requires_cut_in(scen):
    hit = mk(8, 30, -5, -0.2, -5, phase=Phase.AFTER_CUT_IN)
    assert check_termination(hit, 0, scen) is Termination.ACCIDENT
    # Same geometry before the cut-in is the follower passing, not contact.
    passed = mk(8, 30, -5, -0.2, -5)
    assert check_termination(passed, 0, scen) is Termination.PASSED


def test_termination_step_budget(scen):
    s = mk(8, 30, -5, 5, -5)
    assert check_termination(s, scen.max_steps - 1, scen) is None
    assert check_termination(s, scen.max_steps, scen) is Termination.MAX_STEPS


def test_accident_outranks_step_budget(scen):
    hit = mk(8, 30, -5, -0.2, -5, phase=Phase.AFTER_CUT_IN)
    assert check_termination(hit, scen.max_steps, scen) is Termination.ACCIDENT
    passed = mk(8, 30, -5, -0.2, -5)
    assert check_termination(passed, scen.max_steps, scen) is Termination.PASSED


def test_accident_threshold_uses_vehicle_length(scen):
    cfg = dataclasses.replace(scen, vehicle_length=4.0, d_accid=0.5)
    s = mk(8, 30, -5, 4.4, -5, phase=Phase.AFTER_CUT_IN)
    assert bumper_gap(s, cfg) == pytest.approx(0.4)
    assert check_termination(s, 0, cfg) is Termination.ACCIDENT
    clear = mk(8, 30, -5, 4.6, -5, phase=Phase.AFTER_CUT_IN)
    assert check_termination(clear, 0, cfg) is None


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_cutin_outcome_matches_absolute_position_rollout(scen):
    follower = idm_follower(scen.av_idm)
    rng = np.random.default_rng(5150)
    crashes = 0
    for _ in range(200):
        v_bv = rng.uniform(2.0, 12.0)
        r1 = rng.uniform(5.0, 40.0)
        r1_dot = rng.uniform(-6.0, 2.0)
        r2 = rng.uniform(0.3, 10.0)
        r2_dot = rng.uniform(-8.0, 2.0)
        got = cutin_outcome(v_bv, r1, r1_dot, r2, r2_dot, follower, scen,
                            scen.max_steps)
        want = abs_cutin_crash(v_bv, r1, r1_dot, r2, r2_dot, follower, scen,
                               scen.max_steps)
        assert got == want
        crashes += got
    # the box above straddles the crash boundary; both sides must be hit
    assert 0 < crashes < 200


def test_cutin_outcome_horizon_zero_means_no_contact_observed(scen):
    # With no post-cut-in states to look at there is nothing to report.
    assert cutin_outcome(8.0, 30.0, -5.0, 0.3, -5.0, idm_follower(scen.av_idm),
                         scen, 0) is False


def test_cutin_outcome_agrees_with_run_trajectory(scen):
    # The batched rollout, the scalar rollout and the absolute-position
    # rollout agree for any remaining budget, including none.
    follower = idm_follower(scen.av_idm)
    rng = np.random.default_rng(1984)
    states = [mk(rng.uniform(2.0, 12.0), rng.uniform(5.0, 40.0),
                 rng.uniform(-6.0, 2.0), rng.uniform(0.3, 10.0),
                 rng.uniform(-8.0, 2.0)) for _ in range(50)]
    budgets = rng.integers(0, 80, 50)
    got = kernel.cutin_crashes(cols(states), budgets, scen).tolist()
    for s, n, batched in zip(states, budgets.tolist(), got):
        assert batched == cutin_outcome(*s.raw(), follower, scen, n)
        assert batched == abs_cutin_crash(*s.raw(), follower, scen, n)
    assert 0 < sum(got) < 50


def test_run_trajectory_passed_episode(scen):
    # BV car-follows at about 8, AV closes at 13: the follower passes
    # within about 1 s, and the walk stops at the last state before that.
    s0 = mk(8.0, 30.0, -5.0, 5.0, -5.0)
    walked = [t for _, t in visited([s0], scen)]
    assert 1 < len(walked) < scen.max_steps
    assert all(t.r2 >= 0.0 for t in walked)
    last = walked[-1]
    nxt = kernel.step(cols([last]), kernel.idm_accel(
        np.array([last.v_bv]), np.array([last.r1]), np.array([-last.r1_dot]),
        scen.bv_idm), 0.0, scen.dt)
    assert check_termination(mk(*(float(c[0]) for c in nxt)), len(walked),
                             scen) is Termination.PASSED
    # alongside (r2 == 0) is not passed yet: the walk still visits it
    alongside = mk(8.0, 30.0, -5.0, 0.0, -5.0)
    assert [t for _, t in visited([alongside], scen)] == [alongside]


def test_run_trajectory_stops_at_budget(scen):
    # LV crawls far ahead, AV far behind: nothing ever happens, and the
    # walk visits exactly max_steps states, with budgets counting down.
    cfg = dataclasses.replace(scen, max_steps=40)
    s0 = mk(8.0, 500.0, 0.0, 5.0, 0.0)
    cut = kernel.walk(cols([s0]), cfg,
                      lambda k, rows, p_r: np.ones(len(rows), dtype=bool),
                      stay=True)
    assert cut.budget.tolist() == list(range(cfg.max_steps, 0, -1))
    assert check_termination(s0, cfg.max_steps, cfg) is Termination.MAX_STEPS
