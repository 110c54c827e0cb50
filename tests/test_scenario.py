"""Kinematics, phase handling, and episode endings of the three-vehicle
scenario.

Phase handling lives in the lockstep kernel: ``kernel.no_cutin_walk``
advances pre-cut-in states (the AV coasts, the BV car-follows) and
``kernel.cutin_crashes`` rolls a cut-in out (the BV holds speed, the AV
follows).  Both are checked against the absolute-position references in
conftest.py and the scalar references in scalar_reference.py.
"""
import dataclasses
from itertools import islice

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import kernel
from scalar_reference import State, cols

from conftest import abs_cutin_crash, abs_no_cutin_walk, advance_abs


def episode_walk(states, cfg):
    """The walk the samplers and the oracle take from ``states``, none of
    which cuts in: a row whose AV has passed at the start never walks, and
    a row visits at most ``max_steps`` states.  Yields the states left in
    the budget, the rows and their states at each step."""
    s = cols(states)
    walk = kernel.no_cutin_walk(s, cfg, ~(s[3] < 0.0))
    for k, (rows, t, _) in enumerate(islice(walk, cfg.max_steps)):
        yield cfg.max_steps - k, rows, t


def visited(states, cfg):
    """Every pre-cut-in state the episode walk visits, as (row, state)
    pairs in step order."""
    return [(r, t) for _, rows, s in episode_walk(states, cfg)
            for r, t in zip(rows.tolist(), ref.rows(s))]


def crashes(states, budget, cfg):
    return kernel.cutin_crashes(cols(states), np.broadcast_to(
        budget, (len(states),)), cfg).tolist()


# ---------------------------------------------------------------------------
# single-step kinematics
# ---------------------------------------------------------------------------

def test_advance_constant_speed():
    x, v = kernel._advance(np.array([1.0]), np.array([4.0]), 0.0, 0.5)
    assert (x.tolist(), v.tolist()) == ([3.0], [4.0])


def test_advance_speed_floor_keeps_substep_displacement():
    # With v=0.2 and a=-4 over 0.1 s the displacement 0.02 - 0.02 cancels
    # exactly, while the raw end speed -0.2 gets floored to zero.
    x, v = kernel._advance(np.array([0.0, 3.0]), np.array([0.2, 0.0]),
                           -4.0, 0.1)
    assert x[0] == 0.0 and v.tolist() == [0.0, 0.0]
    # A stopped vehicle commanded to brake must not creep backwards, but
    # the substep still integrates a.
    assert x[1] == 3.0 - 0.5 * 4.0 * 0.01


def test_step_coasting_example(scen):
    # dt = 0.1, everyone coasting: ranges shrink by 0.5 m each.
    s = State(8.0, 30.0, -5.0, 5.0, -5.0)
    [(v_bv, r1, r1_dot, r2, r2_dot)] = ref.rows(
        kernel.step(cols([s]), 0.0, 0.0, scen.dt))
    assert r1 == pytest.approx(29.5, abs=1e-12)
    assert r2 == pytest.approx(4.5, abs=1e-12)
    assert v_bv == 8.0
    assert r1_dot == -5.0
    assert r2_dot == -5.0


def test_step_raw_matches_absolute_position_update():
    # The reduced update must agree with advancing three absolute vehicles.
    rng = np.random.default_rng(90125)
    n = 300
    v_bv = rng.uniform(0.0, 20.0, n)
    s = [v_bv, rng.uniform(0.1, 60.0, n), rng.uniform(-10.0, 10.0, n),
         rng.uniform(0.1, 30.0, n), rng.uniform(-10.0, 10.0, n)]
    a_bv = rng.uniform(-4.0, 2.0, n)
    a_av = rng.uniform(-4.0, 2.0, n)
    got = ref.rows(kernel.step(s, a_bv, a_av, 0.1))
    for g, (v, r1, r1_dot, r2, r2_dot), ab, aa in zip(
            got, ref.rows(s), a_bv.tolist(), a_av.tolist()):
        x_av, v_av = advance_abs(0.0, v - r2_dot, aa, 0.1)
        x_bv, v_bv2 = advance_abs(r2, v, ab, 0.1)
        x_lv, v_lv = advance_abs(r2 + r1, v + r1_dot, 0.0, 0.1)
        want = (v_bv2, x_lv - x_bv, v_lv - v_bv2, x_bv - x_av, v_bv2 - v_av)
        assert g == pytest.approx(want, abs=1e-9)


def test_bv_acceleration_ignored_after_cut_in(scen):
    # Right behind a slow leader the BV's car-following law would brake
    # hard; after the cut-in it holds speed regardless, as in the
    # absolute-position rollout.
    rng = np.random.default_rng(4711)
    states = [State(rng.uniform(6.0, 12.0), rng.uniform(0.5, 3.0),
                    rng.uniform(-6.0, -2.0), rng.uniform(0.5, 8.0),
                    rng.uniform(-8.0, 0.0)) for _ in range(120)]
    got = crashes(states, scen.max_steps, scen)
    follower = ref.idm_follower(scen.av_idm)
    want = [abs_cutin_crash(*s, follower, scen, scen.max_steps) for s in states]
    assert got == want
    assert 0 < sum(got) < 120


def test_av_acceleration_ignored_before_cut_in(scen):
    # Before the cut-in the follower coasts while the BV car-follows: the
    # walk visits the states of the absolute-position walk.
    rng = np.random.default_rng(6174)
    roots = [State(rng.uniform(4.0, 12.0), rng.uniform(8.0, 40.0),
                   rng.uniform(-6.0, 2.0), rng.uniform(1.0, 10.0),
                   rng.uniform(-8.0, 0.0)) for _ in range(40)]
    walked = visited(roots, scen)
    for i, root in enumerate(roots):
        mine = [t for r, t in walked if r == i]
        assert mine[0] == root
        # the walk counts the root among its max_steps states
        want = abs_no_cutin_walk(root, scen, use_library_idm=True)
        assert len(mine) - 1 == min(len(want), scen.max_steps - 1)
        for got, w in zip(mine[1:], want):
            assert got == pytest.approx(w, abs=1e-9)


# ---------------------------------------------------------------------------
# lane change handling
# ---------------------------------------------------------------------------

def test_lane_change_is_zero_accel_step_with_phase_flip(scen):
    # With a budget of one state the rollout only sees the state the cut-in
    # step lands on: everyone coasts through it, and contact is then judged
    # on the post-cut-in (bumper-gap) rule.
    cfg = dataclasses.replace(scen, vehicle_length=1.0, d_accid=0.5)
    rng = np.random.default_rng(31)
    states = [State(rng.uniform(2.0, 12.0), rng.uniform(5.0, 40.0),
                    rng.uniform(-6.0, 2.0), rng.uniform(1.0, 2.5),
                    rng.uniform(-8.0, 2.0)) for _ in range(200)]
    got = crashes(states, 1, cfg)
    coasted = [ref.step_raw(*s, 0.0, 0.0, cfg.dt) for s in states]
    want = [c.r2 <= cfg.vehicle_length + cfg.d_accid for c in coasted]
    assert got == want
    assert 0 < sum(got) < 200


def test_second_lane_change_rejected(scen):
    # A sampled episode ends at its cut-in: a row cleared from the live
    # mask leaves the walk and never fires again.
    s = State(8.0, 30.0, -5.0, 5.0, -5.0)
    live = np.ones(5, dtype=bool)
    walk = kernel.no_cutin_walk(cols([s] * 5), scen, live)
    rows, _, _ = next(walk)
    assert rows.tolist() == [0, 1, 2, 3, 4]
    live[[1, 3]] = False
    rows, _, _ = next(walk)
    assert rows.tolist() == [0, 2, 4]
    live[:] = False
    assert next(walk)[0].size == 0
    assert next(walk, None) is None


# ---------------------------------------------------------------------------
# episode endings: accident after a cut-in, passed, step budget
# ---------------------------------------------------------------------------

def test_termination_running_state(scen):
    # A state with the AV behind and budget left is walked and may cut in.
    s = State(8, 30, -5, 5, -5)
    left, rows, t = next(episode_walk([s], scen))
    assert rows.tolist() == [0] and ref.rows(t) == [s]
    assert left == scen.max_steps


def test_termination_accident_requires_cut_in(scen):
    # After a cut-in, a closed bumper gap is contact.
    hit = State(8, 30, -5, -0.2, -5)
    assert crashes([hit], 1, scen) == [True]
    # The same geometry before the cut-in is the follower passing, not
    # contact: the walk ends without visiting it.
    assert visited([hit], scen) == []


def test_termination_step_budget(scen):
    # The walk visits at most max_steps states; a cut-in fired at the last
    # of them still sees the one state after it.
    cfg = dataclasses.replace(scen, max_steps=40)
    s = State(8.0, 500.0, 0.0, 5.0, 0.0)
    walked = list(episode_walk([s], cfg))
    assert len(walked) == cfg.max_steps
    assert walked[-1][0] == 1
    # with no budget left there is nothing to observe
    assert crashes([State(8, 30, -5, -0.2, -5)], 0, scen) == [False]


def test_accident_outranks_step_budget(scen):
    # Contact on the last state the budget allows still counts: a cut-in
    # fired at the final step (one state left) from a squeezed state
    # crashes just as it does with the whole budget.
    squeezed = State(8.0, 30.0, -5.0, 0.3, -5.0)
    assert crashes([squeezed], 1, scen) == [True]
    assert crashes([squeezed], scen.max_steps, scen) == [True]


def test_accident_threshold_uses_vehicle_length(scen):
    # Contact is a bumper gap r2 - vehicle_length at or below d_accid; the
    # cut-in step coasts, so a state 0.5 m further back lands on r2.
    cfg = dataclasses.replace(scen, vehicle_length=4.0, d_accid=0.5)
    near = State(8, 30, -5, 4.4 + 0.5, -5)
    clear = State(8, 30, -5, 4.6 + 0.5, -5)
    assert [ref.step_raw(*s, 0.0, 0.0, cfg.dt).r2 for s in (near, clear)] == \
        pytest.approx([4.4, 4.6])
    assert crashes([near, clear], 1, cfg) == [True, False]


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_cutin_outcome_matches_absolute_position_rollout(scen):
    follower = ref.idm_follower(scen.av_idm)
    rng = np.random.default_rng(5150)
    states = [State(rng.uniform(2.0, 12.0), rng.uniform(5.0, 40.0),
                    rng.uniform(-6.0, 2.0), rng.uniform(0.3, 10.0),
                    rng.uniform(-8.0, 2.0)) for _ in range(200)]
    got = crashes(states, scen.max_steps, scen)
    want = [abs_cutin_crash(*s, follower, scen, scen.max_steps) for s in states]
    assert got == want
    # the box above straddles the crash boundary; both sides must be hit
    assert 0 < sum(got) < 200


def test_cutin_outcome_horizon_zero_means_no_contact_observed(scen):
    # With no post-cut-in states to look at there is nothing to report.
    assert crashes([State(8.0, 30.0, -5.0, 0.3, -5.0)], 0, scen) == [False]


def test_cutin_outcome_agrees_with_run_trajectory(scen):
    # The batched rollout, the scalar rollout and the absolute-position
    # rollout agree for any remaining budget, including none.
    follower = ref.idm_follower(scen.av_idm)
    rng = np.random.default_rng(1984)
    states = [State(rng.uniform(2.0, 12.0), rng.uniform(5.0, 40.0),
                    rng.uniform(-6.0, 2.0), rng.uniform(0.3, 10.0),
                    rng.uniform(-8.0, 2.0)) for _ in range(50)]
    budgets = rng.integers(0, 80, 50)
    got = kernel.cutin_crashes(cols(states), budgets, scen).tolist()
    for s, n, batched in zip(states, budgets.tolist(), got):
        assert batched == ref.cutin_outcome(*s, follower, scen, n)
        assert batched == abs_cutin_crash(*s, follower, scen, n)
    assert 0 < sum(got) < 50


def test_run_trajectory_passed_episode(scen):
    # BV car-follows at about 8, AV closes at 13: the follower passes
    # within about 1 s, and the walk stops at the last state before that.
    s0 = State(8.0, 30.0, -5.0, 5.0, -5.0)
    walked = [t for _, t in visited([s0], scen)]
    assert 1 < len(walked) < scen.max_steps
    assert all(t.r2 >= 0.0 for t in walked)
    last = walked[-1]
    nxt = ref.step_raw(*last, ref.bv_car_following_accel(last, scen), 0.0,
                       scen.dt)
    assert nxt.r2 < 0.0
    # alongside (r2 == 0) is not passed yet: the walk still visits it
    alongside = State(8.0, 30.0, -5.0, 0.0, -5.0)
    assert [t for _, t in visited([alongside], scen)] == [alongside]


def test_run_trajectory_stops_at_budget(scen):
    # LV crawls far ahead, AV far behind: nothing ever happens, and the
    # walk visits exactly max_steps states, with budgets counting down.
    cfg = dataclasses.replace(scen, max_steps=40)
    s0 = State(8.0, 500.0, 0.0, 5.0, 0.0)
    walked = list(episode_walk([s0], cfg))
    assert [left for left, _, _ in walked] == list(range(cfg.max_steps, 0, -1))
    assert all(t.r2 >= 0.0 for _, _, s in walked for t in ref.rows(s))
