"""Challenge values, criticality, and the importance distributions.

The reference values here come from the absolute-position simulators in
conftest.py, which share no update code with the library.
"""
import dataclasses

import numpy as np
import pytest

from overtake_eval.config import ScenarioConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import (
    MobilParams,
    WrongPhase,
    bv_car_following_accel,
    mobil_right_lc_prob,
)
from overtake_eval.scenario import LANE_CHANGE, Action, Phase, ScenarioState

from conftest import (
    abs_cutin_crash,
    abs_no_cutin_walk,
    follow_hazard_recursive,
    grid_state,
)

# Lane-change parameters that light up the hand example: no politeness
# discount, gain 1, permissive safety bound.
HOT_MOBIL = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                        gamma_p=1.0, p_max=0.1)


def random_grid_states(rng, n, box):
    out = []
    for _ in range(n):
        out.append(grid_state(rng.uniform(*box[0]), rng.uniform(*box[1]),
                              rng.uniform(*box[2]), rng.uniform(*box[3]),
                              rng.uniform(*box[4])))
    return out


# ---------------------------------------------------------------------------
# challenge values against the independent simulator
# ---------------------------------------------------------------------------

def test_lane_change_challenge_matches_absolute_rollouts(scen):
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(1001)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    hits = 0
    for s in random_grid_states(rng, 150, box):
        got = ev.challenges(s)[0]
        want = tuple(
            1.0 if abs_cutin_crash(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot,
                                   sm.accel, scen, scen.max_steps) else 0.0
            for sm in scen.surrogates)
        assert got == want
        hits += sum(got)
    assert 0 < hits < 450  # the box straddles the contact boundary


def test_follow_challenge_matches_recursive_enumeration(scen):
    # Shorter horizon keeps the reference enumeration affordable; both
    # sides see the same budget.
    cfg = dataclasses.replace(scen, max_steps=80)
    ev = CriticalityEvaluator(cfg)
    rng = np.random.default_rng(77)
    box = [(4, 12), (4, 20), (-6, 0), (1, 8), (-6, 2)]
    nonzero = 0
    for s in random_grid_states(rng, 40, box):
        got = ev.challenges(s)[1]
        walk = abs_no_cutin_walk(s, cfg)
        for j, sm in enumerate(cfg.surrogates):
            want = follow_hazard_recursive(
                walk,
                lambda t: 1.0 if abs_cutin_crash(
                    t.v_bv, t.r1, t.r1_dot, t.r2, t.r2_dot, sm.accel, cfg,
                    cfg.max_steps) else 0.0,
                cfg)
            assert got[j] == pytest.approx(want, abs=1e-9)
            nonzero += want > 0.0
    assert nonzero > 0  # at least some walks must carry hazard


def test_walk_states_match_library_idm_variant(scen):
    # Sanity on the reference itself: rebuilding the walk with the library's
    # car-following arithmetic instead of the transcription changes nothing
    # beyond float noise.
    cfg = dataclasses.replace(scen, max_steps=80)
    s = grid_state(8.0, 12.0, -3.0, 4.0, -2.0)
    a = abs_no_cutin_walk(s, cfg)
    b = abs_no_cutin_walk(s, cfg, use_library_idm=True)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.r1 == pytest.approx(y.r1, abs=1e-9)
        assert x.r2 == pytest.approx(y.r2, abs=1e-9)


# ---------------------------------------------------------------------------
# hand-worked profile
# ---------------------------------------------------------------------------

def test_profile_hand_example(scen):
    # BV squeezed 0.3 m ahead of a fast follower: the cut-in makes contact
    # on the very next step for every surrogate (r2 drops to -0.2), while
    # staying in lane ends the episode without any cut-in opportunity.
    cfg = dataclasses.replace(scen, mobil=HOT_MOBIL)
    s = grid_state(8.0, 30.0, -5.0, 0.3, -5.0)
    prof = CriticalityEvaluator(cfg).profile(s)

    assert prof.p_lane_change == 0.1  # saturates the cap, see test_models
    assert prof.lane_change_challenge == (1.0, 1.0, 1.0)
    assert prof.follow_challenge == (0.0, 0.0, 0.0)
    assert prof.criticalities == pytest.approx((0.1, 0.1, 0.1), abs=1e-15)
    assert prof.is_critical

    # exposure-weighted mixture: 0.1*0.1 + 0.9*(1*0.1)/0.1 = 0.91 on the
    # lane change, 0.1*0.9 + 0 = 0.09 on following
    for q in prof.q_lane_change:
        assert q == pytest.approx(0.91, abs=1e-12)
    for q in prof.q_follow:
        assert q == pytest.approx(0.09, abs=1e-12)
    assert prof.q_alpha_lane_change == pytest.approx(0.91, abs=1e-12)
    assert prof.q_alpha_follow == pytest.approx(0.09, abs=1e-12)
    assert prof.q_alpha_lane_change + prof.q_alpha_follow == \
        pytest.approx(1.0, abs=1e-12)


def test_profile_exposure_formula_self_consistent(scen):
    # Wherever a surrogate sees hazard, its importance mass follows the
    # floor-plus-tilt law exactly; where it sees none, it reuses the
    # exposure probabilities.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(555)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    eps = scen.epsilon
    checked_tilted = 0
    for s in random_grid_states(rng, 60, box):
        prof = ev.profile(s)
        p_lc = prof.p_lane_change
        p_f = 1.0 - p_lc
        for j in range(3):
            c = prof.criticalities[j]
            assert c == pytest.approx(
                prof.lane_change_challenge[j] * p_lc
                + prof.follow_challenge[j] * p_f, abs=1e-15)
            if c > 0.0:
                want_lc = eps * p_lc + (1 - eps) * \
                    prof.lane_change_challenge[j] * p_lc / c
                want_f = eps * p_f + (1 - eps) * \
                    prof.follow_challenge[j] * p_f / c
                assert prof.q_lane_change[j] == pytest.approx(want_lc, abs=1e-14)
                assert prof.q_follow[j] == pytest.approx(want_f, abs=1e-14)
                checked_tilted += 1
            else:
                assert prof.q_lane_change[j] == p_lc
                assert prof.q_follow[j] == p_f
        assert prof.is_critical == any(c > 0 for c in prof.criticalities)
    assert checked_tilted > 10


def test_noncritical_state_keeps_exposure_distribution(scen):
    # Free flow far behind a distant leader: no hazard, no tilt.
    s = grid_state(8.0, 3000.0, 0.0, 30.0, 0.0)
    prof = CriticalityEvaluator(scen).profile(s)
    assert not prof.is_critical
    assert prof.criticalities == (0.0, 0.0, 0.0)
    nat = prof.naturalistic()
    imp = prof.importance()
    assert imp.entries == nat.entries


def test_profile_rejects_post_cutin_state(scen):
    s = ScenarioState(v_bv=8.0, r1=30.0, r1_dot=-5.0, r2=5.0, r2_dot=-5.0,
                      phase=Phase.AFTER_CUT_IN)
    with pytest.raises(WrongPhase):
        CriticalityEvaluator(scen).profile(s)


def test_profile_density_accounting(scen):
    # Importance mass is a probability distribution absolutely continuous
    # w.r.t. exposure, with the epsilon floor intact.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(31415)
    box = [(2, 14), (2, 40), (-8, 2), (0.5, 10), (-8, 2)]
    for s in random_grid_states(rng, 120, box):
        prof = ev.profile(s)
        nat = prof.naturalistic()
        for j in range(3):
            qd = prof.surrogate_importance(j)
            assert qd.total() == pytest.approx(1.0, abs=1e-12)
            for a in nat.support():
                assert qd.prob(a) >= scen.epsilon * nat.prob(a) - 1e-15
        mix = prof.importance()
        assert mix.total() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# caching and state snapping
# ---------------------------------------------------------------------------

def test_challenges_shared_within_resolution_cell(scen):
    ev = CriticalityEvaluator(scen)
    a = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    b = ScenarioState(v_bv=8.04, r1=9.96, r1_dot=-3.04, r2=2.04, r2_dot=-3.96,
                      phase=Phase.BEFORE_CUT_IN)
    assert ev.challenges(a) is ev.challenges(b)  # same cache entry


def test_exposure_probability_not_snapped(scen):
    # Challenges are looked up per cell, but the per-state lane-change
    # probability stays exact.
    cfg = dataclasses.replace(scen, mobil=MobilParams(
        politeness=0.0, delta_a_th=0.1, b_safe=5.0, gamma_p=0.011, p_max=0.5))
    ev = CriticalityEvaluator(cfg)
    a = ScenarioState(v_bv=8.0, r1=10.0, r1_dot=-3.0, r2=2.0, r2_dot=-4.0,
                      phase=Phase.BEFORE_CUT_IN)
    b = ScenarioState(v_bv=8.0, r1=9.98, r1_dot=-3.0, r2=2.0, r2_dot=-4.0,
                      phase=Phase.BEFORE_CUT_IN)
    pa = ev.profile(a).p_lane_change
    pb = ev.profile(b).p_lane_change
    assert pa == mobil_right_lc_prob(a, cfg.mobil, cfg.bv_idm)
    assert pb == mobil_right_lc_prob(b, cfg.mobil, cfg.bv_idm)
    assert pa != pb


def test_evaluation_order_does_not_change_results(scen):
    rng = np.random.default_rng(9021)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    states = random_grid_states(rng, 30, box)
    fwd = CriticalityEvaluator(scen)
    rev = CriticalityEvaluator(scen)
    got_fwd = [fwd.challenges(s) for s in states]
    got_rev = [rev.challenges(s) for s in reversed(states)][::-1]
    assert got_fwd == got_rev


# ---------------------------------------------------------------------------
# per-surrogate views of a profile
# ---------------------------------------------------------------------------

def test_maneuver_challenge_selects_action_component(scen):
    # The profile carries the cached challenges per surrogate and hands out
    # the densities of whichever action was drawn.
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    lc, fol = ev.challenges(s)
    prof = ev.profile(s)
    assert prof.lane_change_challenge == lc
    assert prof.follow_challenge == fol
    assert prof.components(LANE_CHANGE) == (
        prof.p_lane_change, prof.q_alpha_lane_change, prof.q_lane_change)
    assert prof.components(Action.accel(0.7)) == (
        1.0 - prof.p_lane_change, prof.q_alpha_follow, prof.q_follow)


def test_criticality_combines_challenges_with_exposure(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    lc, fol = ev.challenges(s)
    p = mobil_right_lc_prob(s, scen.mobil, scen.bv_idm, scen.vehicle_length)
    prof = ev.profile(s)
    for j in range(len(scen.surrogates)):
        assert prof.criticalities[j] == pytest.approx(
            lc[j] * p + fol[j] * (1 - p), abs=1e-15)


def test_importance_fn_matches_profile(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    prof = ev.profile(s)
    follow = Action.accel(bv_car_following_accel(s, scen))
    assert prof.follow_action == follow
    for j in range(len(scen.surrogates)):
        q = prof.surrogate_importance(j)
        assert q.prob(LANE_CHANGE) == prof.q_lane_change[j]
        assert q.prob(follow) == prof.q_follow[j]
    mix = prof.importance()
    assert mix.prob(LANE_CHANGE) == prof.q_alpha_lane_change
    assert mix.prob(follow) == prof.q_alpha_follow
    assert mix.support() == [LANE_CHANGE, follow]


def test_out_of_panel_surrogate_gets_own_panel(scen):
    # A surrogate's challenges do not depend on the rest of its panel: alone
    # or appended to the configured panel, it scores a state the same.
    custom = dataclasses.replace(scen.surrogates[0], name="idm_soft")
    custom = dataclasses.replace(
        custom, idm=dataclasses.replace(custom.idm, hard_decel=2.0))
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    solo = CriticalityEvaluator(dataclasses.replace(scen, surrogates=(custom,)))
    wide = CriticalityEvaluator(dataclasses.replace(
        scen, surrogates=scen.surrogates + (custom,)))
    lc_solo, fol_solo = solo.challenges(s)
    lc_wide, fol_wide = wide.challenges(s)
    assert (lc_solo[0], fol_solo[0]) == (lc_wide[-1], fol_wide[-1])
    assert lc_wide[:-1] == CriticalityEvaluator(scen).challenges(s)[0]


def test_surrogates_disagree_somewhere(scen):
    # The panel only earns its keep if its members label some cut-in
    # differently; scan until one mixed verdict appears.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(2718)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    for s in random_grid_states(rng, 300, box):
        lc = ev.challenges(s)[0]
        if 0.0 < sum(lc) < 3.0:
            return
    pytest.fail("no state found where the surrogate panel disagrees")
