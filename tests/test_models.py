"""Car-following models, the stochastic lane-change model, and the
behaviour distribution built from them."""
import math

import numpy as np
import pytest

from overtake_eval.models import (
    ActionDistribution,
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    WrongPhase,
    ZeroDensity,
    bv_car_following_accel,
    default_surrogates,
    fvdm_accel,
    fvdm_opt_velocity,
    idm_accel,
    idm_accel_raw,
    idm_follower,
    mobil_right_lc_prob,
)
from overtake_eval import kernel
from overtake_eval.scenario import LANE_CHANGE, Action, Phase, ScenarioState

from conftest import idm_ref

BV_IDM = IdmParams()  # v0=15, T=1, a=2, b=2, s0=2, delta=4


def mk(v_bv, r1, r1_dot, r2, r2_dot, phase=Phase.BEFORE_CUT_IN):
    return ScenarioState(v_bv=v_bv, r1=r1, r1_dot=r1_dot, r2=r2,
                         r2_dot=r2_dot, phase=phase)


# ---------------------------------------------------------------------------
# IDM
# ---------------------------------------------------------------------------

def test_idm_equilibrium_at_free_speed():
    # At v = v0 with an empty road both terms vanish.
    assert idm_accel(15.0, math.inf, 0.0, BV_IDM) == 0.0


def test_idm_speed_matched_pair():
    # v=8, gap=10, dv=0: s* = 2 + 8*1 = 10, so the gap term is exactly 1 and
    # a = -2 * (8/15)^4 = -2*4096/50625.
    a = idm_accel(8.0, 10.0, 0.0, BV_IDM)
    assert a == pytest.approx(-2.0 * 4096.0 / 50625.0, rel=1e-14)


def test_idm_hard_braking_clipped():
    # closing fast onto a tiny gap: s* = 2 + 13 + 13*5/4 = 31.25 and the raw
    # demand is around -2.1e4; the command saturates at the braking limit
    raw = idm_accel_raw(13.0, 0.5, 5.0, BV_IDM)
    assert raw < -100.0
    assert idm_accel(13.0, 0.5, 5.0, BV_IDM) == -4.0


def test_idm_acceleration_capped_at_a_max():
    assert idm_accel(0.0, math.inf, 0.0, BV_IDM) == pytest.approx(2.0)


def test_idm_rejects_contact():
    with pytest.raises(NonPositiveGap):
        idm_accel(5.0, 0.0, 0.0, BV_IDM)
    with pytest.raises(NonPositiveGap):
        idm_accel_raw(5.0, -1.0, 0.0, BV_IDM)


def test_idm_matches_reference_transcription():
    rng = np.random.default_rng(8128)
    for _ in range(500):
        v = rng.uniform(0.0, 20.0)
        gap = rng.uniform(0.05, 80.0)
        dv = rng.uniform(-10.0, 10.0)
        assert idm_accel(v, gap, dv, BV_IDM) == pytest.approx(
            idm_ref(v, gap, dv, BV_IDM), rel=1e-12, abs=1e-12)


def test_idm_follower_binds_parameters():
    f = idm_follower(BV_IDM)
    assert f(8.0, 10.0, 0.0) == idm_accel(8.0, 10.0, 0.0, BV_IDM)


# ---------------------------------------------------------------------------
# FVDM
# ---------------------------------------------------------------------------

def test_fvdm_optimal_velocity_examples():
    p = FvdmParams()  # v_cap=15, b_f=10, c_f=2
    # gap = 2*b_f makes the first tanh vanish
    assert fvdm_opt_velocity(20.0, p) == pytest.approx(7.5 * math.tanh(2.0),
                                                       rel=1e-14)
    # very large gap: both tanh terms saturate near 1 + tanh(2)
    assert fvdm_opt_velocity(1e6, p) == pytest.approx(
        7.5 * (1.0 + math.tanh(2.0)), rel=1e-12)


def test_fvdm_accel_example():
    p = FvdmParams()  # kappa=2, lam=0.5, hard limits 4/4
    v_opt = 7.5 * math.tanh(2.0)
    a = fvdm_accel(7.0, 20.0, -1.0, p)
    assert a == pytest.approx(2.0 * (v_opt - 7.0) + 0.5, rel=1e-12)


def test_fvdm_accel_clipped_both_ways():
    p = FvdmParams()
    # slow car, big gap, opening: relaxation demand exceeds the accel limit
    assert fvdm_accel(5.0, 20.0, -1.0, p) == 4.0
    # fast car, tiny gap, closing hard
    assert fvdm_accel(14.0, 0.5, 8.0, p) == -4.0


def test_fvdm_rejects_contact():
    with pytest.raises(NonPositiveGap):
        fvdm_accel(5.0, 0.0, 0.0, FvdmParams())


# ---------------------------------------------------------------------------
# surrogate panel
# ---------------------------------------------------------------------------

def test_default_surrogate_panel():
    panel = default_surrogates()
    assert [sm.name for sm in panel] == ["idm", "fvdm1", "fvdm2"]
    assert [sm.kind for sm in panel] == ["idm", "fvdm", "fvdm"]
    assert panel[0].idm.hard_decel == 3.8
    assert panel[1].fvdm.kappa == 2.0 and panel[1].fvdm.hard_decel == 3.4
    assert panel[2].fvdm.kappa == 6.0 and panel[2].fvdm.hard_decel == 4.6


def test_surrogate_accel_dispatch():
    panel = default_surrogates()
    assert panel[0].accel(8.0, 10.0, 0.0) == idm_accel(8.0, 10.0, 0.0,
                                                       panel[0].idm)
    assert panel[1].accel(7.0, 20.0, -1.0) == fvdm_accel(7.0, 20.0, -1.0,
                                                         panel[1].fvdm)


# ---------------------------------------------------------------------------
# stochastic lane-change probability
# ---------------------------------------------------------------------------

# Hand-worked point used throughout: v_bv=8, r1=30 (so dv=5 against the
# leader), follower 0.3 m behind at 13 m/s.
HAND_STATE = (8.0, 30.0, -5.0, 0.3, -5.0)


def test_lc_prob_incentive_saturates_at_p_max():
    # politeness=0 makes the incentive a_free - a_follow - threshold:
    # a_free - a_follow = 2*(20/30)^2 = 8/9, minus 0.1 leaves ~0.789, and
    # gain 1.0 pushes the probability onto the cap.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    assert mobil_right_lc_prob(mk(*HAND_STATE), mob, BV_IDM) == 0.1


def test_lc_prob_linear_in_gain_below_cap():
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=0.01, p_max=0.1)
    p = mobil_right_lc_prob(mk(*HAND_STATE), mob, BV_IDM)
    assert p == pytest.approx(0.01 * (8.0 / 9.0 - 0.1), rel=1e-12)


def test_lc_prob_safety_veto():
    # The follower would need its full -4 braking authority, which violates
    # a 3 m/s^2 comfort bound.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=3.0,
                      gamma_p=1.0, p_max=0.1)
    assert mobil_right_lc_prob(mk(*HAND_STATE), mob, BV_IDM) == 0.0


def test_lc_prob_zero_when_follower_alongside():
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    s = mk(8.0, 30.0, -5.0, 0.0, -5.0)  # zero gap to the follower
    assert mobil_right_lc_prob(s, mob, BV_IDM) == 0.0


def test_lc_prob_zero_without_incentive():
    # Already at free flow: changing lane gains nothing.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    s = mk(8.0, 3000.0, 0.0, 30.0, 0.0)
    assert mobil_right_lc_prob(s, mob, BV_IDM) == 0.0


def test_lc_prob_politeness_discounts_follower_braking():
    # The raw (unclipped) follower demand enters the weighted incentive, so
    # a tiny politeness wipes out the gain at this squeeze.
    mob = MobilParams(politeness=0.01, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    assert mobil_right_lc_prob(mk(*HAND_STATE), mob, BV_IDM) == 0.0


def test_lc_prob_bounded_everywhere():
    mob = MobilParams()
    rng = np.random.default_rng(424242)
    for _ in range(500):
        s = mk(rng.uniform(0, 20), rng.uniform(0.2, 60), rng.uniform(-12, 6),
               rng.uniform(0.2, 12), rng.uniform(-12, 6))
        p = mobil_right_lc_prob(s, mob, BV_IDM)
        assert 0.0 <= p <= mob.p_max


# ---------------------------------------------------------------------------
# behaviour distribution
# ---------------------------------------------------------------------------

# The naturalistic law is two atoms: cut in with probability p_R, else
# follow the LV.  The lockstep kernel evaluates both and cuts in iff the
# step's uniform is below p_R.

def kernel_cols(s):
    return [np.array([x]) for x in s.raw()]


def test_nde_action_dist_two_atoms(scen):
    s = mk(8.0, 30.0, -5.0, 5.0, -5.0)
    p_lc = mobil_right_lc_prob(s, scen.mobil, scen.bv_idm,
                               scen.vehicle_length)
    assert p_lc > 0.0
    cols = kernel_cols(s)
    assert kernel.mobil_right_lc_prob(cols, scen.mobil, scen.bv_idm,
                                      scen.vehicle_length)[0] == p_lc
    assert kernel.idm_accel(cols[0], cols[1] - scen.vehicle_length, -cols[2],
                            scen.bv_idm)[0] == bv_car_following_accel(s, scen)
    # "u < p_R" draws the same atom as sampling the two-atom law, for
    # any p_R including the rounding of 1 - p_R and the endpoints
    follow = Action.accel(bv_car_following_accel(s, scen))
    for p in (p_lc, 0.0, 0.3, float(np.nextafter(1.0, 0.0)), 1.0):
        dist = ActionDistribution.from_pairs([(LANE_CHANGE, p),
                                              (follow, 1.0 - p)])
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(300):
            assert (dist.sample(a) == LANE_CHANGE) == (b.random() < p)


def test_nde_action_dist_drops_impossible_lane_change(scen):
    s = mk(8.0, 3000.0, 0.0, 30.0, 0.0)  # no incentive at free flow
    p_r = kernel.mobil_right_lc_prob(kernel_cols(s), scen.mobil, scen.bv_idm,
                                     scen.vehicle_length)
    assert p_r.tolist() == [0.0]
    # even the smallest uniform never fires a cut-in
    cut = kernel.walk(kernel_cols(s), scen,
                      lambda k, rows, p_r: 0.0 < p_r, stay=False)
    assert cut.rows.size == 0


def test_nde_action_dist_rejects_post_cutin_state(scen):
    # the lane-change law is a pre-cut-in quantity
    s = mk(8.0, 30.0, -5.0, 5.0, -5.0, phase=Phase.AFTER_CUT_IN)
    with pytest.raises(WrongPhase):
        mobil_right_lc_prob(s, scen.mobil, scen.bv_idm, scen.vehicle_length)


def test_distribution_from_pairs_drops_nonpositive_mass():
    a, b, c = Action.accel(1.0), Action.accel(2.0), Action.accel(3.0)
    d = ActionDistribution.from_pairs([(a, 0.3), (b, 0.0), (c, -0.1)])
    assert d.support() == [a]
    assert d.prob(b) == 0.0


def test_distribution_sampling_is_seed_deterministic():
    d = ActionDistribution.from_pairs([(LANE_CHANGE, 0.1),
                                       (Action.accel(1.0), 0.9)])
    draws1 = [d.sample(np.random.default_rng(37)) for _ in range(20)]
    draws2 = [d.sample(np.random.default_rng(37)) for _ in range(20)]
    assert draws1 == draws2


def test_distribution_sampling_frequencies():
    d = ActionDistribution.from_pairs([(LANE_CHANGE, 0.1),
                                       (Action.accel(1.0), 0.9)])
    rng = np.random.default_rng(11)
    n = 4000
    hits = sum(d.sample(rng) == LANE_CHANGE for _ in range(n))
    # 3.5 sigma around 0.1 with sigma = sqrt(.1*.9/4000) ~ 0.0047
    assert abs(hits / n - 0.1) < 3.5 * math.sqrt(0.1 * 0.9 / n)


def test_distribution_sampling_empty_support():
    d = ActionDistribution.from_pairs([(LANE_CHANGE, 0.0)])
    with pytest.raises(ZeroDensity):
        d.sample(np.random.default_rng(0))


def test_distribution_mixture():
    a, b = LANE_CHANGE, Action.accel(1.0)
    d1 = ActionDistribution.from_pairs([(a, 0.2), (b, 0.8)])
    d2 = ActionDistribution.from_pairs([(a, 0.6), (b, 0.4)])
    mix = ActionDistribution.mixture([d1, d2], [0.5, 0.5])
    assert mix.prob(a) == pytest.approx(0.4, abs=1e-15)
    assert mix.prob(b) == pytest.approx(0.6, abs=1e-15)
    assert mix.total() == pytest.approx(1.0, abs=1e-15)
