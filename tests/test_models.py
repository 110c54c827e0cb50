"""Car-following models, the stochastic lane-change model, and the
two-atom behaviour law built from them."""
import math

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import kernel
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import (
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    SurrogateModel,
    ZeroDensity,
    default_surrogates,
)
from overtake_eval.sampling import draws_lane_change

from conftest import grid_state, idm_ref, profile

BV_IDM = IdmParams()  # v0=15, T=1, a=2, b=2, s0=2, delta=4


def one(fn, *args):
    """Evaluate an array function of the kernel on one row."""
    arrays = [np.array([a], dtype=float) if isinstance(a, (int, float)) else a
              for a in args]
    return float(fn(*arrays)[0])


def idm_accel(v, gap, dv, p):
    return one(lambda *a: kernel.idm_accel(*a, p), v, gap, dv)


def idm_accel_raw(v, gap, dv, p):
    return one(lambda *a: kernel.idm_accel_raw(*a, p), v, gap, dv)


def fvdm_accel(v, gap, dv, p):
    return one(lambda *a: kernel.fvdm_accel(*a, p), v, gap, dv)


def follow_accel(s, idm=BV_IDM, length=0.0):
    """The BV's IDM response to the LV: MOBIL's "old" acceleration."""
    return kernel.idm_accel(s[0], s[1] - length, -s[2], idm)


def lc_prob(state, mob, idm=BV_IDM, length=0.0):
    s = ref.cols([state])
    return float(kernel.mobil_right_lc_prob(
        s, follow_accel(s, idm, length), kernel.idm_free_road(s[0], idm), mob,
        idm, length)[0])


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
    v = rng.uniform(0.0, 20.0, 500)
    gap = rng.uniform(0.05, 80.0, 500)
    dv = rng.uniform(-10.0, 10.0, 500)
    got = kernel.idm_accel(v, gap, dv, BV_IDM).tolist()
    for a, x, y, z in zip(got, v.tolist(), gap.tolist(), dv.tolist()):
        assert a == pytest.approx(idm_ref(x, y, z, BV_IDM), rel=1e-12, abs=1e-12)


def test_idm_follower_binds_parameters(scen):
    # An IDM surrogate drives the follower with its own parameters; with the
    # tested vehicle's, it is the tested vehicle.
    f = kernel.surrogate_accel(SurrogateModel("x", "idm", idm=BV_IDM))
    assert one(f, 8.0, 10.0, 0.0) == idm_accel(8.0, 10.0, 0.0, BV_IDM)
    rng = np.random.default_rng(12)
    s = [rng.uniform(2.0, 12.0, 200), rng.uniform(5.0, 40.0, 200),
         rng.uniform(-6.0, 2.0, 200), rng.uniform(0.3, 10.0, 200),
         rng.uniform(-8.0, 2.0, 200)]
    budget = np.full(200, scen.max_steps)
    av = kernel.surrogate_accel(SurrogateModel("av", "idm", idm=scen.av_idm))
    assert (kernel.cutin_crashes(s, budget, scen, av)
            == kernel.cutin_crashes(s, budget, scen)).all()


# ---------------------------------------------------------------------------
# FVDM
# ---------------------------------------------------------------------------

def test_fvdm_optimal_velocity_examples():
    p = FvdmParams()  # v_cap=15, b_f=10, c_f=2
    v_opt = kernel.fvdm_opt_velocity(np.array([20.0, 1e6]), p).tolist()
    # gap = 2*b_f makes the first tanh vanish
    assert v_opt[0] == pytest.approx(7.5 * math.tanh(2.0), rel=1e-14)
    # very large gap: both tanh terms saturate near 1 + tanh(2)
    assert v_opt[1] == pytest.approx(7.5 * (1.0 + math.tanh(2.0)), rel=1e-12)


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
    assert one(kernel.surrogate_accel(panel[0]), 8.0, 10.0, 0.0) == \
        idm_accel(8.0, 10.0, 0.0, panel[0].idm)
    assert one(kernel.surrogate_accel(panel[1]), 7.0, 20.0, -1.0) == \
        fvdm_accel(7.0, 20.0, -1.0, panel[1].fvdm)
    with pytest.raises(ValueError):
        kernel.surrogate_accel(SurrogateModel("x", "gipps"))


# ---------------------------------------------------------------------------
# stochastic lane-change probability
# ---------------------------------------------------------------------------

# Hand-worked point used throughout: v_bv=8, r1=30 (so dv=5 against the
# leader), follower 0.3 m behind at 13 m/s.
HAND_STATE = ref.State(8.0, 30.0, -5.0, 0.3, -5.0)


def test_lc_prob_incentive_saturates_at_p_max():
    # politeness=0 makes the incentive a_free - a_follow - threshold:
    # a_free - a_follow = 2*(20/30)^2 = 8/9, minus 0.1 leaves ~0.789, and
    # gain 1.0 pushes the probability onto the cap.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    assert lc_prob(HAND_STATE, mob) == 0.1


def test_lc_prob_linear_in_gain_below_cap():
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=0.01, p_max=0.1)
    p = lc_prob(HAND_STATE, mob)
    assert p == pytest.approx(0.01 * (8.0 / 9.0 - 0.1), rel=1e-12)


def test_lc_prob_safety_veto():
    # The follower would need its full -4 braking authority, which violates
    # a 3 m/s^2 comfort bound.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=3.0,
                      gamma_p=1.0, p_max=0.1)
    assert lc_prob(HAND_STATE, mob) == 0.0


def test_lc_prob_zero_when_follower_alongside():
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    s = ref.State(8.0, 30.0, -5.0, 0.0, -5.0)  # zero gap to the follower
    assert lc_prob(s, mob) == 0.0


def test_lc_prob_zero_without_incentive():
    # Already at free flow: changing lane gains nothing.
    mob = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    s = ref.State(8.0, 3000.0, 0.0, 30.0, 0.0)
    assert lc_prob(s, mob) == 0.0


def test_lc_prob_politeness_discounts_follower_braking():
    # The raw (unclipped) follower demand enters the weighted incentive, so
    # a tiny politeness wipes out the gain at this squeeze.
    mob = MobilParams(politeness=0.01, delta_a_th=0.1, b_safe=5.0,
                      gamma_p=1.0, p_max=0.1)
    assert lc_prob(HAND_STATE, mob) == 0.0


def test_lc_prob_bounded_everywhere():
    mob = MobilParams()
    rng = np.random.default_rng(424242)
    s = [rng.uniform(0, 20, 500), rng.uniform(0.2, 60, 500),
         rng.uniform(-12, 6, 500), rng.uniform(0.2, 12, 500),
         rng.uniform(-12, 6, 500)]
    p = kernel.mobil_right_lc_prob(s, follow_accel(s),
                                   kernel.idm_free_road(s[0], BV_IDM), mob,
                                   BV_IDM, 0.0)
    assert ((0.0 <= p) & (p <= mob.p_max)).all()


# ---------------------------------------------------------------------------
# the two-atom behaviour law
# ---------------------------------------------------------------------------

# Before the cut-in the BV's law is two atoms: cut in, or follow the LV.
# Both samplers draw an episode's step from one uniform with
# ``draws_lane_change``; ``scalar_reference.ActionDistribution`` is the
# inverse-CDF sampler it must agree with.

def _scalar_draws(u, m_lc, m_f):
    """Lane change or not, per row, from the scalar law with the given
    uniforms."""
    class Fixed:
        def __init__(self, x):
            self.x = x

        def random(self):
            return self.x

    return [ref.ActionDistribution.from_pairs(
        [(ref.LANE_CHANGE, a), ("follow", b)]).sample(Fixed(x)) == ref.LANE_CHANGE
        for x, a, b in zip(u, m_lc, m_f)]


def test_nde_action_dist_two_atoms(scen):
    s = ref.State(8.0, 30.0, -5.0, 5.0, -5.0)
    p_lc = ref.mobil_right_lc_prob(s, scen.mobil, scen.bv_idm,
                                   scen.vehicle_length)
    assert p_lc > 0.0
    _, _, p_r = next(kernel.no_cutin_walk(ref.cols([s]), scen))
    assert p_r.tolist() == [p_lc]
    # "u < p_R" draws the same atom as sampling the two-atom law, for
    # any p_R including the rounding of 1 - p_R and the endpoints
    for p in (p_lc, 0.0, 0.3, float(np.nextafter(1.0, 0.0)), 1.0):
        u = np.random.default_rng(5).random(300)
        m = np.full(300, p)
        assert draws_lane_change(u, m, 1.0 - m).tolist() == \
            _scalar_draws(u.tolist(), m.tolist(), (1.0 - m).tolist())
        assert draws_lane_change(u, m, 1.0 - m).tolist() == (u < p).tolist()


def test_nde_action_dist_drops_impossible_lane_change(scen):
    s = ref.State(8.0, 3000.0, 0.0, 30.0, 0.0)  # no incentive at free flow
    _, _, p_r = next(kernel.no_cutin_walk(ref.cols([s]), scen))
    assert p_r.tolist() == [0.0]
    # even the smallest uniform never fires a cut-in
    assert not draws_lane_change(np.zeros(1), p_r, 1.0 - p_r).any()


def test_distribution_from_pairs_drops_nonpositive_mass():
    # An atom without positive mass is never drawn, whatever the uniform.
    u = np.linspace(0.0, 1.0, 101, endpoint=False)
    zero, neg = np.zeros(101), np.full(101, -0.1)
    assert not draws_lane_change(u, zero, np.ones(101)).any()
    assert not draws_lane_change(u, neg, np.full(101, 1.1)).any()
    assert draws_lane_change(u, np.ones(101), zero).all()


def test_distribution_sampling_is_seed_deterministic():
    # On any masses, including the fallback of a law whose follow atom has
    # no mass (the lane change is drawn even above its own mass), the draw
    # is the scalar inverse-CDF draw with the same uniform.
    rng = np.random.default_rng(37)
    n = 2000
    u = rng.random(n)
    m_lc = rng.choice([0.0, 0.05, 0.3, 0.7, 1.0], n)
    m_f = rng.choice([0.0, 0.2, 0.95, 1.0], n)
    m_f[m_lc == 0.0] = np.maximum(m_f[m_lc == 0.0], 0.2)  # never empty
    got = draws_lane_change(u, m_lc, m_f).tolist()
    assert got == _scalar_draws(u.tolist(), m_lc.tolist(), m_f.tolist())
    fallback = (m_f == 0.0) & (u >= m_lc)
    assert fallback.any() and all(g for g, f in zip(got, fallback) if f)


def test_distribution_sampling_frequencies():
    rng = np.random.default_rng(11)
    n = 4000
    hits = draws_lane_change(rng.random(n), np.full(n, 0.1), np.full(n, 0.9))
    # 3.5 sigma around 0.1 with sigma = sqrt(.1*.9/4000) ~ 0.0047
    assert abs(hits.mean() - 0.1) < 3.5 * math.sqrt(0.1 * 0.9 / n)


def test_distribution_sampling_empty_support():
    with pytest.raises(ZeroDensity):
        _scalar_draws([0.5], [0.0], [0.0])
    for m in (0.0, math.nan):
        with pytest.raises(ZeroDensity):
            draws_lane_change(np.array([0.5, 0.5]), np.array([0.3, m]),
                              np.array([0.7, m]))


def test_distribution_mixture(scen):
    # The sampler's importance law is the equal-weight mixture of the
    # per-surrogate laws.
    ev = CriticalityEvaluator(scen)
    states = [grid_state(8.0, 10.0, -3.0, 2.0, -4.0),
              grid_state(6.0, 14.0, -4.0, 3.0, -5.0)]
    prof = profile(ev, ref.cols(states))
    assert prof.is_critical.all()
    for i in range(len(states)):
        dists = [ref.ActionDistribution.from_pairs(
            [(ref.LANE_CHANGE, prof.q[0, j, i]), ("follow", prof.q[1, j, i])])
            for j in range(len(scen.surrogates))]
        mix = ref.ActionDistribution.mixture(dists, [1.0 / 3] * 3)
        assert mix.prob(ref.LANE_CHANGE) == pytest.approx(
            prof.q_alpha[0, i], abs=1e-15)
        assert mix.prob("follow") == pytest.approx(prof.q_alpha[1, i],
                                                   abs=1e-15)
        assert mix.total() == pytest.approx(1.0, abs=1e-15)
