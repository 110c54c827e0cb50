"""The lockstep array kernel against the scalar code it replaced.

The reference samplers and oracle below are copies of the per-episode,
per-bin scalar implementations the kernel superseded.  They are kept here
so that the batched paths can be required to reproduce them exactly:
same records, same critical logs, same oracle value, same errors.
"""
import dataclasses

import numpy as np
import pytest

from overtake_eval import kernel
from overtake_eval.config import ScenarioConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import (
    ActionDistribution,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    ZeroDensity,
    bv_car_following_accel,
    idm_accel,
    idm_accel_raw,
    idm_follower,
    mobil_right_lc_prob,
)
from overtake_eval.oracle import bin_midpoints, brute_force_mu
from overtake_eval.sampling import (
    ENV_NADE,
    ENV_NDE,
    NDE_BLOCK,
    CriticalMoment,
    TestRecord,
    episode_seed,
    sample_initial_state,
    sample_nade_batch,
    sample_nde_batch,
)
from overtake_eval.scenario import (
    LANE_CHANGE,
    Action,
    Phase,
    ScenarioState,
    Termination,
    check_termination,
    cutin_outcome,
    step_raw,
)

# Small step budget (MAX_STEPS endings, truncated cut-in rollouts), a
# physical vehicle length and accident margin, and a lane-change law hot
# enough that most episodes cut in.
STRESSED = dataclasses.replace(
    ScenarioConfig(), vehicle_length=1.0, d_accid=0.5, max_steps=10,
    mobil=MobilParams(gamma_p=0.2, p_max=0.5))
# The follower starts 20 m back: episodes walk past the first block of
# per-step uniforms drawn from their generators.
LONG = dataclasses.replace(
    ScenarioConfig(), init=dataclasses.replace(ScenarioConfig().init, r2=20.0))
CONFIGS = {"default": ScenarioConfig(), "stressed": STRESSED, "long": LONG}


# ---------------------------------------------------------------------------
# scalar reference implementations
# ---------------------------------------------------------------------------

def _ref_advance(s, a_bv, cfg):
    raw = step_raw(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot, a_bv, 0.0, cfg.dt)
    return ScenarioState(*raw, phase=Phase.BEFORE_CUT_IN)


def _ref_resolve_cutin(s, step_index, cfg):
    crashed = cutin_outcome(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot,
                            idm_follower(cfg.av_idm), cfg,
                            cfg.max_steps - step_index)
    return 1 if crashed else 0


def _ref_nde_action_dist(s, cfg):
    p_r = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
    accel = Action.accel(bv_car_following_accel(s, cfg))
    return ActionDistribution.from_pairs([(LANE_CHANGE, p_r),
                                          (accel, 1.0 - p_r)])


def _ref_nde_episode(rng, cfg, index, seed):
    """Returns the record, how the episode ended and at which step."""
    s = sample_initial_state(rng, cfg)
    k = 0
    accident = 0
    while True:
        end = check_termination(s, k, cfg)
        if end is not None:
            break
        a = _ref_nde_action_dist(s, cfg).sample(rng)
        if a.is_lane_change():
            accident = _ref_resolve_cutin(s, k, cfg)
            end = "cut_in"
            break
        s = _ref_advance(s, a.a, cfg)
        k += 1
    return TestRecord(index=index, seed=seed, env=ENV_NDE,
                      accident=accident, weight=1.0), end, k


def _ref_nde_batch(root_seed, cfg, n, start=0):
    out = []
    for i in range(start, start + n):
        seed = episode_seed(root_seed, ENV_NDE, i)
        out.append(_ref_nde_episode(np.random.default_rng(seed), cfg, i, seed))
    return out


def _ref_nade_episode(rng, cfg, evaluator, max_control_steps, index, seed):
    s = sample_initial_state(rng, cfg)
    k = 0
    accident = 0
    weight = 1.0
    log = []
    while True:
        if check_termination(s, k, cfg) is not None:
            break
        prof = evaluator.profile(s)
        if prof.is_critical and len(log) < max_control_steps:
            a = prof.importance().sample(rng)
            p_a, q_a, q_js = prof.components(a)
            if q_a <= 0.0:
                raise ZeroDensity("zero mixture density")
            weight *= p_a / q_a
            log.append(CriticalMoment(p=p_a, q_alpha=q_a, q=q_js,
                                      step=k, action=a))
        else:
            a = prof.naturalistic().sample(rng)
        if a.is_lane_change():
            accident = _ref_resolve_cutin(s, k, cfg)
            break
        s = _ref_advance(s, a.a, cfg)
        k += 1
    return TestRecord(index=index, seed=seed, env=ENV_NADE,
                      accident=accident, weight=weight,
                      critical_log=tuple(log))


def _ref_nade_batch(root_seed, cfg, n, evaluator, max_control_steps=10):
    out = []
    for i in range(n):
        seed = episode_seed(root_seed, ENV_NADE, i)
        out.append(_ref_nade_episode(np.random.default_rng(seed), cfg,
                                     evaluator, max_control_steps, i, seed))
    return out


def _ref_conditional_mu(r1, cfg):
    init = cfg.init
    s = ScenarioState(v_bv=init.v_bv, r1=r1, r1_dot=init.r1_dot,
                      r2=init.r2, r2_dot=init.r2_dot)
    follower = idm_follower(cfg.av_idm)
    mu = 0.0
    survive = 1.0
    k = 0
    while check_termination(s, k, cfg) is None:
        p_r = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        if p_r > 0.0:
            if cutin_outcome(s.v_bv, s.r1, s.r1_dot, s.r2, s.r2_dot,
                             follower, cfg, cfg.max_steps - k):
                mu += survive * p_r
            survive *= 1.0 - p_r
        a_bv = idm_accel(s.v_bv, s.r1 - cfg.vehicle_length, -s.r1_dot,
                         cfg.bv_idm)
        s = _ref_advance(s, a_bv, cfg)
        k += 1
    return mu


def _ref_brute_force_mu(cfg, bins):
    mids = bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, bins)
    return sum(_ref_conditional_mu(r, cfg) for r in mids) / bins


# ---------------------------------------------------------------------------
# array forms against scalar forms
# ---------------------------------------------------------------------------

def _random_states(rng, n):
    cols = [rng.uniform(0.0, 20.0, n), rng.uniform(-1.0, 60.0, n),
            rng.uniform(-12.0, 6.0, n), rng.uniform(-1.0, 12.0, n),
            rng.uniform(-12.0, 6.0, n)]
    # exact zeros and a snapped grid exercise ties in every comparison
    cols[1][:50] = 0.5
    cols[3][50:100] = 0.5
    cols[4][100:150] = 0.0
    cols = [np.where(np.arange(n) % 7 == 0, np.round(c * 10.0) / 10.0, c)
            for c in cols]
    return cols


def test_array_forms_match_scalar_forms_bit_for_bit():
    rng = np.random.default_rng(271828)
    n = 6000
    s = _random_states(rng, n)
    # the scalar forms get Python floats, as in the library
    v_bv, r1, r1_dot, r2, r2_dot = (c.tolist() for c in s)
    p = IdmParams()
    a_bv = rng.uniform(-4.0, 2.0, n)
    a_av = rng.uniform(-4.0, 2.0, n)
    gap = np.where(s[1] > 0.0, s[1], 0.25)

    raw = kernel.idm_accel_raw(s[0], gap, -s[2], p).tolist()
    clipped = kernel.idm_accel(s[0], gap, -s[2], p).tolist()
    stepped = [c.tolist() for c in kernel.step(s, a_bv, a_av, 0.1)]
    gap, a_bv, a_av = gap.tolist(), a_bv.tolist(), a_av.tolist()
    for i in range(n):
        assert raw[i] == idm_accel_raw(v_bv[i], gap[i], -r1_dot[i], p)
        assert clipped[i] == idm_accel(v_bv[i], gap[i], -r1_dot[i], p)
        assert tuple(c[i] for c in stepped) == step_raw(
            v_bv[i], r1[i], r1_dot[i], r2[i], r2_dot[i], a_bv[i], a_av[i], 0.1)


# b_safe = 4.0 equals the IDM braking floor, so clipped demands tie with the
# safety bound; b_safe = 3.0 makes the veto fire.
@pytest.mark.parametrize("b_safe", [4.0, 3.0])
def test_mobil_array_form_matches_scalar_form(b_safe):
    rng = np.random.default_rng(314159)
    n = 3000
    s = _random_states(rng, n)
    rows = list(zip(*(c.tolist() for c in s)))
    p = IdmParams()
    mob = MobilParams(gamma_p=0.3, p_max=0.4, b_safe=b_safe)
    length = 0.5
    open_rows, closed_rows, p_want = [], [], []
    for i, row in enumerate(rows):
        try:
            p_want.append(mobil_right_lc_prob(ScenarioState(*row), mob, p,
                                              length))
            open_rows.append(i)
        except NonPositiveGap:
            closed_rows.append(i)
    p_got = kernel.mobil_right_lc_prob([c[open_rows] for c in s], mob, p,
                                       length).tolist()
    assert p_got == p_want
    assert sum(q > 0.0 for q in p_want) > 100
    # a row the scalar form rejects makes the whole batch raise
    assert closed_rows
    for i in closed_rows[:20]:
        with pytest.raises(NonPositiveGap):
            kernel.mobil_right_lc_prob([c[[0, i]] for c in s], mob, p, length)


def test_cutin_crashes_match_cutin_outcome_bit_for_bit():
    rng = np.random.default_rng(161803)
    for cfg in CONFIGS.values():
        n = 400
        s = [rng.uniform(2.0, 12.0, n), rng.uniform(5.0, 40.0, n),
             rng.uniform(-6.0, 2.0, n), rng.uniform(0.3, 10.0, n),
             rng.uniform(-8.0, 2.0, n)]
        budget = rng.integers(0, 40, n)
        got = kernel.cutin_crashes(s, budget, cfg).tolist()
        follower = idm_follower(cfg.av_idm)
        rows = list(zip(*(c.tolist() for c in s)))
        want = [cutin_outcome(*rows[i], follower, cfg, int(budget[i]))
                for i in range(n)]
        assert got == want
        assert 0 < sum(got) < n


# ---------------------------------------------------------------------------
# samplers and oracle against the scalar references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nde_batch_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    n = 300 if name == "long" else 800
    start = NDE_BLOCK - 150  # the batch crosses a block boundary
    ref = _ref_nde_batch(4242, cfg, n, start=start)
    assert sample_nde_batch(4242, cfg, n, start=start) == [r for r, _, _ in ref]
    for r in sample_nde_batch(4242, cfg, 5, start=start):
        assert type(r.index) is int and type(r.seed) is int
        assert type(r.accident) is int and type(r.weight) is float
    ends = {e for _, e, _ in ref}
    assert "cut_in" in ends and sum(r.accident for r, _, _ in ref) > 0
    if name == "stressed":
        assert Termination.MAX_STEPS in ends
    if name == "long":
        assert max(k for _, _, k in ref) > 2 * 16


@pytest.mark.parametrize("name", ["default", "stressed"])
def test_nade_batch_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    ev = CriticalityEvaluator(cfg)
    ref = _ref_nade_batch(1717, cfg, 150, ev)
    got = sample_nade_batch(1717, cfg, 150, evaluator=ev)
    assert got == ref
    assert sum(r.accident for r in got) > 0
    assert any(r.critical_log for r in got)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oracle_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    bins = 16 if name == "long" else 64  # long walks cost the reference most
    assert brute_force_mu(cfg, bins) == _ref_brute_force_mu(cfg, bins)


def test_stressed_config_truncates_cutin_rollouts():
    # Some cut-in of the stressed walk resolves differently with the full
    # budget, so the budget bookkeeping is actually exercised above.
    cfg = STRESSED
    init = kernel.initial_states(
        bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, 64), cfg.init)
    cut = kernel.walk(init, cfg, lambda k, rows, p_r: p_r > 0.0, stay=True)
    truncated = kernel.cutin_crashes(cut.state, cut.budget, cfg)
    full = kernel.cutin_crashes(cut.state, np.full(len(cut.budget), 300), cfg)
    assert (truncated != full).any()


def test_closed_initial_gap_raises_on_both_paths():
    cfg = dataclasses.replace(
        ScenarioConfig(), init=dataclasses.replace(ScenarioConfig().init,
                                                   r1_low=-1.0, r1_high=0.0))
    with pytest.raises(NonPositiveGap):
        _ref_nde_batch(1, cfg, 3)
    with pytest.raises(NonPositiveGap):
        sample_nde_batch(1, cfg, 3)
    with pytest.raises(NonPositiveGap):
        _ref_brute_force_mu(cfg, 4)
    with pytest.raises(NonPositiveGap):
        brute_force_mu(cfg, 4)


def test_oracle_64_bins_within_1e6_of_1024_bins(campaign):
    # The oracle is the referee every estimate is checked against; its only
    # approximation is the midpoint quadrature over the initial range.
    scen = campaign.scenario
    coarse = brute_force_mu(scen, 64)
    fine = brute_force_mu(scen, 1024)
    assert fine > 0.0
    assert abs(coarse - fine) <= 1e-6 * fine
