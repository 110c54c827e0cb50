"""The lockstep array kernel against the scalar references.

``scalar_reference`` holds per-state, per-episode and per-bin scalar
implementations of the driver models, the criticality evaluator, both
samplers and the oracle.  The batched paths are required to reproduce them
exactly: same values, same records, same critical logs, same oracle value,
same errors.
"""
import dataclasses
import math

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import kernel, sampling
from overtake_eval.config import ScenarioConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import (
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    ZeroDensity,
)
from overtake_eval.oracle import bin_midpoints, brute_force_mu
from overtake_eval.sampling import sample_nade_batch, sample_nde_batch

from conftest import CONFIGS, STRESSED


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
    # the scalar forms get Python floats
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
        assert raw[i] == ref.idm_accel_raw(v_bv[i], gap[i], -r1_dot[i], p)
        assert clipped[i] == ref.idm_accel(v_bv[i], gap[i], -r1_dot[i], p)
        assert tuple(c[i] for c in stepped) == ref.step_raw(
            v_bv[i], r1[i], r1_dot[i], r2[i], r2_dot[i], a_bv[i], a_av[i], 0.1)


def test_fvdm_array_form_matches_scalar_form_bit_for_bit():
    # np.tanh and math.tanh disagree in the last bit on about a quarter of
    # inputs; the array form must agree with math.tanh everywhere.
    rng = np.random.default_rng(577215)
    n = 20000
    v = rng.uniform(0.0, 20.0, n)
    gap = np.concatenate([rng.uniform(1e-3, 80.0, n - 4),
                          [1e-300, 20.0, 1e6, 0.1]])
    dv = rng.uniform(-12.0, 12.0, n)
    for p in (FvdmParams(), FvdmParams(kappa=6.0, hard_decel=4.6),
              FvdmParams(kappa=2.0, lam=0.9, b_f=7.0, c_f=1.3)):
        got = kernel.fvdm_accel(v, gap, dv, p).tolist()
        v_opt = kernel.fvdm_opt_velocity(gap, p).tolist()
        want = [ref.fvdm_accel(a, b, c, p)
                for a, b, c in zip(v.tolist(), gap.tolist(), dv.tolist())]
        assert got == want
        assert v_opt == [ref.fvdm_opt_velocity(g, p) for g in gap.tolist()]
        # both clip bounds bind somewhere, and interior values occur
        assert p.hard_accel in got and -p.hard_decel in got
        assert sum(-p.hard_decel < a < p.hard_accel for a in got) > 1000
    assert sum(math.tanh(x) != y for x, y in zip(
        (gap / 10.0 - 2.0).tolist(), np.tanh(gap / 10.0 - 2.0).tolist())) > 100
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveGap):
            ref.fvdm_accel(5.0, bad, 0.0, FvdmParams())
        with pytest.raises(NonPositiveGap):
            kernel.fvdm_accel(np.array([5.0, 5.0]), np.array([3.0, bad]),
                              np.zeros(2), FvdmParams())


# b_safe = 4.0 equals the IDM braking floor, so clipped demands tie with the
# safety bound; b_safe = 3.0 makes the veto fire.
@pytest.mark.parametrize("b_safe", [4.0, 3.0])
def test_mobil_array_form_matches_scalar_form(b_safe):
    rng = np.random.default_rng(314159)
    n = 3000
    s = _random_states(rng, n)
    p = IdmParams()
    mob = MobilParams(gamma_p=0.3, p_max=0.4, b_safe=b_safe)
    length = 0.5
    open_rows, closed_rows, p_want = [], [], []
    for i, row in enumerate(ref.rows(s)):
        try:
            p_want.append(ref.mobil_right_lc_prob(row, mob, p, length))
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
        states = ref.rows(s)
        followers = [(None, ref.idm_follower(cfg.av_idm))] + [
            ([kernel.surrogate_accel(sm)], ref.surrogate_accel(sm))
            for sm in cfg.surrogates]
        for laws, scalar in followers:
            got = kernel.cutin_crashes(s, budget, cfg, laws)[0].tolist()
            want = [ref.cutin_outcome(*states[i], scalar, cfg, int(budget[i]))
                    for i in range(n)]
            assert got == want
            assert 0 < sum(got) < n


def test_panel_rollout_matches_one_rollout_per_law():
    # One lockstep loop over the whole panel plus the tested vehicle gives
    # every law the outcomes of a rollout of that law alone, bit for bit.
    cfg = dataclasses.replace(ScenarioConfig(), vehicle_length=4.0,
                              d_accid=0.5)
    rng = np.random.default_rng(314159)
    n = 400
    s = [rng.uniform(2.0, 12.0, n), rng.uniform(5.0, 40.0, n),
         rng.uniform(-6.0, 2.0, n), rng.uniform(4.6, 14.0, n),
         rng.uniform(-8.0, 2.0, n)]
    # rows already in contact after the cut-in step's coast
    s[3][:40], s[4][:40] = 4.55, -2.0
    budget = rng.integers(0, 300, n)
    budget[::10], budget[1::10] = 0, 1

    def ram(v, gap, dv):  # its rows all reach contact before the others'
        return np.full(len(v), 40.0)

    av = kernel.surrogate_accel(dataclasses.replace(
        cfg.surrogates[0], idm=cfg.av_idm))
    laws = [kernel.surrogate_accel(sm) for sm in cfg.surrogates[:1]] + [
        ram] + [kernel.surrogate_accel(sm) for sm in cfg.surrogates[1:]] + [av]
    panel = kernel.cutin_crashes(s, budget, cfg, laws)
    assert panel.shape == (len(laws), n) and panel.dtype == bool
    for law, got in zip(laws, panel):
        assert np.array_equal(got, kernel.cutin_crashes(s, budget, cfg,
                                                        [law])[0])
    assert np.array_equal(panel[-1], kernel.cutin_crashes(s, budget, cfg)[0])
    assert not panel[:, budget == 0].any()
    assert panel[:, 2:40][:, budget[2:40] > 0].all()
    # the ram law's rows leave within 20 states, the others' run on
    assert panel[1][budget >= 20].all()
    assert np.array_equal(panel[1], kernel.cutin_crashes(
        s, np.minimum(budget, 20), cfg, [ram])[0])
    assert (~panel[[0, 2, 3, 4]][:, budget >= 20]).any(axis=1).all()
    # repeated rows take their original's outcomes
    again = kernel.cutin_crashes([np.concatenate([x, x[:50]]) for x in s],
                                 np.concatenate([budget, budget[:50]]), cfg,
                                 laws)
    assert np.array_equal(again, np.concatenate([panel, panel[:, :50]], 1))
    # each distinct start rolls out once; starts that differ only in the
    # sign of a zero are distinct, and each has its own row's outcome
    seen = []

    def counted(v, gap, dv):
        seen.append(len(v))
        return av(v, gap, dv)

    zero = [np.tile([0.0, 0.0, -0.0, -0.0], 3), np.full(12, 20.0),
            np.zeros(12), np.full(12, 10.0), np.tile([0.0, -0.0], 6)]
    got = kernel.cutin_crashes(zero, np.full(12, 300), cfg, [counted])
    assert seen[0] == 4
    alone = [kernel.cutin_crashes([x[i:i + 1] for x in zero], [300], cfg,
                                  [av])[0, 0] for i in range(4)]
    assert got[0].tolist() == alone * 3
    # no row and no law at all
    assert kernel.cutin_crashes([x[:0] for x in s], budget[:0], cfg,
                                laws).shape == (len(laws), 0)
    assert kernel.cutin_crashes(s, budget, cfg, []).shape == (0, n)


# ---------------------------------------------------------------------------
# the criticality evaluator against the scalar reference
# ---------------------------------------------------------------------------

# Wide boxes: long no-cut-in suffixes, many of them hot, where the FVDM
# surrogates decide the follow challenges.
WIDE = [(0.0, 20.0), (2.0, 90.0), (-10.0, 5.0), (0.1, 30.0), (-12.0, 5.0)]


def _wide_states(rng, n):
    return [rng.uniform(lo, hi, n) for lo, hi in WIDE]


def test_batched_challenges_match_scalar_reference():
    rng = np.random.default_rng(8675309)
    cfg = ScenarioConfig()
    n = 16
    s = _wide_states(rng, n)
    scalar = ref.ScalarEvaluator(cfg)
    want = [scalar.challenges(t) for t in ref.rows(s)]

    def entries(ev, order):
        lc, fol = ev.challenges([c[order] for c in s])
        got = {}
        for i, j in enumerate(order):
            got[j] = (tuple(lc[:, i].tolist()), tuple(fol[:, i].tolist()))
        return got

    whole = entries(CriticalityEvaluator(cfg), np.arange(n))
    assert [whole[i] for i in range(n)] == want
    # batches of different composition and order fill identical entries
    ev = CriticalityEvaluator(cfg)
    perm = rng.permutation(n)
    pieces = {}
    for part in (perm[:5], perm[5:6], perm[6:11], perm[11:]):
        pieces.update(entries(ev, part))
    assert pieces == whole
    assert len(ev._entry_cache) == len(scalar.cache) == n
    # the suffixes carry hazard, and the three surrogates weigh it apart
    assert sum(w[0][0] for w in want) > 0
    assert any(len(set(w[1])) == 3 for w in want)


def test_batched_profile_matches_scalar_reference():
    # A shorter horizon keeps the scalar reference affordable.
    rng = np.random.default_rng(1729)
    cfg = dataclasses.replace(ScenarioConfig(), max_steps=80,
                              mobil=MobilParams(gamma_p=0.05))
    s = [rng.uniform(lo, hi, 80) for lo, hi in
         [(2, 14), (2, 40), (-8, 2), (0.5, 10), (-8, 2)]]
    prof = CriticalityEvaluator(cfg).profile(s)
    scalar = ref.ScalarEvaluator(cfg)
    for i, t in enumerate(ref.rows(s)):
        want = scalar.profile(t)
        for name, value in zip(prof._fields, prof):
            got = value[..., i].tolist()
            assert (tuple(got) if isinstance(got, list) else got) == \
                getattr(want, name), name
    assert prof.is_critical.any() and not prof.is_critical.all()


# ---------------------------------------------------------------------------
# samplers and oracle against the scalar references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nde_batch_matches_scalar_reference(name, monkeypatch):
    cfg = CONFIGS[name]
    n = 300 if name == "long" else 800
    # The batch spans blocks and ends partway through one.
    monkeypatch.setattr(sampling, "BLOCK", 256)
    want = ref.nde_batch(4242, cfg, n)
    got = sample_nde_batch(4242, cfg, n)
    assert got.env == ref.ENV_NDE
    assert ref.block_columns(got) == ref.columns([r for r, _, _ in want])
    assert got.q.shape == (0, len(cfg.surrogates))
    for r in sample_nde_batch(4242, cfg, 5):
        assert type(r.index) is int and type(r.seed) is int
        assert type(r.accident) is int and type(r.weight) is float
    ends = {e for _, e, _ in want}
    assert "cut_in" in ends and sum(r.accident for r, _, _ in want) > 0
    if name == "stressed":
        assert "max_steps" in ends
    if name == "long":
        assert max(k for _, _, k in want) > 2 * 16


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_batch_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    n = 150
    if name == "long":
        # every visited cell costs the scalar reference its full horizon
        cfg = dataclasses.replace(cfg, max_steps=40)
        n = 12
    scalar = ref.ScalarEvaluator(cfg)
    ev = CriticalityEvaluator(cfg)
    cap = 2 if name == "default" else 10
    want = ref.nade_batch(1717, cfg, n, scalar, max_control_steps=cap)
    got = sample_nade_batch(1717, cfg, n, evaluator=ev, max_control_steps=cap)
    assert got.env == ref.ENV_NADE
    assert ref.block_columns(got) == ref.columns([r for r, _ in want])
    for r in got[:5]:
        assert type(r.weight) is float and type(r.accident) is int
    assert got.p.dtype == got.q_alpha.dtype == got.q.dtype == np.float64
    # The sampler fills the cache ahead of its walk with the cells of every
    # episode's no-cut-in walk: a superset of the cells the episodes visit.
    walked = set()
    for i in range(n):
        rng = np.random.default_rng(ref.episode_seed(1717, ref.ENV_NADE, i))
        t, k = ref.initial_state(rng, cfg), 0
        while ref.running(t, k, cfg):
            walked.add(ref.ScalarEvaluator.quantize(t))
            t = ref.step_raw(*t, ref.bv_car_following_accel(t, cfg), 0.0,
                             cfg.dt)
            k += 1
    assert set(ev._entry_cache) == walked
    assert set(scalar.cache) <= walked
    assert got.control_steps.any()
    steps = [k for _, k in want]
    if name != "long":  # whose truncated rollouts never reach contact
        assert got.accident.sum() > 0
    if name == "default":
        assert got.control_steps.max() == cap  # the cap binds
    if name == "stressed":
        assert 0 in steps  # a cut-in at step 0
    if name == "long":
        assert max(steps) > 16  # the uniforms are refilled


def test_nade_batch_lane_change_certain():
    # p_max = 1 puts the whole naturalistic mass on the lane change at some
    # critical moments, so both laws meet follow atoms without positive mass.
    cfg = dataclasses.replace(ScenarioConfig(), mobil=MobilParams(
        politeness=0.0, gamma_p=1.0, p_max=1.0))
    scalar = ref.ScalarEvaluator(cfg)
    want = ref.nade_batch(31, cfg, 120, scalar)
    assert ref.block_columns(sample_nade_batch(31, cfg, 120)) == \
        ref.columns([r for r, _ in want])
    moments = [m for r, _ in want for m in r.critical_log]
    assert any(m.p == 1.0 for m in moments)


def test_nade_zero_density_raises_on_both_paths():
    # A NaN floor leaves the importance law without positive mass at the
    # first critical moment.
    cfg = dataclasses.replace(ScenarioConfig(), epsilon=math.nan)
    with pytest.raises(ZeroDensity):
        ref.nade_batch(5, cfg, 20, ref.ScalarEvaluator(cfg))
    with pytest.raises(ZeroDensity):
        sample_nade_batch(5, cfg, 20)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oracle_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    bins = 16 if name == "long" else 64  # long walks cost the reference most
    assert brute_force_mu(cfg, bins) == ref.brute_force_mu(cfg, bins)


def test_stressed_config_truncates_cutin_rollouts():
    # Some cut-in of the stressed walk resolves differently with the full
    # budget, so the budget bookkeeping is actually exercised above.
    cfg = STRESSED
    init = kernel.initial_states(
        bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, 64), cfg.init)

    cut = kernel.walk(init, cfg, lambda rows, s: kernel.bv_law(s, cfg) > 0.0,
                      stay=True)
    truncated = kernel.cutin_crashes(cut.state, cut.budget, cfg)[0]
    full = kernel.cutin_crashes(cut.state, np.full(len(cut.budget), 300),
                                cfg)[0]
    assert (truncated != full).any()


def test_no_cutin_walk_stops_at_leader_contact():
    # The BV brakes at its floor but cannot stop within 5 m of a standing LV.
    cfg = ScenarioConfig()
    s = ref.cols([(8.0, 5.0, -8.0, 20.0, -5.0)])
    walked = list(kernel.no_cutin_walk(s, cfg))
    assert [r.tolist() for r, _ in walked] == [[0]] * (len(walked) - 1) + [[]]
    # the walked states are the scalar reference's, up to the contact
    t = ref.rows(s)[0]
    for _, u in walked[:-1]:
        assert [x[0] for x in u] == list(t)
        t = ref.step_raw(*t, ref.bv_car_following_accel(t, cfg), 0.0, cfg.dt)
    assert t.r1 <= 0.0
    with pytest.raises(NonPositiveGap):
        kernel.bv_law(ref.cols([t]), cfg)


def test_leader_contact_raises_in_the_nade_walk_not_its_fill():
    # Without lane changes every episode follows its walk into the LV.
    cfg = dataclasses.replace(
        ScenarioConfig(), mobil=MobilParams(p_max=0.0),
        init=dataclasses.replace(ScenarioConfig().init, r1_low=5.0,
                                 r1_high=5.5, r1_dot=-8.0, r2=20.0))
    ev = CriticalityEvaluator(cfg)
    with pytest.raises(NonPositiveGap):
        sample_nade_batch(3, cfg, 20, evaluator=ev)
    assert ev._entry_cache  # filled up to the contact
    with pytest.raises(NonPositiveGap):
        ref.nade_batch(3, cfg, 20, ref.ScalarEvaluator(cfg))


def test_closed_initial_gap_raises_on_both_paths():
    cfg = dataclasses.replace(
        ScenarioConfig(), init=dataclasses.replace(ScenarioConfig().init,
                                                   r1_low=-1.0, r1_high=0.0))
    with pytest.raises(NonPositiveGap):
        ref.nde_batch(1, cfg, 3)
    with pytest.raises(NonPositiveGap):
        sample_nde_batch(1, cfg, 3)
    with pytest.raises(NonPositiveGap):
        ref.nade_batch(1, cfg, 3, ref.ScalarEvaluator(cfg))
    with pytest.raises(NonPositiveGap):
        sample_nade_batch(1, cfg, 3)
    with pytest.raises(NonPositiveGap):
        ref.brute_force_mu(cfg, 4)
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
