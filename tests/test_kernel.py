"""The lockstep array kernel against the scalar references.

``scalar_reference`` holds per-state, per-episode and per-bin scalar
implementations of the driver models, the criticality evaluator, both
samplers and the oracle.  The batched paths are required to reproduce them
exactly: same values, same records, same critical logs, same oracle value,
same errors.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import kernel, oracle, sampling
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

from conftest import CONFIGS, STRESSED, bv_follow, challenges, profile


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
    # The scalar form raises at a closed LV gap unless it vetoes the move
    # first; the array form takes the BV's follow acceleration instead, and
    # the walk judges the gap before it evaluates that.
    open_rows, p_want = [], []
    for i, row in enumerate(ref.rows(s)):
        try:
            p_want.append(ref.mobil_right_lc_prob(row, mob, p, length))
            open_rows.append(i)
        except NonPositiveGap:
            pass
    # A closed LV gap has no follow acceleration: NaN, which only a vetoed
    # row may carry.
    gap_lv = s[1] - length
    lv_open = gap_lv > 0.0
    a_follow = np.full(n, np.nan)
    a_follow[lv_open] = kernel.idm_accel(s[0][lv_open], gap_lv[lv_open],
                                         -s[2][lv_open], p)
    p_got = kernel.mobil_right_lc_prob([c[open_rows] for c in s],
                                       a_follow[open_rows], mob, p,
                                       length).tolist()
    assert p_got == p_want
    assert sum(q > 0.0 for q in p_want) > 100
    assert len(open_rows) < n and not lv_open[open_rows].all()


def test_cutin_crashes_match_cutin_outcome_bit_for_bit():
    # Short budgets, and 100 rows with the long budgets that the tested
    # vehicle's rollouts carry: a row that never makes contact keeps its
    # whole budget unless it ends until clear.
    rng = np.random.default_rng(161803)
    for cfg, until_clear in itertools.product(CONFIGS.values(),
                                              (False, True)):
        n = 500
        s = [rng.uniform(2.0, 12.0, n), rng.uniform(5.0, 40.0, n),
             rng.uniform(-6.0, 2.0, n), rng.uniform(0.3, 10.0, n),
             rng.uniform(-8.0, 2.0, n)]
        budget = np.concatenate([rng.integers(0, 40, 400),
                                 rng.integers(250, 301, 100)])
        states = ref.rows(s)
        followers = [(None, ref.idm_follower(cfg.av_idm))] + [
            (kernel.surrogate_accel(sm), ref.surrogate_accel(sm))
            for sm in cfg.surrogates]
        for law, scalar in followers:
            got = kernel.cutin_crashes(s, budget, cfg, law,
                                       until_clear=until_clear).tolist()
            want = [ref.cutin_outcome(*states[i], scalar, cfg, int(budget[i]),
                                      until_clear)
                    for i in range(n)]
            assert got == want
            assert 0 < sum(got[:400]) < 400 and 0 < sum(got[400:]) < 100


def test_late_contact_of_a_long_rollout():
    # A follower at the BV's speed that gains a constant 0.12 m/s² reaches
    # the BV only after 200 states or more: a rollout cut short of its
    # budget misses these contacts.
    cfg = ScenarioConfig()
    n = 4
    s = [np.full(n, 8.0), np.full(n, 30.0), np.zeros(n),
         np.array([20.0, 25.0, 30.0, 35.0]), np.zeros(n)]
    seen = []
    for budget in (150, 200, 250, 300):
        got = kernel.cutin_crashes(
            s, np.full(n, budget), cfg,
            lambda v, gap, dv: np.full(len(v), 0.12)).tolist()
        assert got == [ref.cutin_outcome(*t, lambda v, gap, dv: 0.12, cfg,
                                         budget)
                       for t in ref.rows(s)]
        seen.append(got)
    assert seen == [[False] * 4, [True] + [False] * 3, [True] * 4,
                    [True] * 4]


def test_cutin_rollout_of_each_law():
    # Each follower law's rollout, with the whole budget and until clear:
    # budgets, contact, repeated rows and signed zeros.
    for until_clear in (False, True):
        _check_rollout(until_clear)


def _check_rollout(until_clear):
    cfg = dataclasses.replace(ScenarioConfig(), vehicle_length=4.0,
                              d_accid=0.5)

    def rollout(s, budget, law=None):
        return kernel.cutin_crashes(s, budget, cfg, law,
                                    until_clear=until_clear)

    rng = np.random.default_rng(314159)
    n = 400
    s = [rng.uniform(2.0, 12.0, n), rng.uniform(5.0, 40.0, n),
         rng.uniform(-6.0, 2.0, n), rng.uniform(4.6, 14.0, n),
         rng.uniform(-8.0, 2.0, n)]
    # rows already in contact after the cut-in step's coast
    s[3][:40], s[4][:40] = 4.55, -2.0
    budget = rng.integers(0, 300, n)
    budget[::10], budget[1::10] = 0, 1

    def ram(v, gap, dv):  # its rows all reach contact within 20 states
        return np.full(len(v), 40.0)

    av = kernel.surrogate_accel(dataclasses.replace(
        cfg.surrogates[0], idm=cfg.av_idm))
    followers = [kernel.surrogate_accel(sm) for sm in cfg.surrogates] + [av]
    for law in followers + [ram]:
        got = rollout(s, budget, law)
        assert got.shape == (n,) and got.dtype == bool
        assert not got[budget == 0].any()
        assert got[2:40][budget[2:40] > 0].all()
        # repeated rows take their original's outcomes
        again = rollout([np.concatenate([x, x[:50]]) for x in s],
                        np.concatenate([budget, budget[:50]]), law)
        assert np.array_equal(again, np.concatenate([got, got[:50]]))
        # no row at all
        assert rollout([x[:0] for x in s], budget[:0], law).shape == (0,)
        if law is not ram:  # some rows run on past 20 states
            assert (~got[budget >= 20]).any()
    assert np.array_equal(rollout(s, budget, av), rollout(s, budget))
    # the ram law's rows end within 20 states; until clear, the rows not
    # closing in after the cut-in step end there
    rams = budget >= 20
    if until_clear:
        rams &= s[4] < 0.0
    rammed = rollout(s, budget, ram)
    assert rammed[rams].all()
    assert np.array_equal(rammed, rollout(s, np.minimum(budget, 20), ram))
    # every row rolls out, repeated starts too; starts that differ only in
    # the sign of a zero each have their own row's outcome.  Not closing
    # in, they all end before a law call if the rollout is until clear.
    seen = []

    def counted(v, gap, dv):
        seen.append(len(v))
        return av(v, gap, dv)

    zero = [np.tile([0.0, 0.0, -0.0, -0.0], 3), np.full(12, 20.0),
            np.zeros(12), np.full(12, 10.0), np.tile([0.0, -0.0], 6)]
    got = rollout(zero, np.full(12, 300), counted)
    assert seen[:1] == ([] if until_clear else [12])
    alone = [rollout([x[i:i + 1] for x in zero], [300], av)[0]
             for i in range(4)]
    assert got.tolist() == alone * 3


def test_until_clear_ends_rows_that_stop_closing_in():
    # A follower that brakes until it no longer closes in and then rams:
    # every cut-in ends in contact with the whole budget, none until clear.
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2718)
    n = 100
    s = [rng.uniform(6.0, 12.0, n), rng.uniform(5.0, 40.0, n),
         rng.uniform(-6.0, 2.0, n), rng.uniform(10.0, 20.0, n),
         rng.uniform(-4.0, 2.0, n)]

    def brake_then_ram(v, gap, dv):
        return np.where(dv > 0.0, -8.0, 40.0)

    budget, states = np.full(n, cfg.max_steps), ref.rows(s)
    for until_clear, crash in ((False, True), (True, False)):
        got = kernel.cutin_crashes(s, budget, cfg, brake_then_ram,
                                   until_clear=until_clear)
        assert (got == crash).all()
        assert all(ref.cutin_outcome(*t, brake_then_ram, cfg, cfg.max_steps,
                                     until_clear) == crash for t in states)


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
        lc, fol = challenges(ev, [c[order] for c in s])
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
    prof = profile(CriticalityEvaluator(cfg), s)
    scalar = ref.ScalarEvaluator(cfg)
    for i, t in enumerate(ref.rows(s)):
        want = scalar.profile(t)
        assert [x[..., i].tolist() for x in prof] == [
            [want.p_lane_change, 1.0 - want.p_lane_change],
            [list(want.q_lane_change), list(want.q_follow)],
            [want.q_alpha_lane_change, want.q_alpha_follow],
            want.is_critical]
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
    want = ref.nade_batch(1717, cfg, n, scalar)
    got = sample_nade_batch(1717, cfg, n, evaluator=ev)
    assert got.env == ref.ENV_NADE
    assert ref.block_columns(got) == ref.columns([r for r, _ in want])
    for r in got[:5]:
        assert type(r.weight) is float and type(r.accident) is int
    assert got.p.dtype == got.q_alpha.dtype == got.q.dtype == np.float64
    # The sampler fills the cache ahead of its walk with the cells of every
    # episode's no-cut-in walk: a superset of the cells the episodes visit.
    walked = set()
    for i in range(n):
        rng = ref.SplitMix64(ref.episode_seed(1717, ref.ENV_NADE, i))
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
    if name == "stressed":
        assert 0 in steps  # a cut-in at step 0
    if name == "long":
        assert max(steps) > 16  # deep into the episodes' draws
        assert got.control_steps.max() > 10  # every critical moment logged


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


def test_oracle_exceeds_its_budget_before_walking(monkeypatch):
    def walk(*args):
        raise AssertionError("the oracle walked")

    monkeypatch.setattr(oracle, "no_cutin_walk", walk)
    cfg = ScenarioConfig()
    with pytest.raises(oracle.BudgetExceeded):
        brute_force_mu(cfg, 64, 64 * (cfg.max_steps + 1) - 1)


def test_ordered_sum_adds_left_to_right():
    # A compensated sum (``math.fsum``, and the builtin ``sum`` from Python
    # 3.12 on) gives 1.0 here.
    assert kernel.ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    rng = np.random.default_rng(3)
    q = rng.uniform(size=(2, 3, 500)) * 10.0 ** rng.integers(-8, 9, (2, 3, 500))
    total = 0.0
    for row in q.swapaxes(0, 1):
        total = total + row
    assert kernel.ordered_sum(q.swapaxes(0, 1)).tobytes() == total.tobytes()


def test_stressed_config_truncates_cutin_rollouts():
    # Some cut-in of the stressed walk resolves differently with the full
    # budget, so the budget bookkeeping is actually exercised above.
    cfg = STRESSED
    init = kernel.initial_states(
        bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, 64), cfg.init)
    walk = kernel.no_cutin_walk(init, cfg, np.ones(64, dtype=bool))
    cut = kernel.CutIns.concat([
        kernel.CutIns.fired(rows, s, p_r > 0.0, cfg.max_steps - k)
        for k, (rows, s, p_r) in enumerate(
            itertools.islice(walk, cfg.max_steps))])
    truncated = kernel.cutin_crashes(cut.state, cut.budget, cfg)
    full = kernel.cutin_crashes(cut.state, np.full(len(cut.budget), 300), cfg)
    assert (truncated != full).any()


def test_no_cutin_walk_stops_at_leader_contact():
    # The BV brakes at its floor but cannot stop within 5 m of a standing LV.
    cfg = ScenarioConfig()
    s = ref.cols([(8.0, 5.0, -8.0, 20.0, -5.0)])
    walked = list(kernel.no_cutin_walk(s, cfg))
    assert [r.tolist() for r, _, _ in walked] == \
        [[0]] * (len(walked) - 1) + [[]]
    # the walked states and their p_R are the scalar reference's, up to the
    # contact
    t = ref.rows(s)[0]
    for _, u, p_r in walked[:-1]:
        assert [x[0] for x in u] == list(t)
        assert p_r.tolist() == [ref.mobil_right_lc_prob(
            t, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)]
        t = ref.step_raw(*t, ref.bv_car_following_accel(t, cfg), 0.0, cfg.dt)
    # where the walk stops, following the LV is no longer defined
    assert t.r1 <= 0.0
    with pytest.raises(NonPositiveGap):
        bv_follow(ref.cols([t]), cfg)


@pytest.mark.parametrize("run", [
    lambda cfg: sample_nde_batch(2024, cfg, 3000),
    lambda cfg: brute_force_mu(cfg)], ids=["nde", "oracle"])
def test_walk_evaluates_the_bv_idm_once_per_step(run, monkeypatch):
    # The acceleration a walk step's p_R gains over is the one the BV then
    # follows with: one IDM evaluation per yielded step.  The tested
    # vehicle's rollouts, which also run IDM, are not counted.
    calls, steps, paused = [0], [0], [False]
    idm_accel, walk = kernel.idm_accel, kernel.no_cutin_walk
    crashes = kernel.cutin_crashes

    def counted_idm(*args):
        calls[0] += not paused[0]
        return idm_accel(*args)

    def counted_walk(*args):
        for step in walk(*args):
            steps[0] += 1
            yield step

    def uncounted_crashes(*args, **kwargs):
        paused[0] = True
        try:
            return crashes(*args, **kwargs)
        finally:
            paused[0] = False

    monkeypatch.setattr(kernel, "idm_accel", counted_idm)
    for module in (sampling, oracle):
        monkeypatch.setattr(module, "no_cutin_walk", counted_walk)
        monkeypatch.setattr(module, "cutin_crashes", uncounted_crashes)
    run(ScenarioConfig())
    assert steps[0] > 1
    assert calls[0] == steps[0]


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


# The BV closes on a standing LV 5 m ahead and cuts in with probability 0.5
# per step: every no-cut-in walk reaches leader contact at step 8 or 9.
CLOSING = dataclasses.replace(
    ScenarioConfig(), mobil=MobilParams(gamma_p=0.2, p_max=0.5),
    init=dataclasses.replace(ScenarioConfig().init, r1_low=5.0, r1_high=5.5,
                             r1_dot=-8.0, r2=20.0))


def test_live_mask_decides_whether_leader_contact_raises():
    cfg = CLOSING
    s = ref.cols([(8.0, 5.0, -8.0, 20.0, -5.0)] * 2)
    contact = len(list(kernel.no_cutin_walk(s, cfg))) - 1
    assert 0 < contact < cfg.max_steps
    for cleared, raises in (([0], True), ([0, 1], False)):
        live = np.ones(2, dtype=bool)
        walk = kernel.no_cutin_walk(s, cfg, live)
        for _ in range(contact):
            next(walk)
        # the cleared rows cut in at the last state before contact
        live[cleared] = False
        if raises:
            with pytest.raises(NonPositiveGap):
                next(walk)
        else:
            assert next(walk)[0].size == 0
            assert next(walk, None) is None


def _contact_steps(states, cfg):
    """The step at which each row's scalar no-cut-in walk reaches the LV,
    checking that its AV never passes and its budget never runs out
    first."""
    steps = []
    for t in ref.rows(states):
        k = 0
        while t.r1 - cfg.vehicle_length > 0.0:
            assert t.r2 >= 0.0 and k < cfg.max_steps
            t = ref.step_raw(*t, ref.bv_car_following_accel(t, cfg), 0.0,
                             cfg.dt)
            k += 1
        steps.append(k)
    return steps


@pytest.mark.parametrize("env, root", [(ref.ENV_NDE, 11), (ref.ENV_NADE, 24)])
def test_episodes_that_cut_in_before_leader_contact_do_not_raise(env, root):
    # At these roots (the first from 0 for each environment) every episode
    # cuts in before its no-cut-in walk reaches the LV, one of them at the
    # last state before contact: the walk steps its row once more, into
    # contact, after it has left the live mask.
    cfg, n = CLOSING, 20
    seeds = sampling.episode_seeds(root, env, np.arange(n, dtype=np.uint64))
    (_, _, states), = sampling._blocks(seeds, cfg)
    contact = _contact_steps(states, cfg)
    if env == ref.ENV_NDE:
        want = ref.nde_batch(root, cfg, n)
        got = sample_nde_batch(root, cfg, n)
        assert {end for _, end, _ in want} == {"cut_in"}
        want = [(r, k) for r, _, k in want]
    else:
        want = ref.nade_batch(root, cfg, n, ref.ScalarEvaluator(cfg))
        got = sample_nade_batch(root, cfg, n)
    assert ref.block_columns(got) == ref.columns([r for r, _ in want])
    steps = [k for _, k in want]
    assert all(k < c for k, c in zip(steps, contact))
    assert any(k == c - 1 for k, c in zip(steps, contact))


@pytest.mark.parametrize("env, root", [(ref.ENV_NDE, 8), (ref.ENV_NADE, 22)])
def test_a_live_episode_at_leader_contact_raises(env, root):
    # At these roots (the first from 0 for each environment) an episode
    # that has not cut in reaches the LV.
    cfg, n = CLOSING, 20
    if env == ref.ENV_NDE:
        runs = (lambda: ref.nde_batch(root, cfg, n),
                lambda: sample_nde_batch(root, cfg, n))
    else:
        runs = (lambda: ref.nade_batch(root, cfg, n, ref.ScalarEvaluator(cfg)),
                lambda: sample_nade_batch(root, cfg, n))
    for run in runs:
        with pytest.raises(NonPositiveGap):
            run()


def test_oracle_raises_at_leader_contact_mid_walk():
    # Every bin starts clear of the LV and reaches it after 8 or 9 steps.
    cfg, bins = CLOSING, 16
    init = kernel.initial_states(
        bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, bins), cfg.init)
    assert set(_contact_steps(init, cfg)) == {8, 9}
    with pytest.raises(NonPositiveGap):
        brute_force_mu(cfg, bins)
    with pytest.raises(NonPositiveGap):
        ref.brute_force_mu(cfg, bins)


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
