"""Challenge values, criticality, and the importance distributions.

The reference values here come from the absolute-position simulators in
conftest.py, which share no update code with the library.  Each test hands
its states to the batched evaluator in one call.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import criticality, kernel, sampling
from overtake_eval.config import ScenarioConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import MobilParams
from overtake_eval.sampling import sample_nade_batch
from scalar_reference import State, cols

from conftest import (
    abs_cutin_crash,
    abs_no_cutin_walk,
    challenges,
    follow_hazard_recursive,
    grid_state,
    profile,
)

# Lane-change parameters that light up the hand example: no politeness
# discount, gain 1, permissive safety bound.
HOT_MOBIL = MobilParams(politeness=0.0, delta_a_th=0.1, b_safe=5.0,
                        gamma_p=1.0, p_max=0.1)


def random_grid_states(rng, n, box):
    return [grid_state(*(rng.uniform(*b) for b in box)) for _ in range(n)]


# ---------------------------------------------------------------------------
# challenge values against the independent simulator
# ---------------------------------------------------------------------------

def test_lane_change_challenge_matches_absolute_rollouts(scen):
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(1001)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    states = random_grid_states(rng, 150, box)
    got = challenges(ev, cols(states))[0]
    followers = [ref.surrogate_accel(sm) for sm in scen.surrogates]
    for i, s in enumerate(states):
        want = [1.0 if abs_cutin_crash(*s, f, scen, scen.max_steps,
                                       until_clear=True) else 0.0
                for f in followers]
        assert got[:, i].tolist() == want
    assert 0 < got.sum() < 450  # the box straddles the contact boundary


def test_follow_challenge_matches_recursive_enumeration(scen):
    # Shorter horizon keeps the reference enumeration affordable; both
    # sides see the same budget.
    cfg = dataclasses.replace(scen, max_steps=80)
    ev = CriticalityEvaluator(cfg)
    rng = np.random.default_rng(77)
    box = [(4, 12), (4, 20), (-6, 0), (1, 8), (-6, 2)]
    states = random_grid_states(rng, 40, box)
    got = challenges(ev, cols(states))[1]
    nonzero = 0
    for i, s in enumerate(states):
        walk = abs_no_cutin_walk(s, cfg)
        for j, sm in enumerate(cfg.surrogates):
            f = ref.surrogate_accel(sm)
            want = follow_hazard_recursive(
                walk,
                lambda t: 1.0 if abs_cutin_crash(*t, f, cfg, cfg.max_steps,
                                                 until_clear=True)
                else 0.0,
                cfg)
            assert got[j, i] == pytest.approx(want, abs=1e-9)
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
    ev = CriticalityEvaluator(cfg)
    prof = profile(ev, cols([s]))
    lc, fol = challenges(ev, cols([s]))

    p_lc, p_f = prof.p[:, 0].tolist()
    assert p_lc == 0.1  # saturates the cap
    assert p_f == 1.0 - p_lc
    assert lc[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert fol[:, 0].tolist() == [0.0, 0.0, 0.0]
    crits = lc[:, 0] * p_lc + fol[:, 0] * p_f
    assert crits.tolist() == pytest.approx((0.1,) * 3, abs=1e-15)
    assert prof.is_critical.tolist() == [True]

    # exposure-weighted mixture: 0.1*0.1 + 0.9*(1*0.1)/0.1 = 0.91 on the
    # lane change, 0.1*0.9 + 0 = 0.09 on following
    assert prof.q[0, :, 0].tolist() == pytest.approx((0.91,) * 3, abs=1e-12)
    assert prof.q[1, :, 0].tolist() == pytest.approx((0.09,) * 3, abs=1e-12)
    qa_lc, qa_f = prof.q_alpha[:, 0]
    assert qa_lc == pytest.approx(0.91, abs=1e-12)
    assert qa_f == pytest.approx(0.09, abs=1e-12)
    assert qa_lc + qa_f == pytest.approx(1.0, abs=1e-12)


def test_profile_exposure_formula_self_consistent(scen):
    # Wherever a surrogate sees hazard, its importance mass follows the
    # floor-plus-tilt law exactly; where it sees none, it reuses the
    # exposure probabilities.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(555)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    states = random_grid_states(rng, 60, box)
    prof = profile(ev, cols(states))
    lc, fol = challenges(ev, cols(states))
    eps = scen.epsilon
    checked_tilted = 0
    for i in range(len(states)):
        p_lc, p_f = prof.p[:, i]
        assert p_f == 1.0 - p_lc
        crits = lc[:, i] * p_lc + fol[:, i] * p_f
        for j in range(3):
            cl, cf, c = lc[j, i], fol[j, i], crits[j]
            if c > 0.0:
                want_lc = eps * p_lc + (1 - eps) * cl * p_lc / c
                want_f = eps * p_f + (1 - eps) * cf * p_f / c
                assert prof.q[0, j, i] == pytest.approx(want_lc, abs=1e-14)
                assert prof.q[1, j, i] == pytest.approx(want_f, abs=1e-14)
                checked_tilted += 1
            else:
                assert prof.q[0, j, i] == p_lc
                assert prof.q[1, j, i] == p_f
        assert prof.is_critical[i] == any(crits > 0)
    assert checked_tilted > 10


def test_noncritical_state_keeps_exposure_distribution(scen):
    # Free flow far behind a distant leader: no hazard, no tilt.
    s = grid_state(8.0, 3000.0, 0.0, 30.0, 0.0)
    ev = CriticalityEvaluator(scen)
    prof = profile(ev, cols([s]))
    lc, fol = challenges(ev, cols([s]))
    p_lc, p_f = prof.p[:, 0]
    assert prof.is_critical.tolist() == [False]
    assert (lc[:, 0] * p_lc + fol[:, 0] * p_f).tolist() == [0.0, 0.0, 0.0]
    assert prof.q_alpha.tolist() == prof.p.tolist()
    assert prof.p[1].tolist() == (1.0 - prof.p[0]).tolist()


def test_profile_density_accounting(scen):
    # Importance mass is a probability distribution absolutely continuous
    # w.r.t. exposure, with the epsilon floor intact.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(31415)
    box = [(2, 14), (2, 40), (-8, 2), (0.5, 10), (-8, 2)]
    prof = profile(ev, cols(random_grid_states(rng, 120, box)))
    p_lc = prof.p[0]
    total = prof.q[0] + prof.q[1]
    assert total == pytest.approx(np.ones_like(total), abs=1e-12)
    floor = scen.epsilon - 1e-15
    assert (prof.q[0] >= floor * p_lc).all()
    assert (prof.q[1] >= floor * (1.0 - p_lc)).all()
    mix = prof.q_alpha[0] + prof.q_alpha[1]
    assert mix == pytest.approx(np.ones_like(mix), abs=1e-12)
    assert prof.is_critical.any() and (p_lc > 0.0).any()


def test_q_alpha_is_left_to_right_panel_mean(scen):
    # The mixture density that feeds the logs and the weights is
    # ((q0 + q1) + q2) / 3, the same double on every interpreter: Python's
    # float sum is compensated from 3.12 on, and on these very values a
    # compensated sum would differ.
    recs = sample_nade_batch(7, scen, 200)
    moments = list(zip(recs.q_alpha.tolist(), recs.q.tolist()))
    unequal = [(q_alpha, q) for q_alpha, q in moments if len(set(q)) == 3]
    assert len(unequal) > 10
    for q_alpha, (q0, q1, q2) in moments:
        assert q_alpha == ((q0 + q1) + q2) / 3
    assert any(q_alpha != math.fsum(q) / 3 for q_alpha, q in unequal)


# ---------------------------------------------------------------------------
# caching and state snapping
# ---------------------------------------------------------------------------

def test_challenges_shared_within_resolution_cell(scen):
    ev = CriticalityEvaluator(scen)
    a = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    b = State(8.04, 9.96, -3.04, 2.04, -3.96)
    lc, fol = challenges(ev, cols([a, b]))
    assert len(ev._entry_cache) == 1  # one cache entry serves both
    assert lc[:, 0].tolist() == lc[:, 1].tolist()
    assert fol[:, 0].tolist() == fol[:, 1].tolist()


def test_batch_with_repeated_cells_equals_per_state_lookups(scen,
                                                           monkeypatch):
    # A batch is deduplicated by grid cell before the cache is touched:
    # cold and then warm, each state gets its own cell's challenges, and
    # each distinct cell is computed, and cached, exactly once.
    rng = np.random.default_rng(4711)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    cells = random_grid_states(rng, 12, box)
    picks = rng.integers(0, len(cells), size=60)
    # states jittered inside their cell, so repeats are not equal floats
    s = [np.array([cells[i][j] for i in picks]) + rng.uniform(-0.04, 0.04, 60)
         for j in range(5)]
    computed = []
    compute = CriticalityEvaluator._compute_challenges

    def counted(self, keys):
        computed.extend(keys)
        return compute(self, keys)

    monkeypatch.setattr(CriticalityEvaluator, "_compute_challenges", counted)
    ev = CriticalityEvaluator(scen)
    cold = challenges(ev, s)
    distinct = {ref.ScalarEvaluator.quantize(State(*c)) for c in zip(*s)}
    assert len(distinct) == len(set(picks.tolist())) > 5
    assert len(computed) == len(distinct) == len(ev._entry_cache)
    assert set(ev._entry_cache) == distinct
    warm = challenges(ev, s)
    assert len(computed) == len(ev._entry_cache) == len(distinct)
    one = CriticalityEvaluator(scen)
    singles = [challenges(one, [c[i:i + 1] for c in s]) for i in range(60)]
    for k in range(2):
        want = np.hstack([x[k] for x in singles]).tolist()
        assert cold[k].tolist() == warm[k].tolist() == want


def test_fill_rolls_each_surrogate_out_once(scen, monkeypatch):
    # A fill rolls its cut-ins out once per surrogate, in panel order, each
    # ending a row once its conflict is resolved; a NADE sampler call of one
    # block then runs the tested vehicle's rollout, which keeps the whole
    # budget.  Each surrogate gets the cut-in rows of a panel of one.
    calls, rows, names = [], [], {}
    law = criticality.surrogate_accel

    def named(sm):
        accel = law(sm)
        names[accel] = sm.name
        return accel

    def counting(module):
        rollout = module.cutin_crashes

        def hooked(s, n_states, cfg, law=None, **kw):
            calls.append((module.__name__, names.get(law), kw))
            rows.append(len(n_states))
            return rollout(s, n_states, cfg, law, **kw)
        monkeypatch.setattr(module, "cutin_crashes", hooked)

    monkeypatch.setattr(criticality, "surrogate_accel", named)
    counting(criticality)
    counting(sampling)
    rng = np.random.default_rng(77)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    s = cols(random_grid_states(rng, 20, box))
    challenges(CriticalityEvaluator(dataclasses.replace(
        scen, surrogates=scen.surrogates[:1])), s)
    (m,) = rows
    calls.clear()
    rows.clear()
    ev = CriticalityEvaluator(scen)
    challenges(ev, s)
    panel = [("overtake_eval.criticality", sm.name, {"until_clear": True})
             for sm in scen.surrogates]
    assert len(panel) > 1 and m > 20
    assert calls == panel and rows == [m] * len(panel)
    challenges(ev, s)  # every cell cached: no rollout
    assert len(calls) == len(panel)
    calls.clear()
    sample_nade_batch(5, scen, 200)
    assert calls == panel + [("overtake_eval.sampling", None, {})]


def test_fill_ends_each_rollout_with_its_conflict(scen, monkeypatch):
    # A surrogate's rollout ends once the follower stops closing in, so a
    # default-scenario fill steps its panel a few times, not the 300 states
    # of the step budget.
    calls = {}
    law = criticality.surrogate_accel

    def counting(sm):
        accel = law(sm)

        def counted(v, gap, dv):
            calls[sm.name] = calls.get(sm.name, 0) + 1
            return accel(v, gap, dv)
        return counted
    monkeypatch.setattr(criticality, "surrogate_accel", counting)
    sample_nade_batch(5, scen, 300)
    assert sorted(calls) == sorted(sm.name for sm in scen.surrogates)
    assert max(calls.values()) <= 20


def test_exposure_probability_not_snapped(scen):
    # Challenges are looked up per cell, but the per-state lane-change
    # probability stays exact.
    cfg = dataclasses.replace(scen, mobil=MobilParams(
        politeness=0.0, delta_a_th=0.1, b_safe=5.0, gamma_p=0.011, p_max=0.5))
    ev = CriticalityEvaluator(cfg)
    a = State(8.0, 10.0, -3.0, 2.0, -4.0)
    b = State(8.0, 9.98, -3.0, 2.0, -4.0)
    pa, pb = profile(ev, cols([a, b])).p[0].tolist()
    assert pa == ref.mobil_right_lc_prob(a, cfg.mobil, cfg.bv_idm)
    assert pb == ref.mobil_right_lc_prob(b, cfg.mobil, cfg.bv_idm)
    assert pa != pb
    assert len(ev._entry_cache) == 1


def test_evaluation_order_does_not_change_results(scen):
    rng = np.random.default_rng(9021)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    s = cols(random_grid_states(rng, 30, box))
    fwd = challenges(CriticalityEvaluator(scen), s)
    rev = challenges(CriticalityEvaluator(scen), [c[::-1] for c in s])
    one_by_one = CriticalityEvaluator(scen)
    singles = [challenges(one_by_one, [c[i:i + 1] for c in s])
               for i in range(8)]
    for got, ref_ in zip(fwd, rev):
        assert got.tolist() == ref_[:, ::-1].tolist()
    for k in range(2):
        assert fwd[k][:, :8].tolist() == np.hstack([x[k] for x in singles]).tolist()


# ---------------------------------------------------------------------------
# per-surrogate views of a profile
# ---------------------------------------------------------------------------

def test_maneuver_challenge_selects_action_component(scen):
    # The profile's tilt combines the cached challenges per surrogate, and
    # its per-surrogate densities line up with them row for row, the lane
    # change first.
    ev = CriticalityEvaluator(scen)
    s = cols([grid_state(8.0, 10.0, -3.0, 2.0, -4.0),
              grid_state(8.0, 3000.0, 0.0, 30.0, 0.0)])
    lc, fol = challenges(ev, s)
    prof = profile(ev, s)
    p_lc, p_f = prof.p
    crits = lc * p_lc + fol * p_f
    assert lc.shape == fol.shape == (3, 2)
    assert prof.q.shape == (2, 3, 2)
    assert prof.p.shape == prof.q_alpha.shape == (2, 2)
    tilt = crits > 0.0
    assert prof.is_critical.tolist() == tilt.any(axis=0).tolist()
    assert prof.is_critical.tolist() == [True, False]
    eps = scen.epsilon
    for q, ch, p in zip(prof.q, (lc, fol), (p_lc, p_f)):
        want = np.where(tilt, eps * p + (1.0 - eps) * (ch * p)
                        / np.where(tilt, crits, 1.0), p)
        assert q.tolist() == want.tolist()


def test_criticality_combines_challenges_with_exposure(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    lc, fol = challenges(ev, cols([s]))
    p = ref.mobil_right_lc_prob(s, scen.mobil, scen.bv_idm, scen.vehicle_length)
    prof = profile(ev, cols([s]))
    assert prof.p[:, 0].tolist() == pytest.approx((p, 1 - p), abs=1e-15)
    eps = scen.epsilon
    for j in range(len(scen.surrogates)):
        c = lc[j, 0] * p + fol[j, 0] * (1 - p)
        assert c > 0.0
        assert prof.q[:, j, 0].tolist() == pytest.approx(
            (eps * p + (1 - eps) * lc[j, 0] * p / c,
             eps * (1 - p) + (1 - eps) * fol[j, 0] * (1 - p) / c), abs=1e-14)


def test_importance_fn_matches_profile(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    prof = profile(ev, cols([s]))
    p = ref.mobil_right_lc_prob(s, scen.mobil, scen.bv_idm, scen.vehicle_length)
    assert prof.p[:, 0].tolist() == [p, 1.0 - p]
    q = prof.q[:, :, 0]
    assert prof.q_alpha[:, 0].tolist() == \
        (((q[:, 0] + q[:, 1]) + q[:, 2]) / 3).tolist()


def test_out_of_panel_surrogate_gets_own_panel(scen):
    # A surrogate's challenges do not depend on the rest of its panel: alone
    # or appended to the configured panel, it scores a state the same.
    custom = dataclasses.replace(scen.surrogates[0], name="idm_soft")
    custom = dataclasses.replace(
        custom, idm=dataclasses.replace(custom.idm, hard_decel=2.0))
    s = cols([grid_state(8.0, 10.0, -3.0, 2.0, -4.0)])
    solo = CriticalityEvaluator(dataclasses.replace(scen, surrogates=(custom,)))
    wide = CriticalityEvaluator(dataclasses.replace(
        scen, surrogates=scen.surrogates + (custom,)))
    lc_solo, fol_solo = challenges(solo, s)
    lc_wide, fol_wide = challenges(wide, s)
    assert (lc_solo[0, 0], fol_solo[0, 0]) == (lc_wide[-1, 0], fol_wide[-1, 0])
    assert lc_wide[:-1].tolist() == \
        challenges(CriticalityEvaluator(scen), s)[0].tolist()


def test_surrogates_disagree_somewhere(scen):
    # The panel only earns its keep if its members label some cut-in
    # differently.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(2718)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    lc = challenges(ev, cols(random_grid_states(rng, 80, box)))[0]
    votes = lc.sum(axis=0)
    assert ((0.0 < votes) & (votes < 3.0)).any()


def test_columns_fill_starts_their_walks_drop(scen):
    # A start the AV has passed, or at leader contact, never walks, yet a
    # miss fills its own cell.
    ev = CriticalityEvaluator(scen)
    s = cols([State(20.0, 30.0, 0.0, -1.0, 0.5),
              State(20.0, 0.0, 0.0, 5.0, 0.5)])
    got = ev.columns(s, scen.max_steps).tolist()
    key_of = {col: key for key, col in ev._entry_cache.items()}
    assert [key_of[c] for c in got] == [(200, 300, 0, -10, 5),
                                        (200, 0, 0, 50, 5)]


def test_fill_without_later_cut_ins_folds_only_its_representatives(scen):
    # With p_max = 0 no later state fires, and a start the AV has passed or
    # at leader contact never walks: the fold then holds only the
    # representatives' rollouts.  Follow challenges are exactly 0.0 and
    # lane-change challenges each representative's own rollout.
    rng = np.random.default_rng(1001)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    cases = [
        (dataclasses.replace(scen, mobil=MobilParams(p_max=0.0)),
         random_grid_states(rng, 60, box)),
        (scen, [State(20.0, 30.0, 0.0, -1.0, 0.5),
                State(20.0, 0.0, 0.0, 5.0, 0.5)])]
    for cfg, states in cases:
        keys = list(map(tuple, criticality.grid_cells(cols(states)).tolist()))
        lane_change, follow = CriticalityEvaluator(cfg)._compute_challenges(
            keys)
        followers = [ref.surrogate_accel(sm) for sm in cfg.surrogates]
        want = [[1.0 if abs_cutin_crash(*s, f, cfg, cfg.max_steps,
                                        until_clear=True) else 0.0
                 for s in states] for f in followers]
        assert lane_change.tolist() == want
        assert 0 < lane_change.sum() < lane_change.size
        assert follow.tolist() == [[0.0] * len(states)] * len(followers)
        assert not np.signbit(follow).any()
    # The random states do carry follow hazard under the default law.
    assert challenges(CriticalityEvaluator(scen), cols(cases[0][1]))[1].any()


def test_long_walk_fill_holds_one_batch_of_cut_ins(monkeypatch):
    # A cut-down long-walk scenario: one episode walks 100 steps, whose
    # 100 new cells each walk up to 100 steps of their own.  A fill holds
    # the cut-ins of one batch at a time, so fills of at most 12 cells
    # peak at a fraction of the numpy bytes of one fill of all of them.
    base = ScenarioConfig()
    cfg = dataclasses.replace(
        base, max_steps=100, surrogates=base.surrogates[:1],
        init=dataclasses.replace(base.init, r2_dot=0.5, r1_low=30.0,
                                 r1_high=300.0))
    start = kernel.initial_states([150.0], cfg.init)
    peaks = []
    for fill in (10**9, 12):
        monkeypatch.setattr(criticality, "FILL", fill)
        ev = CriticalityEvaluator(cfg)
        tracemalloc.start()
        try:
            ev.columns(start, cfg.max_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ev._entry_cache) >= 90
    assert peaks[1] <= peaks[0] / 3
