"""Challenge values, criticality, and the importance distributions.

The reference values here come from the absolute-position simulators in
conftest.py, which share no update code with the library.  Each test hands
its states to the batched evaluator in one call.
"""
import dataclasses
import math

import numpy as np
import pytest

import scalar_reference as ref
from overtake_eval import kernel
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.models import MobilParams
from overtake_eval.sampling import sample_nade_batch
from scalar_reference import State, cols

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
    return [grid_state(*(rng.uniform(*b) for b in box)) for _ in range(n)]


def column(prof, field, i):
    """One state's entry of a profile field, as Python floats."""
    value = getattr(prof, field)[..., i].tolist()
    return tuple(value) if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# challenge values against the independent simulator
# ---------------------------------------------------------------------------

def test_lane_change_challenge_matches_absolute_rollouts(scen):
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(1001)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    states = random_grid_states(rng, 150, box)
    got = ev.challenges(cols(states))[0]
    followers = [ref.surrogate_accel(sm) for sm in scen.surrogates]
    for i, s in enumerate(states):
        want = [1.0 if abs_cutin_crash(*s, f, scen, scen.max_steps) else 0.0
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
    got = ev.challenges(cols(states))[1]
    nonzero = 0
    for i, s in enumerate(states):
        walk = abs_no_cutin_walk(s, cfg)
        for j, sm in enumerate(cfg.surrogates):
            f = ref.surrogate_accel(sm)
            want = follow_hazard_recursive(
                walk,
                lambda t: 1.0 if abs_cutin_crash(*t, f, cfg, cfg.max_steps)
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
    prof = ev.profile(cols([s]))
    lc, fol = ev.challenges(cols([s]))

    assert prof.p_lane_change.tolist() == [0.1]  # saturates the cap
    assert lc[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert fol[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert column(prof, "criticalities", 0) == pytest.approx((0.1,) * 3,
                                                             abs=1e-15)
    assert prof.is_critical.tolist() == [True]

    # exposure-weighted mixture: 0.1*0.1 + 0.9*(1*0.1)/0.1 = 0.91 on the
    # lane change, 0.1*0.9 + 0 = 0.09 on following
    assert column(prof, "q_lane_change", 0) == pytest.approx((0.91,) * 3,
                                                             abs=1e-12)
    assert column(prof, "q_follow", 0) == pytest.approx((0.09,) * 3,
                                                        abs=1e-12)
    qa_lc, qa_f = prof.q_alpha_lane_change[0], prof.q_alpha_follow[0]
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
    prof = ev.profile(cols(states))
    lc, fol = ev.challenges(cols(states))
    eps = scen.epsilon
    checked_tilted = 0
    for i in range(len(states)):
        p_lc = prof.p_lane_change[i]
        p_f = 1.0 - p_lc
        for j in range(3):
            cl, cf = lc[j, i], fol[j, i]
            c = prof.criticalities[j, i]
            assert c == pytest.approx(cl * p_lc + cf * p_f, abs=1e-15)
            if c > 0.0:
                want_lc = eps * p_lc + (1 - eps) * cl * p_lc / c
                want_f = eps * p_f + (1 - eps) * cf * p_f / c
                assert prof.q_lane_change[j, i] == pytest.approx(want_lc, abs=1e-14)
                assert prof.q_follow[j, i] == pytest.approx(want_f, abs=1e-14)
                checked_tilted += 1
            else:
                assert prof.q_lane_change[j, i] == p_lc
                assert prof.q_follow[j, i] == p_f
        assert prof.is_critical[i] == any(prof.criticalities[:, i] > 0)
    assert checked_tilted > 10


def test_noncritical_state_keeps_exposure_distribution(scen):
    # Free flow far behind a distant leader: no hazard, no tilt.
    s = grid_state(8.0, 3000.0, 0.0, 30.0, 0.0)
    prof = CriticalityEvaluator(scen).profile(cols([s]))
    assert prof.is_critical.tolist() == [False]
    assert column(prof, "criticalities", 0) == (0.0, 0.0, 0.0)
    assert prof.q_alpha_lane_change.tolist() == prof.p_lane_change.tolist()
    assert prof.q_alpha_follow.tolist() == (1.0 - prof.p_lane_change).tolist()


def test_profile_density_accounting(scen):
    # Importance mass is a probability distribution absolutely continuous
    # w.r.t. exposure, with the epsilon floor intact.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(31415)
    box = [(2, 14), (2, 40), (-8, 2), (0.5, 10), (-8, 2)]
    prof = ev.profile(cols(random_grid_states(rng, 120, box)))
    p_lc = prof.p_lane_change
    total = prof.q_lane_change + prof.q_follow
    assert total == pytest.approx(np.ones_like(total), abs=1e-12)
    floor = scen.epsilon - 1e-15
    assert (prof.q_lane_change >= floor * p_lc).all()
    assert (prof.q_follow >= floor * (1.0 - p_lc)).all()
    mix = prof.q_alpha_lane_change + prof.q_alpha_follow
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
    lc, fol = ev.challenges(cols([a, b]))
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
    cold = ev.challenges(s)
    distinct = {ref.ScalarEvaluator.quantize(State(*c)) for c in zip(*s)}
    assert len(distinct) == len(set(picks.tolist())) > 5
    assert len(computed) == len(distinct) == len(ev._entry_cache)
    assert set(ev._entry_cache) == distinct
    warm = ev.challenges(s)
    assert len(computed) == len(ev._entry_cache) == len(distinct)
    one = CriticalityEvaluator(scen)
    singles = [one.challenges([c[i:i + 1] for c in s]) for i in range(60)]
    for k in range(2):
        want = np.hstack([x[k] for x in singles]).tolist()
        assert cold[k].tolist() == warm[k].tolist() == want


def test_exposure_probability_not_snapped(scen):
    # Challenges are looked up per cell, but the per-state lane-change
    # probability stays exact.
    cfg = dataclasses.replace(scen, mobil=MobilParams(
        politeness=0.0, delta_a_th=0.1, b_safe=5.0, gamma_p=0.011, p_max=0.5))
    ev = CriticalityEvaluator(cfg)
    a = State(8.0, 10.0, -3.0, 2.0, -4.0)
    b = State(8.0, 9.98, -3.0, 2.0, -4.0)
    pa, pb = ev.profile(cols([a, b])).p_lane_change.tolist()
    assert pa == ref.mobil_right_lc_prob(a, cfg.mobil, cfg.bv_idm)
    assert pb == ref.mobil_right_lc_prob(b, cfg.mobil, cfg.bv_idm)
    assert pa != pb
    assert len(ev._entry_cache) == 1


def test_evaluation_order_does_not_change_results(scen):
    rng = np.random.default_rng(9021)
    box = [(4, 12), (3, 30), (-6, 0), (0.5, 8), (-7, 2)]
    s = cols(random_grid_states(rng, 30, box))
    fwd = CriticalityEvaluator(scen).challenges(s)
    rev = CriticalityEvaluator(scen).challenges([c[::-1] for c in s])
    one_by_one = CriticalityEvaluator(scen)
    singles = [one_by_one.challenges([c[i:i + 1] for c in s]) for i in range(8)]
    for got, ref_ in zip(fwd, rev):
        assert got.tolist() == ref_[:, ::-1].tolist()
    for k in range(2):
        assert fwd[k][:, :8].tolist() == np.hstack([x[k] for x in singles]).tolist()


# ---------------------------------------------------------------------------
# per-surrogate views of a profile
# ---------------------------------------------------------------------------

def test_maneuver_challenge_selects_action_component(scen):
    # The profile's criticalities combine the cached challenges per
    # surrogate, and its per-surrogate densities line up with them row for
    # row.
    ev = CriticalityEvaluator(scen)
    s = cols([grid_state(8.0, 10.0, -3.0, 2.0, -4.0),
              grid_state(8.0, 3000.0, 0.0, 30.0, 0.0)])
    lc, fol = ev.challenges(s)
    prof = ev.profile(s)
    p = prof.p_lane_change
    assert lc.shape == fol.shape == prof.criticalities.shape == (3, 2)
    assert prof.criticalities.tolist() == (lc * p + fol * (1.0 - p)).tolist()
    assert prof.q_lane_change.shape == prof.q_follow.shape == (3, 2)
    assert prof.p_lane_change.shape == prof.q_alpha_follow.shape == (2,)


def test_criticality_combines_challenges_with_exposure(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    lc, fol = ev.challenges(cols([s]))
    p = ref.mobil_right_lc_prob(s, scen.mobil, scen.bv_idm, scen.vehicle_length)
    prof = ev.profile(cols([s]))
    for j in range(len(scen.surrogates)):
        assert prof.criticalities[j, 0] == pytest.approx(
            lc[j, 0] * p + fol[j, 0] * (1 - p), abs=1e-15)


def test_importance_fn_matches_profile(scen):
    ev = CriticalityEvaluator(scen)
    s = grid_state(8.0, 10.0, -3.0, 2.0, -4.0)
    prof = ev.profile(cols([s]))
    assert prof.p_lane_change.tolist() == kernel.bv_law(cols([s]), scen).tolist()
    assert prof.q_alpha_lane_change[0] == \
        ((prof.q_lane_change[0, 0] + prof.q_lane_change[1, 0])
         + prof.q_lane_change[2, 0]) / 3


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
    lc_solo, fol_solo = solo.challenges(s)
    lc_wide, fol_wide = wide.challenges(s)
    assert (lc_solo[0, 0], fol_solo[0, 0]) == (lc_wide[-1, 0], fol_wide[-1, 0])
    assert lc_wide[:-1].tolist() == \
        CriticalityEvaluator(scen).challenges(s)[0].tolist()


def test_surrogates_disagree_somewhere(scen):
    # The panel only earns its keep if its members label some cut-in
    # differently.
    ev = CriticalityEvaluator(scen)
    rng = np.random.default_rng(2718)
    box = [(2, 12), (3, 40), (-6, 2), (0.3, 10), (-8, 2)]
    lc = ev.challenges(cols(random_grid_states(rng, 80, box)))[0]
    votes = lc.sum(axis=0)
    assert ((0.0 < votes) & (votes < 3.0)).any()
