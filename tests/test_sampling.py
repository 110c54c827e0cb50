"""Episode generation in the exposure and importance environments."""
import dataclasses
import math

import numpy as np
import pytest

from overtake_eval import sampling
from overtake_eval.config import CampaignConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.oracle import brute_force_mu
from overtake_eval.sampling import (
    ENV_NADE,
    ENV_NDE,
    EpisodeDraws,
    TestRecord,
    episode_seeds,
    sample_nade_batch,
    sample_nde_batch,
)
from scalar_reference import episode_seed

from conftest import recomputed_weight

# Roots of one to four 32-bit words; 10**40 takes five, so its entropy
# reaches SeedSequence's mixing loop for words past the pool.
ROOTS = (0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 + 5, 10**40)
INDICES = np.array(list(range(3000)) + [2**31, 2**32 - 1], dtype=np.uint64)


@pytest.mark.parametrize("root", ROOTS)
def test_episode_seeds_equal_numpy_seed_sequence(root):
    for env in (ENV_NDE, ENV_NADE):
        want = [episode_seed(root, env, i) for i in INDICES.tolist()]
        assert episode_seeds(root, env, INDICES).tolist() == want


def test_episode_seeds_take_two_words_for_wide_indices():
    idx = np.array([5, 2**32, 2**40 + 3, 7, 2**64 - 1], dtype=np.uint64)
    want = [episode_seed(9, ENV_NADE, i) for i in idx.tolist()]
    assert episode_seeds(9, ENV_NADE, idx).tolist() == want


def test_episode_seeds_separate_index_and_environment():
    idx = np.arange(200, dtype=np.uint64)
    seen = set()
    for env in (ENV_NDE, ENV_NADE):
        seen.update(episode_seeds(12345, env, idx).tolist())
    assert len(seen) == 400
    assert (episode_seeds(12345, ENV_NDE, idx[:1])
            != episode_seeds(54321, ENV_NDE, idx[:1]))


def test_episode_seeds_reject_a_negative_root():
    with pytest.raises(ValueError):
        episode_seeds(-1, ENV_NDE, np.arange(3, dtype=np.uint64))


@pytest.mark.parametrize("root", ROOTS)
def test_draws_equal_numpy_default_rng(scen, root):
    # 40 steps: past the 16- and 32-step refills of a block-drawing stream.
    steps = 40
    seeds = episode_seeds(root, ENV_NADE, INDICES[::15])
    seeds = np.concatenate([np.array([0], dtype=np.uint64), seeds])
    draws = EpisodeDraws(seeds, scen)
    got = np.stack([draws.at(np.arange(len(seeds))) for _ in range(steps)],
                   axis=1)
    init = scen.init
    for j, seed in enumerate(seeds.tolist()):
        g = np.random.default_rng(seed)
        assert draws.states[1][j] == g.uniform(init.r1_low, init.r1_high)
        assert got[j].tolist() == g.random(steps).tolist()


def test_draws_advance_only_the_rows_given(scen):
    seeds = episode_seeds(3, ENV_NDE, np.arange(6, dtype=np.uint64))
    draws = EpisodeDraws(seeds, scen)
    live = [np.arange(6), np.array([0, 2, 3, 5]), np.array([2, 5]),
            np.array([5])]
    got = [draws.at(rows) for rows in live]
    for j, seed in enumerate(seeds.tolist()):
        g = np.random.default_rng(seed)
        g.random()  # the initial range
        mine = [u[rows.tolist().index(j)] for u, rows in zip(got, live)
                if j in rows]
        assert mine == g.random(len(mine)).tolist()


def test_initial_state_distribution(scen):
    draws = EpisodeDraws(episode_seeds(3, ENV_NDE, np.arange(500)), scen)
    init = scen.init
    v_bv, r1, r1_dot, r2, r2_dot = draws.states
    # only the BV-LV range is random
    assert (v_bv == init.v_bv).all() and (r1_dot == init.r1_dot).all()
    assert (r2 == init.r2).all() and (r2_dot == init.r2_dot).all()
    assert ((init.r1_low <= r1) & (r1 < init.r1_high)).all()
    # both quartile tails populated -> actually uniform-ish, not clumped
    assert (r1 < 30.5).sum() > 50 and (r1 > 31.5).sum() > 50


def test_nde_episode_shape(scen):
    [r] = sample_nde_batch(7, scen, 1, start=42)
    assert isinstance(r, TestRecord)
    assert r.index == 42 and r.seed == episode_seed(7, ENV_NDE, 42)
    assert type(r.seed) is int
    assert r.env == ENV_NDE
    assert r.accident in (0, 1)
    assert r.weight == 1.0
    assert r.critical_log == ()
    assert r.control_steps == 0
    assert recomputed_weight(r) == 1.0


def test_nde_batch_deterministic_and_offsettable(scen):
    full = sample_nde_batch(31337, scen, 12)
    again = sample_nde_batch(31337, scen, 12)
    assert full == again
    head = sample_nde_batch(31337, scen, 7)
    tail = sample_nde_batch(31337, scen, 5, start=7)
    assert head + tail == full
    assert [r.index for r in full] == list(range(12))


def test_nade_batch_deterministic_and_offsettable(scen):
    ev = CriticalityEvaluator(scen)
    full = sample_nade_batch(31337, scen, 12, evaluator=ev)
    head = sample_nade_batch(31337, scen, 7, evaluator=ev)
    tail = sample_nade_batch(31337, scen, 5, start=7, evaluator=ev)
    assert head + tail == full
    assert all(r.env == ENV_NADE for r in full)


def test_nade_episode_ignores_evaluator_warmth(scen):
    # A shared, warmed-up evaluator must be a pure cache: the sampled
    # records have to match a cold run bit for bit.
    warm = CriticalityEvaluator(scen)
    sample_nade_batch(77, scen, 30, evaluator=warm)  # warm the cache
    a = sample_nade_batch(31337, scen, 20, evaluator=warm)
    b = sample_nade_batch(31337, scen, 20, evaluator=CriticalityEvaluator(scen))
    c = sample_nade_batch(31337, scen, 20, evaluator=None)
    assert a == b == c


def _fields(records):
    return [(r.index, r.seed, r.env, r.accident, r.weight, r.critical_log)
            for r in records]


# Four roots, walked in blocks that n does not divide: the second and the
# fourth root's rows straddle a block boundary.
MULTI_ROOTS = (5, 2**32 + 1, 0, 31337)


def test_multi_root_nde_call_equals_one_root_calls(scen, monkeypatch):
    n, start = 700, 11
    singles = [r for root in MULTI_ROOTS
               for r in sample_nde_batch(root, scen, n, start=start)]
    monkeypatch.setattr(sampling, "BLOCK", 500)
    multi = sample_nde_batch(list(MULTI_ROOTS), scen, n, start=start)
    assert _fields(multi) == _fields(singles)
    assert [r.index for r in multi] == list(range(start, start + n)) * 4
    assert sum(r.accident for r in multi) > 0
    assert sample_nde_batch([], scen, n) == []


def test_multi_root_nade_call_equals_one_root_calls(scen, monkeypatch):
    # The one-root calls share an evaluator warmed by another root; the
    # multi-root call starts cold.
    n, start = 30, 4
    warm = CriticalityEvaluator(scen)
    sample_nade_batch(77, scen, 30, evaluator=warm)
    singles = [r for root in MULTI_ROOTS
               for r in sample_nade_batch(root, scen, n, start=start,
                                          evaluator=warm)]
    monkeypatch.setattr(sampling, "BLOCK", 50)
    multi = sample_nade_batch(list(MULTI_ROOTS), scen, n, start=start,
                              evaluator=CriticalityEvaluator(scen))
    assert _fields(multi) == _fields(singles)
    assert [r.index for r in multi] == list(range(start, start + n)) * 4
    assert any(r.accident for r in multi)
    assert any(r.critical_log for r in multi)


def test_nade_weight_equals_density_ratio_product(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(999, scen, 300, evaluator=ev)
    touched = 0
    for r in recs:
        assert r.weight == recomputed_weight(r)  # exact, not approx
        touched += bool(r.critical_log)
    assert touched > 100  # importance actually kicked in


def test_nade_log_densities_are_proper(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(2468, scen, 300, evaluator=ev)
    cap = 1.0 / scen.epsilon + 1e-9
    for r in recs:
        for m in r.critical_log:
            assert 0.0 < m.p <= 1.0
            assert 0.0 < m.q_alpha <= 1.0
            assert len(m.q) == len(scen.surrogates)
            assert all(q >= 0.0 for q in m.q)
            assert m.q_alpha == pytest.approx(sum(m.q) / len(m.q), abs=1e-12)
            assert m.p / m.q_alpha <= cap  # epsilon floor caps the weight


def test_nade_respects_control_step_cap(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(13579, scen, 400, evaluator=ev,
                             max_control_steps=3)
    assert max(r.control_steps for r in recs) <= 3
    # and the cap binds somewhere, otherwise this tests nothing
    uncapped = sample_nade_batch(13579, scen, 400, evaluator=ev,
                                 max_control_steps=10)
    assert max(r.control_steps for r in uncapped) > 3


def test_nde_mean_matches_enumeration(campaign):
    scen = campaign.scenario
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    recs = sample_nde_batch(512, scen, 30_000)
    y = np.array([r.accident for r in recs], dtype=float)
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - mu) < 3.5 * se


def test_nade_mean_matches_enumeration_any_cap(campaign):
    # The importance weights keep the estimate unbiased whether or not the
    # per-episode control budget saturates.
    scen = campaign.scenario
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    ev = CriticalityEvaluator(scen)
    for cap in (2, 10):
        recs = sample_nade_batch(4096, scen, 4000, evaluator=ev,
                                 max_control_steps=cap)
        y = np.array([r.weight * r.accident for r in recs])
        se = y.std(ddof=1) / math.sqrt(len(y))
        assert abs(y.mean() - mu) < 3.5 * se, f"cap={cap}"


def test_nade_importance_actually_oversamples_accidents(scen):
    ev = CriticalityEvaluator(scen)
    nade = sample_nade_batch(888, scen, 1500, evaluator=ev)
    nde = sample_nde_batch(888, scen, 1500)
    # raw accident counts: the tilted environment should find an order of
    # magnitude more crashes than exposure sampling at this budget
    assert sum(r.accident for r in nade) > 5 * max(1, sum(r.accident for r in nde))
