"""Episode generation in the exposure and importance environments."""
import dataclasses
import math

import numpy as np
import pytest

from overtake_eval import sampling, stream
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.oracle import brute_force_mu
from overtake_eval.sampling import (
    ENV_NADE,
    ENV_NDE,
    Episode,
    Records,
    _blocks,
    episode_seeds,
    sample_nade_batch,
    sample_nde_batch,
)
import scalar_reference as ref
from scalar_reference import (
    block_columns,
    columns,
    episode_seed,
    from_block,
    likelihood_ratio,
)

from conftest import CONFIGS

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
    (lo, rng, states), = _blocks(seeds, scen)
    assert lo == 0
    got = np.stack([rng.random(np.arange(len(seeds))) for _ in range(steps)],
                   axis=1)
    init = scen.init
    for j, seed in enumerate(seeds.tolist()):
        g = np.random.default_rng(seed)
        assert states[1][j] == g.uniform(init.r1_low, init.r1_high)
        assert got[j].tolist() == g.random(steps).tolist()


def test_draws_advance_only_the_rows_given(scen):
    seeds = episode_seeds(3, ENV_NDE, np.arange(6, dtype=np.uint64))
    rng = stream.Pcg64(seeds)
    live = [np.arange(6), np.array([0, 2, 3, 5]), np.array([2, 5]),
            np.array([5])]
    got = [rng.random(rows) for rows in live]
    for j, seed in enumerate(seeds.tolist()):
        g = np.random.default_rng(seed)
        mine = [u[rows.tolist().index(j)] for u, rows in zip(got, live)
                if j in rows]
        assert mine == g.random(len(mine)).tolist()


def test_initial_state_distribution(scen):
    (_, _, states), = _blocks(episode_seeds(3, ENV_NDE, np.arange(500)), scen)
    init = scen.init
    v_bv, r1, r1_dot, r2, r2_dot = states
    # only the BV-LV range is random
    assert (v_bv == init.v_bv).all() and (r1_dot == init.r1_dot).all()
    assert (r2 == init.r2).all() and (r2_dot == init.r2_dot).all()
    assert ((init.r1_low <= r1) & (r1 < init.r1_high)).all()
    # both quartile tails populated -> actually uniform-ish, not clumped
    assert (r1 < 30.5).sum() > 50 and (r1 > 31.5).sum() > 50


def test_nde_episode_shape(scen):
    recs = sample_nde_batch(7, scen, 43)
    assert isinstance(recs, Records) and recs.env == ENV_NDE
    assert len(recs) == 43
    r = list(recs)[42]
    assert isinstance(r, Episode)
    assert r.index == 42 and r.seed == episode_seed(7, ENV_NDE, 42)
    assert type(r.seed) is int
    assert r.accident in (0, 1)
    assert r.weight == 1.0
    assert r.control_steps == 0
    # an empty CSR log, one column per surrogate
    assert recs.offsets.tolist() == [0] * 44
    assert recs.p.shape == recs.q_alpha.shape == (0,)
    assert recs.q.shape == (0, len(scen.surrogates))


def test_nde_batch_deterministic_and_prefix_stable(scen):
    full = sample_nde_batch(31337, scen, 12)
    again = sample_nde_batch(31337, scen, 12)
    assert block_columns(full) == block_columns(again)
    assert block_columns(sample_nde_batch(31337, scen, 7)) == \
        block_columns(full[:7])
    assert full.index.tolist() == list(range(12))


def test_nade_batch_deterministic_and_prefix_stable(scen):
    ev = CriticalityEvaluator(scen)
    full = sample_nade_batch(31337, scen, 12, evaluator=ev)
    assert block_columns(sample_nade_batch(31337, scen, 12, evaluator=ev)) \
        == block_columns(full)
    assert block_columns(sample_nade_batch(31337, scen, 7, evaluator=ev)) \
        == block_columns(full[:7])
    assert full.env == ENV_NADE


def test_nade_episode_ignores_evaluator_warmth(scen):
    # A shared, warmed-up evaluator must be a pure cache: the sampled
    # records have to match a cold run bit for bit.
    warm = CriticalityEvaluator(scen)
    sample_nade_batch(77, scen, 30, evaluator=warm)  # warm the cache
    a = sample_nade_batch(31337, scen, 20, evaluator=warm)
    b = sample_nade_batch(31337, scen, 20, evaluator=CriticalityEvaluator(scen))
    c = sample_nade_batch(31337, scen, 20, evaluator=None)
    assert block_columns(a) == block_columns(b) == block_columns(c)


# Four roots, walked in blocks that n does not divide: the second and the
# fourth root's rows straddle a block boundary.
MULTI_ROOTS = (5, 2**32 + 1, 0, 31337)


def test_multi_root_nde_call_equals_one_root_calls(scen, monkeypatch):
    n = 700
    singles = [r for root in MULTI_ROOTS
               for r in from_block(sample_nde_batch(root, scen, n))]
    monkeypatch.setattr(sampling, "BLOCK", 500)
    multi = sample_nde_batch(list(MULTI_ROOTS), scen, n)
    assert multi.env == ENV_NDE
    assert block_columns(multi) == columns(singles)
    assert multi.index.tolist() == list(range(n)) * 4
    assert multi.accident.sum() > 0
    assert len(sample_nde_batch([], scen, n)) == 0


def test_multi_root_nade_call_equals_one_root_calls(scen, monkeypatch):
    # The one-root calls share an evaluator warmed by another root; the
    # multi-root call starts cold.
    n = 30
    warm = CriticalityEvaluator(scen)
    sample_nade_batch(77, scen, 30, evaluator=warm)
    singles = [r for root in MULTI_ROOTS for r in from_block(
        sample_nade_batch(root, scen, n, evaluator=warm))]
    monkeypatch.setattr(sampling, "BLOCK", 50)
    multi = sample_nade_batch(list(MULTI_ROOTS), scen, n,
                              evaluator=CriticalityEvaluator(scen))
    assert multi.env == ENV_NADE
    assert block_columns(multi) == columns(singles)
    assert multi.index.tolist() == list(range(n)) * 4
    assert multi.accident.any()
    assert multi.control_steps.any()


@pytest.mark.parametrize("at", [0, 1, 3])
def test_replication_slice_equals_the_replication_alone(scen, at):
    # A replication study fits each replication on its slice of the group's
    # block; the slice must be that replication's own block, critical log
    # and all, wherever its moments start in the group's log.
    n = 40
    roots = [11, 12, 13, 14]
    group = sample_nade_batch(roots, scen, n)
    alone = sample_nade_batch(roots[at], scen, n)
    part = group[at * n:(at + 1) * n]
    assert part.env == ENV_NADE
    assert block_columns(part) == block_columns(alone)
    # the cut falls inside the group's log, between two logged episodes
    assert len(part.p) > 0
    if at:
        assert 0 < group.offsets[at * n] < len(group.p)
        assert group.control_steps[at * n - 1] > 0


def test_nade_weight_equals_density_ratio_product(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(999, scen, 300, evaluator=ev)
    touched = 0
    for r in from_block(recs):
        assert r.weight == likelihood_ratio(r.critical_log)  # exact
        touched += bool(r.critical_log)
    assert touched > 100  # importance actually kicked in


def test_nade_log_densities_are_proper(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(2468, scen, 300, evaluator=ev)
    cap = 1.0 / scen.epsilon + 1e-9
    assert recs.q.shape == (len(recs.p), len(scen.surrogates))
    for p, q_alpha, q in zip(recs.p.tolist(), recs.q_alpha.tolist(),
                             recs.q.tolist()):
        assert 0.0 < p <= 1.0
        assert 0.0 < q_alpha <= 1.0
        assert all(x >= 0.0 for x in q)
        assert q_alpha == pytest.approx(sum(q) / len(q), abs=1e-12)
        assert p / q_alpha <= cap  # epsilon floor caps the weight


def test_nade_respects_control_step_cap(scen):
    ev = CriticalityEvaluator(scen)
    recs = sample_nade_batch(13579, scen, 400, evaluator=ev,
                             max_control_steps=3)
    assert recs.control_steps.max() <= 3
    # and the cap binds somewhere, otherwise this tests nothing
    uncapped = sample_nade_batch(13579, scen, 400, evaluator=ev,
                                 max_control_steps=10)
    assert uncapped.control_steps.max() > 3
    # without a control step nothing is logged and every weight is 1
    none = sample_nade_batch(13579, scen, 400, evaluator=ev,
                             max_control_steps=0)
    assert not none.control_steps.any() and none.q.shape == (0, 3)
    assert (none.weight == 1.0).all()


def test_nde_mean_matches_enumeration(campaign):
    scen = campaign.scenario
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    recs = sample_nde_batch(512, scen, 30_000)
    y = recs.accident.astype(float)
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
        y = recs.weight * recs.accident
        se = y.std(ddof=1) / math.sqrt(len(y))
        assert abs(y.mean() - mu) < 3.5 * se, f"cap={cap}"


def test_nade_importance_actually_oversamples_accidents(scen):
    ev = CriticalityEvaluator(scen)
    nade = sample_nade_batch(888, scen, 1500, evaluator=ev)
    nde = sample_nde_batch(888, scen, 1500)
    # raw accident counts: the tilted environment should find an order of
    # magnitude more crashes than exposure sampling at this budget
    assert nade.accident.sum() > 5 * max(1, nde.accident.sum())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_walk_keys_are_the_cells_of_every_walked_state(name):
    # Brute force: every state of every row's scalar no-cut-in walk, one
    # grid key each, in a set.
    cfg = CONFIGS[name]
    seeds = episode_seeds(5, ENV_NADE, np.arange(200, dtype=np.uint64))
    (_, _, states), = _blocks(seeds, cfg)
    walked = set()
    for t in ref.rows(states):
        k = 0
        while ref.running(t, k, cfg):
            walked.add(ref.ScalarEvaluator.quantize(t))
            t = ref.step_raw(*t, ref.bv_car_following_accel(t, cfg), 0.0,
                             cfg.dt)
            k += 1
    cells = sampling._walk_keys(states, cfg)
    keys = list(map(tuple, cells.tolist()))
    assert cells.dtype == np.int64 and cells.shape == (len(keys), 5)
    assert len(set(keys)) == len(keys)  # deduplicated
    assert set(keys) == walked
    assert len(walked) > 20


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_sampler_fills_the_cache_once_per_block(name, monkeypatch):
    fills = []
    compute = CriticalityEvaluator._compute_challenges

    def counted(self, keys):
        fills.append(len(keys))
        return compute(self, keys)

    monkeypatch.setattr(CriticalityEvaluator, "_compute_challenges", counted)
    cfg = CONFIGS[name]
    ev = CriticalityEvaluator(cfg)
    cold = sample_nade_batch(7, cfg, 300, evaluator=ev)
    assert len(fills) == 1
    # every profile of the walk was a cache hit, so a warm call fills nothing
    fills.clear()
    assert block_columns(sample_nade_batch(7, cfg, 300, evaluator=ev)) == \
        block_columns(cold)
    assert fills == []
    # a call spanning five blocks fills at most once per block
    monkeypatch.setattr(sampling, "BLOCK", 64)
    fills.clear()
    spanning = CriticalityEvaluator(cfg)
    assert block_columns(sample_nade_batch(7, cfg, 300,
                                           evaluator=spanning)) == \
        block_columns(cold)
    assert 1 <= len(fills) <= 5
    assert set(spanning._entry_cache) == set(ev._entry_cache)
