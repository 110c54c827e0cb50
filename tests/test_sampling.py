"""Episode generation in the exposure and importance environments."""
import dataclasses
import math
import warnings
from itertools import islice

import numpy as np
import pytest

from overtake_eval import criticality, kernel, sampling
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
    uniform,
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

# Roots of one to three 64-bit words, and indices up to the top of uint64.
ROOTS = (0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 + 5, 10**40)
INDICES = np.array(list(range(3000)) + [2**31, 2**32 - 1, 2**40 + 3,
                                        2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("root", ROOTS)
def test_episode_seeds_equal_reference(root):
    for env in (ENV_NDE, ENV_NADE):
        want = [episode_seed(root, env, i) for i in INDICES.tolist()]
        assert episode_seeds(root, env, INDICES).tolist() == want


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


def test_roots_a_word_apart_have_their_own_streams():
    idx = np.arange(1000, dtype=np.uint64)
    for env in (ENV_NDE, ENV_NADE):
        low = set(episode_seeds(5, env, idx).tolist())
        assert not low & set(episode_seeds(2**64 + 5, env, idx).tolist())


@pytest.mark.parametrize("root", ROOTS)
def test_draws_equal_reference(scen, root):
    # The vectorised counter form against the sequential generator.
    steps = 40
    seeds = episode_seeds(root, ENV_NADE, INDICES[::15])
    seeds = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), seeds])
    (lo, block, states), = _blocks(seeds, scen)
    assert lo == 0 and block.tolist() == seeds.tolist()
    got = np.stack([uniform(block, k + 2) for k in range(steps)], axis=1)
    init = scen.init
    for j, seed in enumerate(seeds.tolist()):
        g = ref.SplitMix64(seed)
        assert states[1][j] == g.uniform(init.r1_low, init.r1_high)
        assert got[j].tolist() == [g.random() for _ in range(steps)]


def test_draws_depend_only_on_seed_and_step():
    seeds = episode_seeds(3, ENV_NDE, np.arange(6, dtype=np.uint64))
    for n, rows in enumerate([np.arange(6), np.array([0, 2, 3, 5]),
                              np.array([5, 2]), np.array([5])], start=1):
        assert uniform(seeds[rows], n).tolist() == \
            uniform(seeds, n)[rows].tolist()


def test_draws_are_uniform_and_uncorrelated():
    # 10k episodes x 100 draws of root 2023, fixed before looking.
    from scipy import stats

    seeds = episode_seeds(2023, ENV_NDE, np.arange(10_000, dtype=np.uint64))
    u = np.stack([uniform(seeds, n) for n in range(1, 101)])
    assert stats.kstest(u.ravel(), "uniform").pvalue > 1e-3
    # A correlation over ~1M pairs has standard error about 1e-3.
    within = np.corrcoef(u[:-1].ravel(), u[1:].ravel())[0, 1]
    across = np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]
    assert abs(within) < 5e-3 and abs(across) < 5e-3


def test_sampling_near_the_top_of_uint64_does_not_warn(scen):
    # numpy warns on uint64 overflow of scalars, not of arrays.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for root in (2**64 - 1, 2**64 - 2):
            episode_seeds(root, ENV_NDE, np.uint64(2**64 - 1))
            sample_nde_batch(root, scen, 30)
            sample_nade_batch(root, scen, 30)


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


def test_a_block_slice_refuses_a_step():
    recs = sample_nde_batch(3, CONFIGS["default"], 10)
    assert block_columns(recs[2:7:1]) == block_columns(recs[2:7])
    for span in (slice(None, None, 2), slice(None, None, -1)):
        with pytest.raises(ValueError, match="step"):
            recs[span]


def test_a_passed_start_fills_no_cache_cell(scen):
    # At r2 < 0 the AV has passed every start, so no row walks: a NADE block
    # profiles no state, and its cache fill walks none either.
    passed = dataclasses.replace(scen, init=dataclasses.replace(scen.init,
                                                                r2=-1.0))
    (_, _, states), = _blocks(episode_seeds(3, ENV_NADE, np.arange(
        500, dtype=np.uint64)), passed)
    rows, _, _ = next(kernel.no_cutin_walk(states, passed))
    assert rows.size == 0
    ev = CriticalityEvaluator(passed)
    recs = sample_nade_batch(3, passed, 500, evaluator=ev)
    assert ev._entry_cache == {}
    assert not recs.accident.any() and not recs.control_steps.any()
    assert recs.weight.tolist() == [1.0] * 500


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
    for p, q_alpha, (q0, q1, q2) in zip(
            recs.p.tolist(), recs.q_alpha.tolist(), recs.q.tolist()):
        assert 0.0 < p <= 1.0
        assert 0.0 < q_alpha <= 1.0
        assert min(q0, q1, q2) >= 0.0
        assert q_alpha == ((q0 + q1) + q2) / 3  # the panel mean, bit for bit
        assert p / q_alpha <= cap  # epsilon floor caps the weight


def test_nade_without_critical_moments_logs_nothing(scen):
    # p_max = 0: the BV never cuts in, so no moment is critical, nothing is
    # logged and every weight is 1
    cfg = dataclasses.replace(scen, mobil=dataclasses.replace(scen.mobil,
                                                              p_max=0.0))
    none = sample_nade_batch(13579, cfg, 400)
    assert not none.control_steps.any() and none.q.shape == (0, 3)
    assert (none.weight == 1.0).all()


def test_nde_mean_matches_enumeration(campaign):
    scen = campaign.scenario
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    recs = sample_nde_batch(512, scen, 30_000)
    y = recs.accident.astype(float)
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - mu) < 3.5 * se


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_mean_matches_enumeration(campaign, name):
    # The importance weights keep the estimate unbiased however many
    # critical moments an episode logs: up to 6 by default, 39 when long.
    scen = CONFIGS[name]
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    recs = sample_nade_batch(4096, scen, 4000)
    y = recs.weight * recs.accident
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - mu) < 3.5 * se


def test_nade_beats_nde_when_episodes_log_many_moments(campaign):
    # At r2 = 10 an episode logs up to 19 critical moments and the
    # decisive ones come late: drawing only the first ten from q_alpha
    # leaves NADE at about NDE's relative variance.
    scen = campaign.scenario
    scen = dataclasses.replace(scen, init=dataclasses.replace(scen.init,
                                                              r2=10.0))
    mu = brute_force_mu(scen, campaign.oracle_bins, campaign.oracle_budget)
    recs = sample_nade_batch(2207, scen, 2000)
    y = recs.accident * recs.weight
    assert y.var() / mu ** 2 < 0.1 * (1.0 - mu) / mu
    assert recs.control_steps.max() > 10


def test_nade_importance_actually_oversamples_accidents(scen):
    ev = CriticalityEvaluator(scen)
    nade = sample_nade_batch(888, scen, 1500, evaluator=ev)
    nde = sample_nde_batch(888, scen, 1500)
    # raw accident counts: the tilted environment should find an order of
    # magnitude more crashes than exposure sampling at this budget
    assert nade.accident.sum() > 5 * max(1, nde.accident.sum())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_fill_holds_the_cells_of_every_walked_state(name):
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
    ev = CriticalityEvaluator(cfg)
    cols = ev.columns(states, cfg.max_steps)
    assert set(ev._entry_cache) == walked
    assert len(walked) > 20
    # Every state gets the column of its own cell: the block's starts, and
    # every later state of their walks without a further fill.
    key_of = {col: key for key, col in ev._entry_cache.items()}
    assert [key_of[c] for c in cols.tolist()] == \
        [ref.ScalarEvaluator.quantize(t) for t in ref.rows(states)]
    for _, s, _ in islice(kernel.no_cutin_walk(states, cfg), cfg.max_steps):
        assert [key_of[c] for c in ev.columns(s, 1).tolist()] == \
            [ref.ScalarEvaluator.quantize(t) for t in ref.rows(s)]
    assert set(ev._entry_cache) == walked


def _watch_fills(monkeypatch):
    """Record, per cache fill, its horizon, the sampler block (the count of
    the sampler's walks so far) and its ``_compute_challenges`` batches,
    and check that the batches take consecutive slices of at most
    ``FILL`` of the fill's sorted missing keys."""
    fills, blocks = [], [0]
    compute = CriticalityEvaluator._compute_challenges
    fill, walk = CriticalityEvaluator._fill, sampling.no_cutin_walk

    def counted(self, keys):
        fills[-1]["batches"].append(list(keys))
        return compute(self, keys)

    def checked(self, s, horizon):
        before = len(self._entry_cache)
        fills.append({"horizon": horizon, "block": blocks[0], "batches": []})
        fill(self, s, horizon)
        cache = self._entry_cache
        missing = sorted(cache, key=cache.get)[before:]
        batches, size = fills[-1]["batches"], criticality.FILL
        # ceil(missing / FILL) calls of at most FILL keys each, taking
        # consecutive slices of the fill's sorted missing keys
        assert missing and len(batches) == -(-len(missing) // size)
        assert all(len(b) <= size for b in batches)
        assert [k for b in batches for k in b] == missing
        assert missing == sorted(missing, key=lambda k: k[::-1])

    def counted_walk(*args):
        blocks[0] += 1
        return walk(*args)

    monkeypatch.setattr(CriticalityEvaluator, "_compute_challenges", counted)
    monkeypatch.setattr(CriticalityEvaluator, "_fill", checked)
    monkeypatch.setattr(sampling, "no_cutin_walk", counted_walk)
    return fills, blocks


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_sampler_fills_the_cache_once_per_block(name, monkeypatch):
    fills, blocks = _watch_fills(monkeypatch)
    cfg, block = CONFIGS[name], sampling.BLOCK
    for size in (criticality.FILL, 40):
        monkeypatch.setattr(criticality, "FILL", size)
        monkeypatch.setattr(sampling, "BLOCK", block)
        fills.clear()
        blocks[0] = 0
        ev = CriticalityEvaluator(cfg)
        cold = sample_nade_batch(7, cfg, 300, evaluator=ev)
        assert [f["horizon"] for f in fills] == [cfg.max_steps]
        # every profile of the walk was a cache hit, so a warm call fills
        # nothing
        fills.clear()
        assert block_columns(sample_nade_batch(7, cfg, 300, evaluator=ev)) \
            == block_columns(cold)
        assert fills == []
        # A call spanning five blocks fills at most once per block, the
        # first block from its start.  A later block fills only the walks
        # of the episodes still live at its first miss, so its cache may
        # hold fewer cells than the one block's fill from the start.
        monkeypatch.setattr(sampling, "BLOCK", 64)
        fills.clear()
        blocks[0] = 0
        spanning = CriticalityEvaluator(cfg)
        assert block_columns(sample_nade_batch(7, cfg, 300,
                                               evaluator=spanning)) == \
            block_columns(cold)
        assert blocks[0] == 5
        assert fills[0]["block"] == 1
        assert fills[0]["horizon"] == cfg.max_steps
        assert len({f["block"] for f in fills}) == len(fills)
        assert set(spanning._entry_cache) <= set(ev._entry_cache)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_block_walks_once_and_looks_ahead_only_on_a_miss(name,
                                                             monkeypatch):
    # The sampler walks each block once, masked, cold or warm; the
    # unmasked look-ahead walk is the fill's own, made on a miss.
    cfg = CONFIGS[name]
    fills, blocks = _watch_fills(monkeypatch)
    looks, walk = [0], criticality.no_cutin_walk

    def counted_look(*args):
        looks[0] += 1
        return walk(*args)

    monkeypatch.setattr(criticality, "no_cutin_walk", counted_look)
    ev = CriticalityEvaluator(cfg)
    sample_nade_batch(7, cfg, 300, evaluator=ev)
    assert blocks[0] == 1 and len(fills) == 1
    # one look-ahead, then one walk of each batch's representatives
    assert looks[0] == 1 + len(fills[0]["batches"])
    fills.clear()
    blocks[0] = looks[0] = 0
    sample_nade_batch(7, cfg, 300, evaluator=ev)
    assert blocks[0] == 1 and fills == [] and looks[0] == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nade_block_first_missing_at_a_later_step_fills_once(name,
                                                            monkeypatch):
    # With only its starts' cells cached, a block first misses at a step
    # k > 0, and fills there the walks of its live episodes, cfg.max_steps
    # - k states long: every later state of theirs lies on them.
    cfg = CONFIGS[name]
    cold = CriticalityEvaluator(cfg)
    want = block_columns(sample_nade_batch(7, cfg, 300, evaluator=cold))
    (_, _, states), = _blocks(
        episode_seeds(7, ENV_NADE, np.arange(300, dtype=np.uint64)), cfg)
    ev = CriticalityEvaluator(cfg)
    ev.columns(states, 1)
    horizons, fills = [], []
    columns, fill = CriticalityEvaluator.columns, CriticalityEvaluator._fill

    def counted_columns(self, s, horizon):
        horizons.append(horizon)
        return columns(self, s, horizon)

    def counted_fill(self, s, horizon):
        fills.append((len(horizons) - 1, horizon))
        fill(self, s, horizon)

    monkeypatch.setattr(CriticalityEvaluator, "columns", counted_columns)
    monkeypatch.setattr(CriticalityEvaluator, "_fill", counted_fill)
    assert block_columns(sample_nade_batch(7, cfg, 300, evaluator=ev)) == want
    # the sampler asks step k's columns with horizon cfg.max_steps - k
    assert horizons == [cfg.max_steps - k for k in range(len(horizons))]
    (k, horizon), = fills
    assert k > 0 and horizon == cfg.max_steps - k
    assert set(ev._entry_cache) <= set(cold._entry_cache)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_fill_equals_one_fill(name, monkeypatch):
    # Cache values are pure functions of the grid key, so fills of at most
    # five cells build the same table, bit for bit, as fills of any size.
    cfg = CONFIGS[name]
    runs = []
    for fill in (10**9, 5):
        monkeypatch.setattr(criticality, "FILL", fill)
        ev = CriticalityEvaluator(cfg)
        got = block_columns(sample_nade_batch(7, cfg, 300, evaluator=ev))
        runs.append((ev._table.tobytes(), ev._table.shape, ev._entry_cache,
                     got))
    assert runs[0] == runs[1]
