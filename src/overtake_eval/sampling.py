"""Episode generation for the naturalistic and accelerated environments.

Both samplers roll the scenario forward from a random initial gap on the
lockstep array kernel.  A call takes one or several root seeds and returns
episodes ``0 .. n-1`` of each root, root-major.  ``kernel.walk`` advances
the call's episodes in blocks of ``BLOCK`` together up to their cut-ins,
whichever roots they belong to, and one ``kernel.cutin_crashes`` rollout
resolves every cut-in of the call, so a replication study hands one call
the episodes of many roots.  The walks only collect each episode's cut-in
and, step by step, the densities logged as arrays; the call's
:class:`Records` block is built once, after that rollout has marked the
accidents.  Before its cut-in the background vehicle's law has two atoms,
the lane change and following the leader, and an episode cuts in at a step
iff that step's uniform is below the lane-change mass of the law in force;
a sampler's ``decide`` says only that, and the walk takes the follow step
of the others.

The naturalistic sampler always uses the behaviour model's p_R.  The
accelerated sampler decides from a criticality profile of the live
episodes at every step: at critical moments, up to the control-step cap,
the law is the mixture importance distribution q_alpha and the densities
at the drawn atom are logged; everywhere else it is p_R.  An episode's
weight is the product of p/q_alpha over its moments in log order
(:func:`log_product`), so a record's ``w`` can be recomputed from its log
bit for bit.  The cap keeps logs short without affecting unbiasedness.  An
episode's pre-cut-in states do not depend on its draws: until it cuts in,
it follows its no-cut-in walk (``kernel.no_cutin_walk``).  So the
evaluator's cache is filled once per block, from those walks, before the
block's walk starts, and every profile the walk asks for is a cache hit.

Episodes are deterministic functions of ``(root seed, environment, index)``
(:func:`episode_seeds`, :func:`_blocks`), bit for bit as numpy's own
generators would draw them.  So records are invariant to block layout and
to which roots share a call, and a replication study's rows to how its
replications are split among workers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import stream
from .criticality import CriticalityEvaluator, distinct_rows, grid_cells
from .kernel import (
    CutIns,
    bv_law,
    cutin_crashes,
    initial_states,
    no_cutin_walk,
    walk,
)
from .models import ZeroDensity

ENV_NDE = "nde"
ENV_NADE = "nade"
_ENV_CODES = {ENV_NDE: 0, ENV_NADE: 1}

# Episodes advanced together by either sampler; bounds the arrays held at
# once.  A step's cost is mostly numpy dispatch, not data, up to thousands
# of rows.
BLOCK = 8192

Roots = Union[int, Sequence[int]]


# One episode's scalar fields as Python values, as iterating a block yields.
Episode = namedtuple("Episode", "index seed accident weight control_steps")


@dataclass(frozen=True, eq=False)
class Records:
    """Episodes of one environment as columns: ``index``, ``seed``,
    ``accident`` and ``weight`` per episode, and the critical logs in CSR
    form.  Episode i's moments are rows ``offsets[i]:offsets[i + 1]`` of
    ``p``, ``q_alpha`` and the (moments, J) ``q``, in log order: the
    naturalistic, mixture and per-surrogate densities of the drawn atom.
    A slice of episodes is a block too."""

    env: str
    index: np.ndarray
    seed: np.ndarray
    accident: np.ndarray
    weight: np.ndarray
    offsets: np.ndarray
    p: np.ndarray
    q_alpha: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def control_steps(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __getitem__(self, span: slice) -> "Records":
        lo, hi, _ = span.indices(len(self))
        hi = max(lo, hi)
        a, b = self.offsets[lo], self.offsets[hi]
        return Records(self.env, self.index[lo:hi], self.seed[lo:hi],
                       self.accident[lo:hi], self.weight[lo:hi],
                       self.offsets[lo:hi + 1] - a, self.p[a:b],
                       self.q_alpha[a:b], self.q[a:b])

    def __iter__(self) -> Iterator[Episode]:
        return map(Episode, self.index.tolist(), self.seed.tolist(),
                   self.accident.tolist(), self.weight.tolist(),
                   self.control_steps.tolist())


def episode_seeds(root_seed: int, env: str, idx) -> np.ndarray:
    """Seeds of episodes ``idx``: each is
    ``SeedSequence((root_seed, env code, i)).generate_state(1, np.uint64)[0]``,
    so order-independent."""
    return stream.seeds((root_seed, _ENV_CODES[env]), idx)


def _episodes(roots: Roots, env: str,
              n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index and seed of episodes ``0 .. n-1`` of each root, root-major."""
    if isinstance(roots, (int, np.integer)):
        roots = [roots]
    idx = np.arange(n, dtype=np.uint64)
    seeds = np.array([episode_seeds(root, env, idx) for root in roots],
                     dtype=np.uint64).reshape(-1)
    return np.tile(idx, len(roots)), seeds


def _blocks(seeds: np.ndarray, cfg
            ) -> Iterator[Tuple[int, stream.Pcg64, List[np.ndarray]]]:
    """The episodes of ``seeds`` in blocks of up to ``BLOCK`` rows: each
    block's first row, its generators and its initial states.

    Row j draws what ``np.random.default_rng(seeds[j])`` would: the initial
    BV-LV range (the only random part of the initial state), then one
    uniform per step.  ``Pcg64.random(rows)`` advances just the rows it is
    given, so a row must be read exactly once at every step it walks, as
    ``kernel.walk`` does.
    """
    init = cfg.init
    for lo in range(0, len(seeds), BLOCK):
        rng = stream.Pcg64(seeds[lo:lo + BLOCK])
        r1 = init.r1_low + (init.r1_high - init.r1_low) * rng.random()
        yield lo, rng, initial_states(r1, init)


def _walk_keys(s, cfg) -> np.ndarray:
    """The distinct grid cells of every state the walk of a block with
    initial states ``s`` can profile, deduplicated step by step in numpy:
    each row's no-cut-in walk while the AV has not passed it, up to the
    step budget.  A walk that reaches leader contact stops there;
    ``kernel.walk`` raises ``NonPositiveGap`` if a live episode gets that
    far."""
    run = ~(s[3] < 0.0)
    cells = [distinct_rows(grid_cells(t))[0] for _, t in islice(
        no_cutin_walk([x[run] for x in s], cfg), cfg.max_steps)]
    return distinct_rows(np.concatenate(
        [np.empty((0, len(s)), dtype=np.int64)] + cells))[0]


def log_product(offsets: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Per episode, the product of ``ratios`` (one row per logged moment,
    CSR ``offsets``) over its moments: from 1.0, left to right in log
    order, so an episode's weight is its log's ``p / q_alpha`` product and
    a ``w`` read back can be checked bit for bit."""
    steps = np.diff(offsets)
    out = np.ones((len(steps),) + ratios.shape[1:])
    rows, k = np.flatnonzero(steps), 0
    while rows.size:
        out[rows] *= ratios[offsets[rows] + k]
        k += 1
        rows = rows[steps[rows] > k]
    return out


def draws_lane_change(u: np.ndarray, m_lc: np.ndarray,
                      m_f: np.ndarray) -> np.ndarray:
    """Rows whose uniform ``u`` draws the lane change from the two-atom law
    with masses ``(m_lc, m_f)``, lane change first.

    That is ``u < m_lc``, except that an atom without positive mass is
    never drawn: when the follow atom has none, the lane change is drawn
    even if rounding leaves ``u >= m_lc``.  A law with no positive mass at
    all raises ZeroDensity.
    """
    lc, follow = m_lc > 0.0, m_f > 0.0
    if np.any(~lc & ~follow):
        raise ZeroDensity("cannot sample from a law without positive mass")
    return (u < m_lc) | (lc & ~follow)


def _records(env: str, idx: np.ndarray, seeds: np.ndarray,
             found: Sequence[CutIns], log: Sequence[Tuple[np.ndarray, ...]],
             cfg) -> Records:
    """The call's records, built once: one rollout resolves every cut-in
    of the call (few crash) and marks the accidents.  ``log`` holds each
    step's ``(rows, p, q_alpha, q)`` in step order; a stable sort by row
    puts them in log order, and each weight is its log's product of
    ``p / q_alpha`` (1 for an empty log)."""
    cut = CutIns.concat(found)
    accident = np.zeros(len(seeds), dtype=np.int64)
    accident[cut.rows[cutin_crashes(cut.state, cut.budget, cfg)]] = 1
    empty = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0),
             np.empty((0, len(cfg.surrogates))))
    rows, p, q_alpha, q = map(np.concatenate, zip(empty, *log))
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(len(seeds) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(seeds)), out=offsets[1:])
    p, q_alpha = p[order], q_alpha[order]
    return Records(env, idx.astype(np.int64), seeds, accident,
                   log_product(offsets, p / q_alpha), offsets, p, q_alpha,
                   q[order])


def sample_nde_batch(roots: Roots, cfg, n: int) -> Records:
    """Naturalistic episodes ``0 .. n-1`` of each root seed in ``roots``
    (one int or a sequence), root-major, advanced in lockstep."""
    idx, seeds = _episodes(roots, ENV_NDE, n)
    found = []
    for lo, rng, states in _blocks(seeds, cfg):
        def decide(rows, s):
            p_r = bv_law(s, cfg)
            return draws_lane_change(rng.random(rows), p_r, 1.0 - p_r)

        cut = walk(states, cfg, decide, stay=False)
        found.append(cut._replace(rows=lo + cut.rows))
    return _records(ENV_NDE, idx, seeds, found, (), cfg)


def sample_nade_batch(roots: Roots, cfg, n: int,
                      evaluator: Optional[CriticalityEvaluator] = None,
                      max_control_steps: int = 10) -> Records:
    """Accelerated episodes ``0 .. n-1`` of each root seed in ``roots``
    (one int or a sequence), root-major, advanced in lockstep."""
    if evaluator is None:
        evaluator = CriticalityEvaluator(cfg)
    idx, seeds = _episodes(roots, ENV_NADE, n)
    logged = np.zeros(len(seeds), dtype=int)
    log: List[Tuple[np.ndarray, ...]] = []
    found = []
    for lo, rng, states in _blocks(seeds, cfg):
        evaluator.fill(_walk_keys(states, cfg))

        def decide(rows, s):
            prof = evaluator.profile(s)
            p_lc = prof.p_lane_change
            ctl = prof.is_critical & (logged[lo + rows] < max_control_steps)
            m_lc = np.where(ctl, prof.q_alpha_lane_change, p_lc)
            m_f = np.where(ctl, prof.q_alpha_follow, 1.0 - p_lc)
            fire = draws_lane_change(rng.random(rows), m_lc, m_f)
            if ctl.any():
                r, f = lo + rows[ctl], fire[ctl]
                logged[r] += 1
                log.append((r, np.where(f, p_lc[ctl], 1.0 - p_lc[ctl]),
                            np.where(f, m_lc[ctl], m_f[ctl]),
                            np.where(f, prof.q_lane_change[:, ctl],
                                     prof.q_follow[:, ctl]).T))
            return fire

        cut = walk(states, cfg, decide, stay=False)
        found.append(cut._replace(rows=lo + cut.rows))
    return _records(ENV_NADE, idx, seeds, found, log, cfg)
