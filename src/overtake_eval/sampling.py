"""Episode generation for the naturalistic and accelerated environments.

Both samplers roll the scenario forward from a random initial gap on the
lockstep array kernel.  A call takes one or several root seeds and returns
episodes ``0 .. n-1`` of each root, root-major.  ``kernel.no_cutin_walk``
advances the call's episodes in blocks of ``BLOCK`` together up to their
cut-ins, whichever roots they belong to, and one ``kernel.cutin_crashes``
rollout of the tested vehicle resolves every cut-in of the call with the
whole step budget (a NADE block's cache fill adds one rollout per
surrogate per batch, until each conflict is resolved), so a replication
study hands one call the episodes of many roots.  A sampler reads each
episode's cut-in off the walk and logs densities as arrays, and the call's
:class:`Records` block is built once, after that rollout has marked the
accidents.  Before its cut-in the background vehicle's law has two atoms,
the lane change and following the leader.  The walk yields each live
episode's state with its naturalistic lane-change probability p_R, and
follows with the acceleration p_R was computed against.  An episode cuts
in at a step iff that step's uniform is below the lane-change mass of the
law in force.  A sampler decides only that and clears the episodes that
cut in from the walk's live mask; the walk steps the others, and raises if
one of them reaches the leader.

The naturalistic sampler draws from the walk's p_R as it is.  The
accelerated sampler decides from a criticality profile of the live
episodes at every step, built from the walk's p_R and the cache columns
of their states: at every critical moment the law is the mixture
importance distribution q_alpha, and the log keeps p, q_alpha and each
surrogate's q_j at the drawn atom; everywhere else the law is p_R.  An
episode's weight is the product of p/q_alpha over its moments in log
order (:func:`log_product`), so a record's ``w`` can be recomputed from
its log bit for bit.  An episode's pre-cut-in states do not depend on
its draws: until it cuts in, it follows its no-cut-in walk.  So a block
walks once, and the evaluator's cache fills on a miss, at most once per
block, with the walks of the episodes still live at that step
(:meth:`CriticalityEvaluator.columns`).

Episodes are deterministic functions of ``(root seed, environment, index)``
(:func:`episode_seeds`).  An episode's draws are counter-based: draw n is
SplitMix64's n-th output from its seed (:func:`uniform`; Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014), a
function of the seed and n alone, with no generator state carried from
step to step.  So records are invariant to block layout and to which roots
share a call, and a replication study's rows to how its replications are
split among workers.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .criticality import CriticalityEvaluator
from .kernel import (
    CutIns,
    cutin_crashes,
    initial_states,
    no_cutin_walk,
)
from .models import ZeroDensity

ENV_NDE = "nde"
ENV_NADE = "nade"
_ENV_CODES = {ENV_NDE: 0, ENV_NADE: 1}

# Episodes advanced together by either sampler; bounds the arrays held at
# once.  A default-config walk step takes 61/75/121/312/586 us at 64/256/
# 1,024/4,096/8,192 rows (Xeon, min of 15): dispatch dominates only below a
# few hundred; at 8,192 its two ``np.float_power`` calls are about a third.
BLOCK = 8192

# SplitMix64's increment γ, a Python int so that n·γ mod 2**64 is exact,
# and the multipliers and shifts of its output mix.  Every constant that
# meets an array is an ``np.uint64``: under NumPy 1.x, uint64 mixed with a
# Python or int64 integer promotes to float64.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1
_U = np.uint64
_M1, _M2 = _U(0xBF58476D1CE4E5B9), _U(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U(11), _U(27), _U(30), _U(31)

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
    A contiguous slice of episodes (step 1) is a block too."""

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
        lo, hi, step = span.indices(len(self))
        if step != 1:
            raise ValueError(f"a block slice has step 1, not {step}")
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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array: a bijection that
    scrambles every bit.  Arrays wrap silently where numpy scalars would
    warn, so only arrays come here."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def episode_seeds(root_seed: int, env: str, idx) -> np.ndarray:
    """Seeds of episodes ``idx``: SplitMix64's mix folded over the root
    seed's 64-bit words (least significant first, so every non-negative
    root has its own seeds), the environment code and the index.  As
    ``_mix`` is a bijection, one root's episodes have distinct seeds."""
    root = operator.index(root_seed)
    if root < 0:
        raise ValueError("expected non-negative integer")
    words = [root & _MASK64]
    while root >> 64 * len(words):
        words.append(root >> 64 * len(words) & _MASK64)
    h = np.zeros(1, dtype=np.uint64)
    for w in [*words, _ENV_CODES[env], idx]:
        h = _mix(h + _U(_GAMMA) + np.asarray(w, dtype=np.uint64))
    return h


def uniform(seeds: np.ndarray, n: int) -> np.ndarray:
    """Draw ``n`` (from 1) of the episodes ``seeds``: SplitMix64's n-th
    output from each seed, ``mix(seed + n·γ)``, as a double in [0, 1)."""
    z = _mix(seeds + _U(n * _GAMMA & _MASK64))
    return (z >> _S11).astype(np.float64) * 2.0 ** -53


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
            ) -> Iterator[Tuple[int, np.ndarray, List[np.ndarray]]]:
    """The episodes of ``seeds`` in blocks of up to ``BLOCK`` rows: each
    block's first row, its seeds and its initial states.

    Draw 1 of a row is its initial BV-LV range (the only random part of
    the initial state); walk step k takes draw k + 2.
    """
    init = cfg.init
    for lo in range(0, len(seeds), BLOCK):
        block = seeds[lo:lo + BLOCK]
        r1 = init.r1_low + (init.r1_high - init.r1_low) * uniform(block, 1)
        yield lo, block, initial_states(r1, init)


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
    for lo, block, states in _blocks(seeds, cfg):
        live = np.ones(len(block), dtype=bool)
        for k, (rows, s, p_r) in enumerate(
                islice(no_cutin_walk(states, cfg, live), cfg.max_steps)):
            fire = draws_lane_change(uniform(block[rows], k + 2), p_r,
                                     1.0 - p_r)
            live[rows[fire]] = False
            found.append(CutIns.fired(lo + rows, s, fire, cfg.max_steps - k))
    return _records(ENV_NDE, idx, seeds, found, (), cfg)


def sample_nade_batch(roots: Roots, cfg, n: int,
                      evaluator: Optional[CriticalityEvaluator] = None
                      ) -> Records:
    """Accelerated episodes ``0 .. n-1`` of each root seed in ``roots``
    (one int or a sequence), root-major, advanced in lockstep."""
    if evaluator is None:
        evaluator = CriticalityEvaluator(cfg)
    idx, seeds = _episodes(roots, ENV_NADE, n)
    log: List[Tuple[np.ndarray, ...]] = []
    found = []
    for lo, block, states in _blocks(seeds, cfg):
        live = np.ones(len(block), dtype=bool)
        for k, (rows, s, p_r) in enumerate(
                islice(no_cutin_walk(states, cfg, live), cfg.max_steps)):
            prof = evaluator.profile(
                p_r, evaluator.columns(s, cfg.max_steps - k))
            ctl = prof.is_critical
            law = np.where(ctl, prof.q_alpha, prof.p)
            fire = draws_lane_change(uniform(block[rows], k + 2), *law)
            if ctl.any():
                atom = np.where(fire[ctl], 0, 1)
                log.append((lo + rows[ctl], prof.p[atom, ctl],
                            law[atom, ctl], prof.q[atom, :, ctl]))
            live[rows[fire]] = False
            found.append(CutIns.fired(lo + rows, s, fire, cfg.max_steps - k))
    return _records(ENV_NADE, idx, seeds, found, log, cfg)
