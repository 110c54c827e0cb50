"""Episode generation for the naturalistic and accelerated environments.

Both samplers roll the scenario forward from a random initial gap on the
lockstep array kernel.  A call takes one or several root seeds and returns
episodes ``start .. start+n-1`` of each root, root-major.  ``kernel.walk``
advances the call's episodes in blocks of ``BLOCK`` together up to their
cut-ins, whichever roots they belong to, and one ``kernel.cutin_crashes``
rollout resolves every cut-in of the call, so a replication study hands
one call the episodes of many roots.  Before its cut-in the
background vehicle's law has two atoms, the lane change and following the
leader, and an episode cuts in at a step iff that step's uniform is below
the lane-change mass of the law in force.

The naturalistic sampler always uses the behaviour model's p_R.  The
accelerated sampler asks the criticality evaluator for a profile of the
live episodes at every step: at critical moments, up to the control-step
cap, the law is the mixture importance distribution q_alpha, the densities
at the drawn atom are logged, and the likelihood-ratio weight picks up one
p/q_alpha factor; everywhere else it is p_R.  The cap keeps logs short
without affecting unbiasedness.

Episodes are deterministic functions of ``(root seed, environment, index)``:
an episode's seed is ``SeedSequence((root, env code, index))``'s first
64-bit word, and it draws from ``np.random.default_rng(seed)``: one uniform
for the initial gap, then one per step.  ``stream`` computes both for a
whole block on uint64 arrays, bit for bit as numpy does; a row holds one
128-bit PCG64 state and increment (32 bytes) and is never rebuilt.  So
campaigns are invariant to worker count, scheduling order, block layout and
to which roots share a call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import stream
from .criticality import CriticalityEvaluator
from .kernel import CutIns, bv_law, cutin_crashes, initial_states, walk
from .models import ZeroDensity

ENV_NDE = "nde"
ENV_NADE = "nade"
_ENV_CODES = {ENV_NDE: 0, ENV_NADE: 1}

# Episodes advanced together by either sampler; bounds the arrays held at
# once.  A step's cost is mostly numpy dispatch, not data, up to thousands
# of rows.
BLOCK = 8192

Roots = Union[int, Sequence[int]]


# Records are slotted: a campaign holds one per episode, and the per-instance
# dict would be most of their memory.
@dataclass(frozen=True, slots=True)
class CriticalMoment:
    """One logged critical moment: densities evaluated at the chosen action."""

    p: float
    q_alpha: float
    q: Tuple[float, ...]


@dataclass(frozen=True, slots=True)
class TestRecord:
    """One complete test episode and everything the estimators need from it."""

    __test__ = False  # keep pytest from collecting this as a test class

    index: int
    seed: int
    env: str
    accident: int
    weight: float
    critical_log: Tuple[CriticalMoment, ...] = ()

    @property
    def control_steps(self) -> int:
        return len(self.critical_log)


def episode_seeds(root_seed: int, env: str, idx) -> np.ndarray:
    """Seeds of episodes ``idx``: each is
    ``SeedSequence((root_seed, env code, i)).generate_state(1, np.uint64)[0]``,
    so order-independent."""
    return stream.seeds((root_seed, _ENV_CODES[env]), idx)


class EpisodeDraws:
    """The random inputs of a block of episodes.

    Row j draws what ``np.random.default_rng(seeds[j])`` would: the initial
    BV-LV range (the only random part of the initial state), then one
    uniform per step.  A row holds one 128-bit PCG64 state and increment
    (32 bytes) and nothing is rebuilt: :meth:`at` advances just the rows it
    is given, one step each, so a row must be read exactly once at every
    step it walks, as ``kernel.walk`` does.
    """

    def __init__(self, seeds: np.ndarray, cfg) -> None:
        self.seeds = seeds
        self._rng = stream.Pcg64(seeds)
        init = cfg.init
        r1 = init.r1_low + (init.r1_high - init.r1_low) * self._rng.random()
        self.states = initial_states(r1, init)

    def at(self, rows: np.ndarray) -> np.ndarray:
        """The next step uniform of each of ``rows``."""
        return self._rng.random(rows)


def _blocks(roots: Roots, env: str, cfg, n: int,
            start: int) -> Iterator[Tuple[np.ndarray, EpisodeDraws]]:
    """Episodes ``start .. start+n-1`` of each root, root-major, as blocks
    of up to ``BLOCK`` rows: each block's episode indices and draws."""
    if isinstance(roots, (int, np.integer)):
        roots = [roots]
    idx = np.arange(start, start + n, dtype=np.uint64)
    seeds = np.array([episode_seeds(root, env, idx) for root in roots],
                     dtype=np.uint64).reshape(-1)
    idx = np.tile(idx, len(roots))
    for lo in range(0, len(seeds), BLOCK):
        rows = slice(lo, lo + BLOCK)
        yield idx[rows], EpisodeDraws(seeds[rows], cfg)


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


def _resolve(out: List[TestRecord], found: Sequence[CutIns],
             cfg) -> List[TestRecord]:
    """Mark the records whose cut-ins crash, in one rollout; few do."""
    cut = CutIns.concat(found)
    for j in cut.rows[cutin_crashes(cut.state, cut.budget, cfg)].tolist():
        out[j] = replace(out[j], accident=1)
    return out


def sample_nde_batch(roots: Roots, cfg, n: int,
                     start: int = 0) -> List[TestRecord]:
    """Naturalistic episodes ``start .. start+n-1`` of each root seed in
    ``roots`` (one int or a sequence), root-major, advanced in lockstep."""
    out: List[TestRecord] = []
    found = []
    for idx, draws in _blocks(roots, ENV_NDE, cfg, n, start):
        def decide(k, rows, s):
            p_r, a_bv = bv_law(s, cfg)
            fire = draws_lane_change(draws.at(rows), p_r, 1.0 - p_r)
            return fire, p_r, a_bv

        cut = walk(draws.states, cfg, decide, stay=False)
        found.append(cut._replace(rows=len(out) + cut.rows))
        out.extend(TestRecord(index=i, seed=seed, env=ENV_NDE,
                              accident=0, weight=1.0)
                   for i, seed in zip(idx.tolist(), draws.seeds.tolist()))
    return _resolve(out, found, cfg)


def sample_nade_batch(roots: Roots, cfg, n: int, start: int = 0,
                      evaluator: Optional[CriticalityEvaluator] = None,
                      max_control_steps: int = 10) -> List[TestRecord]:
    """Accelerated episodes ``start .. start+n-1`` of each root seed in
    ``roots`` (one int or a sequence), root-major, advanced in lockstep."""
    if evaluator is None:
        evaluator = CriticalityEvaluator(cfg)
    out: List[TestRecord] = []
    found = []
    for idx, draws in _blocks(roots, ENV_NADE, cfg, n, start):
        weight = np.ones(len(draws.seeds))
        logged = np.zeros(len(draws.seeds), dtype=int)
        moments = []  # (rows, p, q_alpha, q) of each step, in step order

        def decide(k, rows, s):
            prof = evaluator.profile(s)
            p_lc = prof.p_lane_change
            ctl = prof.is_critical & (logged[rows] < max_control_steps)
            m_lc = np.where(ctl, prof.q_alpha_lane_change, p_lc)
            m_f = np.where(ctl, prof.q_alpha_follow, 1.0 - p_lc)
            fire = draws_lane_change(draws.at(rows), m_lc, m_f)
            if ctl.any():
                r, f = rows[ctl], fire[ctl]
                p = np.where(f, p_lc[ctl], 1.0 - p_lc[ctl])
                q_alpha = np.where(f, m_lc[ctl], m_f[ctl])
                q = np.where(f, prof.q_lane_change[:, ctl], prof.q_follow[:, ctl])
                weight[r] = weight[r] * (p / q_alpha)
                logged[r] += 1
                moments.append((r, p, q_alpha, q))
            return fire, p_lc, prof.a_follow

        cut = walk(draws.states, cfg, decide, stay=False)
        found.append(cut._replace(rows=len(out) + cut.rows))
        logs = [[] for _ in draws.seeds]
        for r, p, q_alpha, q in moments:
            for i, m in zip(r.tolist(), zip(p.tolist(), q_alpha.tolist(),
                                            map(tuple, q.T.tolist()))):
                logs[i].append(CriticalMoment(*m))
        out.extend(TestRecord(index=i, seed=seed, env=ENV_NADE,
                              accident=0, weight=w, critical_log=tuple(log))
                   for i, seed, w, log in zip(idx.tolist(), draws.seeds.tolist(),
                                              weight.tolist(), logs))
    return _resolve(out, found, cfg)
