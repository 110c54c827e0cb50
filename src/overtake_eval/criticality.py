"""Criticality of pre-cut-in moments, and importance distributions built on it.

For a pre-cut-in state the background vehicle has exactly two options: cut in
now, or keep following its leader.  A panel of surrogate follower models is
used to score how dangerous each option is:

* the *challenge* of cutting in now is 1 or 0 depending on whether a
  deterministic rollout with the surrogate driving the follower reaches
  contact before the follower stops closing in, within the step budget
  (``kernel.cutin_crashes`` with ``until_clear``);
* the challenge of keeping its lane is the probability that a cut-in at a
  later moment of the (deterministic) no-cut-in continuation does so,
  accumulated over the lane-change hazard at each of those moments.

The challenges only shape the importance distribution: the accelerated
estimators remain unbiased for any challenge, because every tilted law keeps
at least ``epsilon`` times the naturalistic mass on each action.  Ending a
surrogate's rollout when the cut-in conflict is resolved measures that
conflict, as the "maneuver challenge" of Feng et al. (Nat. Commun. 2021)
does, and keeps a fill's panel rollout to a few lockstep steps.

Combining the challenges with the naturalistic action probabilities gives a
per-surrogate *criticality* (the probability, one step ahead and beyond, of a
surrogate-predicted accident) and an exponentially tilted *importance
distribution* over the two actions.  The mixture of the per-surrogate
importance distributions is what the accelerated sampler draws from.

Challenge evaluation snaps the query state to a 0.1 m / 0.1 m/s grid and
evaluates the snapped representative, so that repeated queries hit a cache
whose values depend only on the grid cell, never on visit order or on which
other cells are filled alongside.  The naturalistic probabilities entering
criticality and importance weights are always those of the exact state:
the p_R that ``kernel.no_cutin_walk`` yields with it.

Everything runs on the lockstep kernel.  The cache fills on a miss of
:meth:`CriticalityEvaluator.columns`, with every cell on the no-cut-in
walks (``kernel.no_cutin_walk``) of the queried states: an episode's later
states lie on its walk, so a sampler block fills at most once.  New cells
are filled in batches of at most ``FILL``.  A batch walks in lockstep and
collects the cut-ins it can fire as ``kernel.CutIns``, as the samplers and
the oracle do, rolls them out in one ``kernel.cutin_crashes`` call per
surrogate and weighs them by the p_R the walk yields.  A profile takes a
walk's p_R and the cache columns of its states, and never fills.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .kernel import (
    CutIns,
    State,
    cutin_crashes,
    no_cutin_walk,
    ordered_sum,
    surrogate_accel,
)

__all__ = ["CriticalityProfile", "CriticalityEvaluator"]

Key = Tuple[int, ...]
FILL = 512  # most cells per fill batch: a batch holds its walks' cut-ins


class CriticalityProfile(NamedTuple):
    """Everything the accelerated sampler needs to know about a batch of
    moments, one column per queried state.

    Axis 0 of ``p``, ``q`` and ``q_alpha`` is the BV's two-atom law, lane
    change first as in ``CriticalityEvaluator._table``: the naturalistic
    law, each surrogate's tilted law (one row per surrogate, in panel
    order) and their equal-weight mixture, folded by ``kernel.ordered_sum``
    in panel order.  ``p`` is exact for the queried state; the tilt comes
    from the challenges of its grid representative.  A profile holds
    densities only: the follow step is ``kernel.no_cutin_walk``'s own.
    """

    p: np.ndarray              # (2, m)
    q: np.ndarray              # (2, J, m)
    q_alpha: np.ndarray        # (2, m)
    is_critical: np.ndarray    # (m,)


def grid_cells(s: State) -> np.ndarray:
    """The grid cell of each state, one int row per state: every coordinate
    in tenths, rounded half to even."""
    return np.rint(np.array(s).T * 10.0).astype(np.int64)


def distinct_rows(grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the int array ``grid``, sorted, and the index
    of each row of ``grid`` among them."""
    order = np.lexsort(grid.T)
    g = grid[order]
    new = np.ones(len(g), dtype=bool)
    new[1:] = (g[1:] != g[:-1]).any(axis=1)
    inverse = np.empty(len(g), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return g[new], inverse


class CriticalityEvaluator:
    """Caches challenge evaluations on a 0.1-resolution state grid.

    Cache values are pure functions of the grid key (they are computed from
    the snapped representative state with exact dynamics inside), so results
    do not depend on query order and the evaluator can be shared freely
    across episodes, replications, and workers.  ``_entry_cache`` maps each
    key filled so far to its column of ``_table``, which stacks the
    lane-change and follow challenge vectors: one entry per key that
    :meth:`columns` filled on a miss, at most once per sampler block.
    """

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self._accels = [surrogate_accel(sm) for sm in cfg.surrogates]
        self._entry_cache: Dict[Key, int] = {}
        self._table = np.empty((2, len(cfg.surrogates), 0))

    # -- challenge machinery ----------------------------------------------

    def _compute_challenges(self, keys: List[Key]) -> np.ndarray:
        """(2, J, n) lane-change and follow challenges of a batch of keys,
        from their ``CutIns``, collected as the samplers' and the oracle's."""
        cfg, n = self.cfg, len(keys)
        rep = np.array(keys, dtype=float).T / 10.0

        # The cut-ins at the representatives, then along their no-cut-in
        # walks step by step: a moment with zero lane-change probability
        # contributes nothing, so only the others are kept.
        found = [CutIns(np.arange(n), rep, np.full(n, cfg.max_steps))]
        hazard = []
        for rows, s, p_r in islice(no_cutin_walk(rep, cfg), 1, None):
            hot = p_r > 0.0
            found.append(CutIns.fired(rows, s, hot, cfg.max_steps))
            hazard.append(p_r[hot])
        cut = CutIns.concat(found)
        crash = np.array([cutin_crashes(cut.state, cut.budget, cfg, law,
                                        until_clear=True)
                          for law in self._accels], dtype=float)
        lane_change, *later = np.split(
            crash, np.cumsum([len(f.rows) for f in found[:-1]]), axis=1)

        # Accumulate backwards: at each later moment the lane change either
        # fires (and crashes or not) or the walk continues.
        follow = np.zeros((len(self._accels), n))
        for f, p, cr in reversed(list(zip(found[1:], hazard, later))):
            follow[:, f.rows] = p * cr + (1.0 - p) * follow[:, f.rows]
        return np.stack([lane_change, follow])

    def columns(self, s: State, horizon: int) -> np.ndarray:
        """The ``_table`` column of each of the states ``s``.  On a miss it
        first fills every cell on the no-cut-in walks from ``s``, ``horizon``
        states long: they hold all later states, so a block fills once."""
        cells, back = distinct_rows(grid_cells(s))
        keys = list(map(tuple, cells.tolist()))
        cache = self._entry_cache
        if not all(map(cache.__contains__, keys)):
            self._fill(s, horizon)
        return np.array([cache[k] for k in keys], dtype=np.intp)[back]

    def _fill(self, s: State, horizon: int) -> None:
        """Fill the new cells of ``s`` and of their walks (p_R unread), in
        batches of at most ``FILL``; each step's are deduplicated once."""
        walk = islice(no_cutin_walk(s, self.cfg), 1, horizon)
        cells = [distinct_rows(grid_cells(t))[0]
                 for t in chain([s], (t for _, t, _ in walk))]
        distinct, _ = distinct_rows(np.concatenate(cells))
        cache = self._entry_cache
        missing = [k for k in map(tuple, distinct.tolist()) if k not in cache]
        first = self._table.shape[2]
        parts = [missing[i:i + FILL] for i in range(0, len(missing), FILL)]
        self._table = np.concatenate(
            [self._table, *map(self._compute_challenges, parts)], axis=2)
        cache.update((k, first + i) for i, k in enumerate(missing))

    # -- profile assembly ---------------------------------------------------

    def profile(self, p_lc: np.ndarray,
                cols: np.ndarray) -> CriticalityProfile:
        """Profiles of moments with the lane-change probabilities ``p_lc``
        (a walk's p_R) and states' table columns ``cols``; never fills."""
        p = np.stack([p_lc, 1.0 - p_lc])
        weighted = self._table[:, :, cols] * p[:, None]
        crits = weighted[0] + weighted[1]
        tilt = crits > 0.0
        eps = self.cfg.epsilon
        q = np.where(tilt, eps * p[:, None] + (1.0 - eps) * weighted
                     / np.where(tilt, crits, 1.0), p[:, None])
        q_alpha = ordered_sum(q.swapaxes(0, 1)) / q.shape[1]
        return CriticalityProfile(p, q, q_alpha, tilt.any(axis=0))
