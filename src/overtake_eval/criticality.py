"""Criticality of pre-cut-in moments, and importance distributions built on it.

For a pre-cut-in state the background vehicle has exactly two options: cut in
now, or keep following its leader.  A panel of surrogate follower models is
used to score how dangerous each option is:

* the *challenge* of cutting in now is 1 or 0 depending on whether a
  deterministic rollout with the surrogate driving the follower ends in
  contact;
* the challenge of staying put is the probability that a cut-in at some later
  moment of the (deterministic) no-cut-in continuation ends in contact,
  accumulated over the lane-change hazard at each of those moments.

Combining the challenges with the naturalistic action probabilities gives a
per-surrogate *criticality* (the probability, one step ahead and beyond, of a
surrogate-predicted accident) and an exponentially tilted *importance
distribution* over the two actions.  The mixture of the per-surrogate
importance distributions is what the accelerated sampler draws from.

Challenge evaluation snaps the query state to a 0.1 m / 0.1 m/s grid and
evaluates the snapped representative, so that repeated queries hit a cache
whose values depend only on the grid cell, never on visit order or on which
other cells are filled alongside.  The naturalistic probabilities entering
criticalities and importance weights are always evaluated at the exact state.

Everything runs on the lockstep kernel: a profile covers a batch of states,
and the cells a batch sees for the first time are filled together, their
no-cut-in walks in lockstep (``kernel.no_cutin_walk``) and every
surrogate's cut-in rollouts in one ``kernel.cutin_crashes`` call per
surrogate per fill.  The accelerated sampler fills the cache once per
block, before its walk: every cell the walk can query lies on its
episodes' no-cut-in walks, so each profile it asks for is a cache hit.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .kernel import (
    State,
    bv_law,
    cutin_crashes,
    no_cutin_walk,
    surrogate_accel,
)

__all__ = ["CriticalityProfile", "CriticalityEvaluator"]

Key = Tuple[int, ...]


class CriticalityProfile(NamedTuple):
    """Everything the accelerated sampler needs to know about a batch of
    moments, one column per queried state.

    Per-surrogate arrays have one row per surrogate, ordered like the panel
    in the configuration.  ``p_lane_change`` is exact for the queried
    state; the criticalities come from the challenges of its grid
    representative (:meth:`CriticalityEvaluator.challenges`).  A profile
    holds densities only: the follow step is ``kernel.walk``'s own.
    """

    p_lane_change: np.ndarray          # (m,)
    criticalities: np.ndarray          # (J, m)
    q_lane_change: np.ndarray          # (J, m)
    q_follow: np.ndarray               # (J, m)
    q_alpha_lane_change: np.ndarray    # (m,)
    q_alpha_follow: np.ndarray         # (m,)

    @property
    def is_critical(self) -> np.ndarray:
        return (self.criticalities > 0.0).any(axis=0)


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


def _panel_mean(q: np.ndarray) -> np.ndarray:
    """Equal-weight mixture over the panel, added left to right: Python's
    float ``sum`` is compensated from 3.12 on, which moves the last bit."""
    total = 0.0
    for row in q:
        total = total + row
    return total / len(q)


class CriticalityEvaluator:
    """Caches challenge evaluations on a 0.1-resolution state grid.

    Cache values are pure functions of the grid key (they are computed from
    the snapped representative state with exact dynamics inside), so results
    do not depend on query order and the evaluator can be shared freely
    across episodes, replications, and workers.  ``_entry_cache`` maps each
    key filled so far to its column of ``_table``, which stacks the
    lane-change and follow challenge vectors: one entry per cache miss.
    A miss is a key filled, whether a profile asked for it or a sampler
    block filled it ahead of its walk (:meth:`fill`).
    """

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self._accels = [surrogate_accel(sm) for sm in cfg.surrogates]
        self._entry_cache: Dict[Key, int] = {}
        self._table = np.empty((2, len(cfg.surrogates), 0))

    # -- challenge machinery ----------------------------------------------

    def _crashes(self, s: State) -> np.ndarray:
        """(J, m) contact indicators for a cut-in at each state, one row per
        surrogate driving the follower, with the full step budget."""
        budget = np.full(len(s[0]), self.cfg.max_steps)
        return np.array([cutin_crashes(s, budget, self.cfg, accel)
                         for accel in self._accels], dtype=float)

    def _compute_challenges(self, keys: List[Key]) -> np.ndarray:
        """(2, J, n) lane-change and follow challenges of the grid keys."""
        cfg = self.cfg
        rep = list(np.array(keys, dtype=float).T / 10.0)

        # The moments after each representative on its no-cut-in walk: a
        # cut-in is possible at each of them.
        walks = no_cutin_walk(rep, cfg)
        next(walks)
        suffix = list(walks)

        # Cut-ins along the walks: moments with zero lane-change probability
        # contribute nothing, so only the others are rolled out, together
        # with the cut-ins at the representatives themselves.
        at = np.cumsum([0] + [r.size for r, _ in suffix])
        later = [np.concatenate(c) for c in zip(*(t for _, t in suffix))] \
            if suffix else [np.empty(0)] * 5
        p_r = bv_law(later, cfg)
        hot = p_r > 0.0
        crash = self._crashes([np.concatenate([x, y[hot]])
                               for x, y in zip(rep, later)])
        lane_change = crash[:, :len(keys)]
        crash_later = np.zeros((len(self._accels), len(p_r)))
        crash_later[:, hot] = crash[:, len(keys):]

        # Accumulate backwards: at each later moment the lane change either
        # fires (and crashes or not) or the walk continues.
        follow = np.zeros((len(self._accels), len(keys)))
        for i in reversed(range(len(suffix))):
            span = slice(at[i], at[i + 1])
            fire = hot[span]
            r, p = suffix[i][0][fire], p_r[span][fire]
            cr = crash_later[:, span][:, fire]
            follow[:, r] = p * cr + (1.0 - p) * follow[:, r]
        return np.stack([lane_change, follow])

    def fill(self, cells: np.ndarray) -> np.ndarray:
        """The ``_table`` column of each of the distinct grid cells
        ``cells`` (int rows); the ones not cached yet are computed in one
        batch."""
        cache = self._entry_cache
        keys = list(map(tuple, cells.tolist()))
        missing = [k for k in keys if k not in cache]
        if missing:
            base = self._table.shape[2]
            self._table = np.concatenate(
                [self._table, self._compute_challenges(missing)], axis=2)
            cache.update((k, base + i) for i, k in enumerate(missing))
        return np.array([cache[k] for k in keys], dtype=np.intp)

    def challenges(self, s: State) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(lane-change, follow)`` challenges of the states ``s``,
        each (J, m).  The batch's grid cells are deduplicated in numpy, so
        each distinct cell is looked up once; the ones not seen before are
        computed in one batch."""
        cells, inverse = distinct_rows(grid_cells(s))
        at = self.fill(cells)[inverse]
        lane_change, follow = self._table[:, :, at]
        return lane_change, follow

    # -- profile assembly ---------------------------------------------------

    def profile(self, s: State) -> CriticalityProfile:
        """Profiles of the pre-cut-in states ``s``, in one batch."""
        cfg = self.cfg
        p_lc = bv_law(s, cfg)
        p_follow = 1.0 - p_lc
        ch_lc, ch_follow = self.challenges(s)
        crits = ch_lc * p_lc + ch_follow * p_follow

        eps = cfg.epsilon
        tilt = crits > 0.0
        c = np.where(tilt, crits, 1.0)
        q_lc = np.where(tilt, eps * p_lc + (1.0 - eps) * (ch_lc * p_lc) / c, p_lc)
        q_follow = np.where(
            tilt, eps * p_follow + (1.0 - eps) * (ch_follow * p_follow) / c,
            p_follow)
        return CriticalityProfile(
            p_lane_change=p_lc,
            criticalities=crits,
            q_lane_change=q_lc,
            q_follow=q_follow,
            q_alpha_lane_change=_panel_mean(q_lc),
            q_alpha_follow=_panel_mean(q_follow),
        )
