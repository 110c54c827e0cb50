"""Brute-force reference value for the accident rate.

The naturalistic process has exactly two sources of randomness: the initial
BV-LV range and the per-step binary cut-in decision.  Everything between
cut-in decisions is deterministic, so the accident rate conditional on the
initial range is a finite sum over cut-in times:

    mu(r) = sum_k  prod_{k' < k} (1 - p_R(s_k')) * p_R(s_k) * crash(s_k)

where ``crash`` deterministically resolves a cut-in at step k against the
vehicle under test with the remaining step budget.  The initial range is
integrated by midpoint quadrature over equal-width bins, which is the sole
approximation; the quoted value is exact up to that binning.

All bins walk their no-cut-in trajectories once, in lockstep on the array
kernel (``kernel.no_cutin_walk``), and keep each bin's survival probability
and, at every state with ``p_R > 0``, the path mass ``survival * p_R`` of
cutting in there.  One batched rollout resolves those cut-ins, and one
ordered scatter adds the crashing masses into each bin's ``mu(r)`` in step
order, the value a scalar walk of that bin produces.
"""

from __future__ import annotations

from itertools import islice
from typing import List

import numpy as np

from .kernel import (
    CutIns,
    cutin_crashes,
    initial_states,
    no_cutin_walk,
    ordered_sum,
)

__all__ = ["BudgetExceeded", "brute_force_mu", "bin_midpoints"]


class BudgetExceeded(RuntimeError):
    """The enumeration would exceed the configured leaf-evaluation budget."""


def bin_midpoints(low: float, high: float, bins: int) -> List[float]:
    width = (high - low) / bins
    return [low + (b + 0.5) * width for b in range(bins)]


def brute_force_mu(cfg, bins: int = 64, budget: int = 10_000_000) -> float:
    """Reference accident rate: midpoint quadrature of ``mu(r)`` over the
    initial-range distribution, from one walk of the bins that keeps each
    (bin, step) path mass and one ordered scatter of the crashing ones.

    Raises BudgetExceeded before doing any work if ``bins`` trajectories of
    up to ``max_steps + 1`` states would exceed the leaf budget, and
    NonPositiveGap if a bin's walk reaches leader contact.
    """
    leaves = bins * (cfg.max_steps + 1)
    if leaves > budget:
        raise BudgetExceeded(
            f"{bins} bins x {cfg.max_steps + 1} states = {leaves} leaf "
            f"evaluations exceeds the budget of {budget}")
    mids = bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, bins)

    init = initial_states(mids, cfg.init)
    walk = no_cutin_walk(init, cfg, np.ones(bins, dtype=bool))
    survive, found, mass = np.ones(bins), [], []
    for k, (rows, s, p) in enumerate(islice(walk, cfg.max_steps)):
        hot = p > 0.0
        found.append(CutIns.fired(rows, s, hot, cfg.max_steps - k))
        b, p = rows[hot], p[hot]
        mass.append(survive[b] * p)
        survive[b] = survive[b] * (1.0 - p)
    cut = CutIns.concat(found)
    crashed = cutin_crashes(cut.state, cut.budget, cfg)
    # ``bincount`` adds its weights in input order: step order per bin.
    mu = np.bincount(cut.rows[crashed], np.concatenate(mass)[crashed],
                     minlength=bins)
    return ordered_sum(mu.tolist()) / bins
