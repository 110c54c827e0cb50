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

All bins walk their no-cut-in trajectories in lockstep on the array kernel
(``kernel.no_cutin_walk``), which yields ``p_R`` with every walked state.
Every cut-in with ``p_R > 0`` is resolved in one batched rollout, and the
sum is then accumulated per bin in step order, so each bin's ``mu(r)`` is
the value a scalar walk of that bin produces.
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
)

__all__ = ["BudgetExceeded", "brute_force_mu", "bin_midpoints"]


class BudgetExceeded(RuntimeError):
    """The enumeration would exceed the configured leaf-evaluation budget."""


def bin_midpoints(low: float, high: float, bins: int) -> List[float]:
    width = (high - low) / bins
    return [low + (b + 0.5) * width for b in range(bins)]


def brute_force_mu(cfg, bins: int = 64, budget: int = 10_000_000) -> float:
    """Reference accident rate: midpoint quadrature of ``mu(r)`` over the
    initial-range distribution.

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
    found, p_r = [], []
    for k, (rows, s, p) in enumerate(islice(walk, cfg.max_steps)):
        hot = p > 0.0
        found.append(CutIns.fired(rows, s, hot, cfg.max_steps - k))
        p_r.append(p[hot])
    cut = CutIns.concat(found)
    crashed = cutin_crashes(cut.state, cut.budget, cfg)
    # Fold one step at a time; a bin fires at most once per step, so each
    # bin sums in the scalar order.
    mu, survive, at = np.zeros(bins), np.ones(bins), 0
    for step, p in zip(found, p_r):
        b, hit = step.rows, crashed[at:at + len(p)]
        at += len(p)
        mu[b] = np.where(hit, mu[b] + survive[b] * p, mu[b])
        survive[b] = survive[b] * (1.0 - p)
    # Added left to right: Python's float ``sum`` is compensated from 3.12
    # on, which moves the last bit.
    total = 0.0
    for x in mu.tolist():
        total += x
    return total / bins
