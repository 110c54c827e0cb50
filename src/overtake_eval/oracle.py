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

All bins walk their no-cut-in trajectories in lockstep on the array kernel,
every cut-in with ``p_R > 0`` is resolved in one batched rollout and its
``p_R`` in one call, and the sum is then accumulated per bin in step
order, so each bin's ``mu(r)`` is the value a scalar walk of that bin
produces.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .kernel import bv_law, cutin_crashes, initial_states, walk

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
    up to ``max_steps + 1`` states would exceed the leaf budget.
    """
    leaves = bins * (cfg.max_steps + 1)
    if leaves > budget:
        raise BudgetExceeded(
            f"{bins} bins x {cfg.max_steps + 1} states = {leaves} leaf "
            f"evaluations exceeds the budget of {budget}")
    mids = bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, bins)

    cut = walk(initial_states(mids, cfg.init), cfg,
               lambda rows, s: bv_law(s, cfg) > 0.0, stay=True)
    p_r = bv_law(cut.state, cfg)
    crashed = cutin_crashes(cut.state, cut.budget, cfg)[0]
    mu = np.zeros(bins)
    survive = np.ones(bins)
    # Fold one step at a time (the budget counts the steps down); a bin
    # fires at most once per step, so each bin sums in the scalar order.
    for left in sorted(set(cut.budget.tolist()), reverse=True):
        at = cut.budget == left
        b, p = cut.rows[at], p_r[at]
        mu[b] = np.where(crashed[at], mu[b] + survive[b] * p, mu[b])
        survive[b] = survive[b] * (1.0 - p)
    # Added left to right: Python's float ``sum`` is compensated from 3.12
    # on, which moves the last bit.
    total = 0.0
    for x in mu.tolist():
        total += x
    return total / bins
