"""Lockstep array kernel for the naturalistic dynamics.

Many episodes (or oracle bins) advance together on numpy arrays of the
reduced state ``(v_bv, r1, r1_dot, r2, r2_dot)``: IDM, stochastic MOBIL,
the kinematic step, the pre-cut-in walk and the post-cut-in rollout of the
vehicle under test.  Each function is the elementwise form of a scalar one
in ``models`` or ``scenario`` and reproduces it bit for bit: the operation
order is the same, ``**`` becomes ``np.float_power`` (``np.power`` takes a
SIMD path on some hosts that rounds differently from C ``pow``), and
Python's ``max``/``min``/``if`` become ``np.where`` on the same comparison,
so ties, signed zeros and NaNs resolve alike.  Errors match too: any live
row with a closed gap raises ``NonPositiveGap``.

FVDM has no array form, because ``np.tanh`` and ``math.tanh`` disagree in
the last bit on about a quarter of inputs; the criticality evaluator,
which drives the surrogate panel, therefore stays scalar.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

from .models import IdmParams, MobilParams, NonPositiveGap

State = Sequence[np.ndarray]  # (v_bv, r1, r1_dot, r2, r2_dot), equal lengths


def idm_accel_raw(v, gap, dv, p: IdmParams) -> np.ndarray:
    if np.any(gap <= 0.0):
        raise NonPositiveGap(f"IDM requires gap > 0, got {np.min(gap)}")
    push = v * p.headway + v * dv / (2.0 * math.sqrt(p.a_max * p.b))
    s_star = p.s0 + np.where(push > 0.0, push, 0.0)
    return p.a_max * (1.0 - np.float_power(v / p.v0, p.delta)
                      - np.float_power(s_star / gap, 2))


def idm_accel(v, gap, dv, p: IdmParams) -> np.ndarray:
    a = idm_accel_raw(v, gap, dv, p)
    return np.where(a > p.a_max, p.a_max,
                    np.where(a < -p.hard_decel, -p.hard_decel, a))


def mobil_right_lc_prob(s: State, mobil: MobilParams, idm: IdmParams,
                        vehicle_length: float) -> np.ndarray:
    """Pre-cut-in lane-change probability p_R of every row.

    Rows whose branch the scalar form never reaches get a harmless gap of
    1.0, so only a gap the scalar form would evaluate can raise.
    """
    v_bv, r1, r1_dot, r2, r2_dot = s
    gap_av = r2 - vehicle_length
    open_ = gap_av > 0.0
    a_pred_raw = idm_accel_raw(v_bv - r2_dot, np.where(open_, gap_av, 1.0),
                               -r2_dot, idm)
    a_pred = np.where(-idm.hard_decel > a_pred_raw, -idm.hard_decel, a_pred_raw)
    ok = open_ & ~(a_pred < -mobil.b_safe)
    a_old = idm_accel(v_bv, np.where(ok, r1 - vehicle_length, 1.0), -r1_dot, idm)
    a_new = idm_accel(v_bv, math.inf, 0.0, idm)
    incentive = (a_new - a_old) + mobil.politeness * a_pred_raw - mobil.delta_a_th
    p = mobil.gamma_p * incentive
    p = np.where(mobil.p_max < p, mobil.p_max, p)
    return np.where(ok & ~(p <= 0.0), p, 0.0)


def _advance(x, v, a, dt):
    x = x + v * dt + 0.5 * a * dt * dt
    v = v + a * dt
    return x, np.where(v < 0.0, 0.0, v)


def step(s: State, a_bv, a_av, dt: float) -> List[np.ndarray]:
    """Array form of ``scenario.step_raw``."""
    v_bv, r1, r1_dot, r2, r2_dot = s
    v_av = v_bv - r2_dot
    v_lv = v_bv + r1_dot
    x_av, v_av = _advance(0.0, v_av, a_av, dt)
    x_bv, v_bv = _advance(r2, v_bv, a_bv, dt)
    x_lv, v_lv = _advance(r1 + r2, v_lv, 0.0, dt)
    return [v_bv, x_lv - x_bv, v_lv - v_bv, x_bv - x_av, v_bv - v_av]


def cutin_crashes(s: State, n_states, cfg) -> np.ndarray:
    """``scenario.cutin_outcome`` with ``idm_follower(cfg.av_idm)``, per row.

    Row i fires its cut-in from ``s[:, i]`` and may visit ``n_states[i]``
    states after it.  Rows leave the batch at contact or when their budget
    runs out, so the batch shrinks as it goes.
    """
    n_states = np.asarray(n_states)
    crashed = np.zeros(len(n_states), dtype=bool)
    rows = np.flatnonzero(n_states > 0)
    n = n_states[rows]
    s = step([x[rows] for x in s], 0.0, 0.0, cfg.dt)
    contact = cfg.vehicle_length + cfg.d_accid
    i = 0
    while rows.size:
        hit = s[3] <= contact
        crashed[rows[hit]] = True
        keep = ~hit & (n - 1 > i)
        rows, n, s = rows[keep], n[keep], [x[keep] for x in s]
        v_bv, _, _, r2, r2_dot = s
        a_av = idm_accel(v_bv - r2_dot, r2 - cfg.vehicle_length, -r2_dot,
                         cfg.av_idm)
        s = step(s, 0.0, a_av, cfg.dt)
        i += 1
    return crashed


class CutIns(NamedTuple):
    """Cut-ins fired during a walk, in step order."""

    rows: np.ndarray    # walk row that fired
    p_r: np.ndarray     # its lane-change probability at that moment
    state: np.ndarray   # (5, m): the pre-cut-in states they fired from
    budget: np.ndarray  # states left before the step budget runs out

    @staticmethod
    def concat(parts: Sequence["CutIns"]) -> "CutIns":
        if not parts:
            return CutIns(np.empty(0, dtype=int), np.empty(0),
                          np.empty((5, 0)), np.empty(0, dtype=int))
        return CutIns(*(np.concatenate(f, axis=-1) for f in zip(*parts)))


def walk(s: State, cfg, fires: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
         stay: bool) -> CutIns:
    """Walk pre-cut-in rows in lockstep and collect the cut-ins they fire.

    A row stops once it has passed (``r2 < 0``) or reached
    ``cfg.max_steps``.  At step k the live rows get p_R and the BV's IDM
    response to the LV; ``fires(k, rows, p_r)`` marks which of them cut
    in.  With ``stay`` the firing rows keep walking (the oracle enumerates
    every cut-in time); otherwise they end there (a sampled episode).
    """
    L = cfg.vehicle_length
    rows = np.arange(len(s[0]))
    found = []
    for k in range(cfg.max_steps):
        run = ~(s[3] < 0.0)
        rows, s = rows[run], [x[run] for x in s]
        if not rows.size:
            break
        p_r = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, L)
        a_bv = idm_accel(s[0], s[1] - L, -s[2], cfg.bv_idm)
        fire = fires(k, rows, p_r)
        found.append(CutIns(rows[fire], p_r[fire],
                            np.array([x[fire] for x in s]),
                            np.full(np.count_nonzero(fire), cfg.max_steps - k)))
        if not stay:
            rows, s, a_bv = rows[~fire], [x[~fire] for x in s], a_bv[~fire]
        s = step(s, a_bv, 0.0, cfg.dt)
    return CutIns.concat(found)


def initial_states(r1: np.ndarray, init) -> List[np.ndarray]:
    """Initial reduced states for the given BV-LV ranges."""
    r1 = np.asarray(r1, dtype=float)
    return [np.full(len(r1), init.v_bv, dtype=float), r1,
            np.full(len(r1), init.r1_dot, dtype=float),
            np.full(len(r1), init.r2, dtype=float),
            np.full(len(r1), init.r2_dot, dtype=float)]
