"""Lockstep array kernel for the scenario dynamics.

The scenario holds three vehicles.  A lead vehicle (LV) and a behind
vehicle (BV) travel in the left lane; the vehicle under test (AV)
approaches in the right lane.  Everything relevant to the dynamics is
captured by the reduced state

    (v_bv, r1, r1_dot, r2, r2_dot)

where ``r1 = x_lv - x_bv`` and ``r2 = x_bv - x_av`` are longitudinal
ranges and the dotted quantities are their rates.  Before the cut-in the
BV either tracks the LV or changes into the right lane while the AV
coasts; afterwards the AV reacts to the BV while LV and BV hold speed.
``no_cutin_walk`` is the one walk of pre-cut-in states and carries the
BV's law: it yields each state with its lane-change probability p_R,
computed against the IDM acceleration it then follows with.  The samplers,
the oracle and the criticality cache read both off it.

Many rows (episodes, oracle bins or criticality grid keys) advance
together on numpy arrays of that state: IDM, FVDM, stochastic MOBIL, the
kinematic step, the pre-cut-in walk and one law's cut-in rollout.  The
arithmetic is that of plain scalar code, kept bit for bit: the operation
order is fixed, the real power ``x ** delta`` is ``np.float_power``
(``np.power`` takes a SIMD path on some hosts that rounds differently from
C ``pow``), IDM's square ``(s*/gap)²`` is ``r * r``, FVDM's
``tanh`` calls ``math.tanh`` itself (``np.tanh`` differs in the last bit
on about a quarter of inputs), and ``max``/``min``/``if`` are ``np.where``
on the same comparison, so ties, signed zeros and NaNs resolve alike.  A
car-following law given a closed gap raises ``NonPositiveGap``.  Totals
that keep their bits are ``ordered_sum``, left to right: Python's float
``sum`` is compensated from 3.12 on, which moves the last bit.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .models import (
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    SurrogateModel,
)

State = Sequence[np.ndarray]  # (v_bv, r1, r1_dot, r2, r2_dot), equal lengths
# accel(v, gap, dv) of a follower; ``dv`` is the closing speed
# ``v_follower - v_leader``, positive while approaching.
Accel = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def idm_accel_raw(v, gap, dv, p: IdmParams) -> np.ndarray:
    """Unclipped IDM acceleration."""
    if (gap <= 0.0).any():
        raise NonPositiveGap(f"IDM requires gap > 0, got {np.min(gap)}")
    push = v * p.headway + v * dv / (2.0 * math.sqrt(p.a_max * p.b))
    s_star = p.s0 + np.where(push > 0.0, push, 0.0)
    r = s_star / gap
    return p.a_max * (1.0 - np.float_power(v / p.v0, p.delta) - r * r)


def ordered_sum(terms):
    """The terms (floats or arrays) added left to right, from 0.0."""
    return reduce(operator.add, terms, 0.0)


def _clip(a, lo, hi) -> np.ndarray:
    return np.where(a > hi, hi, np.where(a < lo, lo, a))


def idm_accel(v, gap, dv, p: IdmParams) -> np.ndarray:
    """IDM acceleration clipped to the physical range [-hard_decel, a_max]."""
    return _clip(idm_accel_raw(v, gap, dv, p), -p.hard_decel, p.a_max)


def fvdm_opt_velocity(gap, p: FvdmParams) -> np.ndarray:
    """``V(gap) = v_cap/2 * (tanh(gap/b_f - c_f) + tanh(c_f))``."""
    x = gap / p.b_f - p.c_f
    t = np.fromiter(map(math.tanh, x.tolist()), float, len(x))
    return 0.5 * p.v_cap * (t + math.tanh(p.c_f))


def fvdm_accel(v, gap, dv, p: FvdmParams) -> np.ndarray:
    """FVDM acceleration ``kappa*(V_opt(gap) - v) - lam*dv``, clipped to
    [-hard_decel, hard_accel]."""
    if (gap <= 0.0).any():
        raise NonPositiveGap(f"FVDM requires gap > 0, got {np.min(gap)}")
    a = p.kappa * (fvdm_opt_velocity(gap, p) - v) - p.lam * dv
    return _clip(a, -p.hard_decel, p.hard_accel)


def surrogate_accel(sm: SurrogateModel) -> Accel:
    """The car-following law of a surrogate model, bound to its parameters."""
    if sm.kind == "idm":
        return lambda v, gap, dv: idm_accel(v, gap, dv, sm.idm)
    if sm.kind == "fvdm":
        return lambda v, gap, dv: fvdm_accel(v, gap, dv, sm.fvdm)
    raise ValueError(f"unknown surrogate kind {sm.kind!r}")


def mobil_right_lc_prob(s: State, a_follow, mobil: MobilParams,
                        idm: IdmParams, vehicle_length: float) -> np.ndarray:
    """Probability p_R that the BV starts the right lane change this step.

    Stochastic MOBIL: the acceleration-gain incentive is mapped linearly
    to a probability and clamped to [0, p_max].  The gain is over
    ``a_follow``, the BV's "old" acceleration: its IDM response to the LV
    in its own lane, the acceleration ``no_cutin_walk`` steps it with.
    The move is vetoed when it would place the BV on top of the AV or when
    the AV's braking, clipped at what its brakes can deliver, would exceed
    ``b_safe``.  The politeness term uses the unclipped demand, so deep
    cut-ins into a fast-closing AV are increasingly unattractive.

    A row with the AV gap closed gets a harmless gap of 1.0 in the demand
    it skips, so it is vetoed without raising.
    """
    v_bv, _, _, r2, r2_dot = s
    gap_av = r2 - vehicle_length
    open_ = gap_av > 0.0
    a_pred_raw = idm_accel_raw(v_bv - r2_dot, np.where(open_, gap_av, 1.0),
                               -r2_dot, idm)
    a_pred = np.where(-idm.hard_decel > a_pred_raw, -idm.hard_decel, a_pred_raw)
    ok = open_ & ~(a_pred < -mobil.b_safe)
    # IDM on an open road: the interaction term ``(s*/inf)**2`` is +0.0.
    a_new = _clip(idm.a_max * (1.0 - np.float_power(v_bv / idm.v0, idm.delta)),
                  -idm.hard_decel, idm.a_max)
    incentive = ((a_new - a_follow) + mobil.politeness * a_pred_raw
                 - mobil.delta_a_th)
    p = mobil.gamma_p * incentive
    p = np.where(mobil.p_max < p, mobil.p_max, p)
    return np.where(ok & ~(p <= 0.0), p, 0.0)


def _advance(x, v, a, dt):
    """Constant-acceleration update; only the carried-over speed is floored
    at zero, the position integrates ``a`` over the whole step."""
    x = x + v * dt + 0.5 * a * dt * dt
    v = v + a * dt
    return x, np.where(v < 0.0, 0.0, v)


def step(s: State, a_bv, a_av, dt: float) -> List[np.ndarray]:
    """One kinematic step of the reduced state.

    The three vehicles are reconstructed with the AV anchored at x = 0,
    advanced individually, and the ranges re-derived.
    """
    v_bv, r1, r1_dot, r2, r2_dot = s
    v_av = v_bv - r2_dot
    v_lv = v_bv + r1_dot
    x_av, v_av = _advance(0.0, v_av, a_av, dt)
    x_bv, v_bv = _advance(r2, v_bv, a_bv, dt)
    x_lv, v_lv = _advance(r1 + r2, v_lv, 0.0, dt)
    return [v_bv, x_lv - x_bv, v_lv - v_bv, x_bv - x_av, v_bv - v_av]


def cutin_crashes(s: State, n_states, cfg, law: Accel = None,
                  *, until_clear: bool = False) -> np.ndarray:
    """Contact outcome of a cut-in fired from each row's pre-cut-in state,
    with ``law`` driving the follower (by default the tested vehicle,
    ``cfg.av_idm``; the criticality evaluator passes each surrogate's).

    The cut-in step lets every vehicle coast; then the law drives the AV
    while the BV holds speed.  Row i may visit ``n_states[i]`` states after
    the cut-in, and contact is judged on each of them before the next
    control step.  With ``until_clear`` a row also ends, without contact,
    at its first state out of contact where the AV no longer closes in
    (``r2_dot >= 0``): the outcome is then contact before the follower
    stops closing in, within the budget.  The surrogate challenges are
    defined so; the tested vehicle is a black box after it first matches
    the BV's speed, so its rollouts keep the whole budget.

    Every row rolls out as given, all rows in one lockstep loop that a row
    leaves when it ends.  Only the AV and BV are advanced (the LV no
    longer matters), exactly as ``step`` advances them: after the cut-in
    step the BV's speed is floored and no longer ``-0.0``, so ``_advance``
    returns it unchanged and moves the BV by ``v_bv * dt``.
    """
    if law is None:
        law = lambda v, gap, dv: idm_accel(v, gap, dv, cfg.av_idm)
    L, dt = cfg.vehicle_length, cfg.dt
    n_states = np.asarray(n_states, dtype=np.int64)
    crashed = np.zeros(len(n_states), dtype=bool)
    rows = np.flatnonzero(n_states > 0)
    last = n_states[rows] - 1
    v_bv, r2, r2_dot = (np.asarray(s[k], dtype=float)[rows] for k in (0, 3, 4))
    # The cut-in step.
    x_av, v_av = _advance(0.0, v_bv - r2_dot, 0.0, dt)
    x_bv, v_bv = _advance(r2, v_bv, 0.0, dt)
    r2, r2_dot, bv_dx = x_bv - x_av, v_bv - v_av, v_bv * dt
    contact = L + cfg.d_accid
    i = 0
    while rows.size:
        hit = r2 <= contact
        keep = ~hit & (last > i)
        if until_clear:
            keep &= ~(r2_dot >= 0.0)
        if not keep.all():
            crashed[rows[hit]] = True
            rows, last, v_bv, bv_dx, r2, r2_dot = (
                x[keep] for x in (rows, last, v_bv, bv_dx, r2, r2_dot))
            if not rows.size:
                break
        v_av = v_bv - r2_dot
        x_av, v_av = _advance(0.0, v_av, law(v_av, r2 - L, -r2_dot), dt)
        r2, r2_dot = (r2 + bv_dx) - x_av, v_bv - v_av
        i += 1
    return crashed


def no_cutin_walk(s: State, cfg, live: np.ndarray = None) -> Iterator[
        Tuple[np.ndarray, List[np.ndarray], np.ndarray]]:
    """The no-cut-in continuations of the states ``s``, in lockstep, with
    the BV's two-atom law at each of them.

    Yields the rows still walking, their states and the lane-change
    probability p_R of each: first at the start, then after each of up to
    ``cfg.max_steps`` steps.  At every state the BV's IDM response to the
    LV is evaluated once: it is MOBIL's "old" acceleration in p_R and the
    acceleration the BV follows with to the next state, while the AV
    coasts.  A row ends when the AV has passed it (``r2 < 0``) and at
    leader contact (``r1 - L <= 0``, where following is no longer
    modeled); a start already there never walks.

    ``live`` is an optional mask over the rows of ``s`` that the caller
    may clear between yields.  A row outside it stops walking (a sampled
    episode once it cuts in), and a row in it that reaches leader contact
    raises ``NonPositiveGap``: its episode cannot go on.  Without a mask a
    row ends at contact silently, as the criticality cache's walks do.
    """
    L = cfg.vehicle_length
    rows, t = np.arange(len(s[0])), list(s)
    for k in range(cfg.max_steps + 1):
        if k:
            t = step(t, a_bv, 0.0, cfg.dt)
        keep = ~(t[3] < 0.0)
        contact = t[1] - L <= 0.0
        if live is not None:
            # A row cleared since the last yield took one more step; it
            # leaves here, in the one subset of the step.
            keep &= live[rows]
            hit = keep & contact
            if hit.any():
                gap = np.min(t[1][hit] - L)
                raise NonPositiveGap(f"IDM requires gap > 0, got {gap}")
        keep &= ~contact
        rows, t = rows[keep], [x[keep] for x in t]
        a_bv = idm_accel(t[0], t[1] - L, -t[2], cfg.bv_idm)
        yield rows, t, mobil_right_lc_prob(t, a_bv, cfg.mobil, cfg.bv_idm, L)
        if not rows.size:
            return


class CutIns(NamedTuple):
    """Cut-ins fired during a walk, in step order."""

    rows: np.ndarray    # walk row that fired
    state: np.ndarray   # (5, m): the pre-cut-in states they fired from
    budget: np.ndarray  # states left before the step budget runs out

    @staticmethod
    def fired(rows: np.ndarray, s: State, fire: np.ndarray,
              budget: int) -> "CutIns":
        """The cut-ins ``fire`` marks among the walk step ``(rows, s)``."""
        return CutIns(rows[fire], np.array([x[fire] for x in s]),
                      np.full(np.count_nonzero(fire), budget))

    @staticmethod
    def concat(parts: Sequence["CutIns"]) -> "CutIns":
        if not parts:
            return CutIns(np.empty(0, dtype=int), np.empty((5, 0)),
                          np.empty(0, dtype=int))
        return CutIns(*(np.concatenate(f, axis=-1) for f in zip(*parts)))


def initial_states(r1: np.ndarray, init) -> List[np.ndarray]:
    """Initial reduced states for the given BV-LV ranges."""
    r1 = np.asarray(r1, dtype=float)
    return [np.full(len(r1), init.v_bv, dtype=float), r1,
            np.full(len(r1), init.r1_dot, dtype=float),
            np.full(len(r1), init.r2, dtype=float),
            np.full(len(r1), init.r2_dot, dtype=float)]
