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
``walk`` and ``no_cutin_walk`` take the tracking step with one function,
``_follow``, so the states they visit agree by construction.

Many rows (episodes, oracle bins or criticality grid keys) advance
together on numpy arrays of that state: IDM, FVDM, stochastic MOBIL, the
kinematic step, the pre-cut-in walk and the post-cut-in rollout.  The
arithmetic is that of plain scalar code, kept bit for bit: the operation
order is fixed, ``**`` is ``np.float_power`` (``np.power`` takes a SIMD
path on some hosts that rounds differently from C ``pow``), FVDM's
``tanh`` calls ``math.tanh`` itself (``np.tanh`` differs in the last bit
on about a quarter of inputs), and ``max``/``min``/``if`` are ``np.where``
on the same comparison, so ties, signed zeros and NaNs resolve alike.  Any
row with a closed gap raises ``NonPositiveGap``.
"""

from __future__ import annotations

import math
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
    return p.a_max * (1.0 - np.float_power(v / p.v0, p.delta)
                      - np.float_power(s_star / gap, 2))


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


def mobil_right_lc_prob(s: State, mobil: MobilParams, idm: IdmParams,
                        vehicle_length: float) -> np.ndarray:
    """Probability p_R that the BV starts the right lane change this step.

    Stochastic MOBIL: the acceleration-gain incentive is mapped linearly
    to a probability and clamped to [0, p_max].  The move is vetoed when
    it would place the BV on top of the AV or when the AV's braking,
    clipped at what its brakes can deliver, would exceed ``b_safe``.  The
    politeness term uses the unclipped demand, so deep cut-ins into a
    fast-closing AV are increasingly unattractive.

    Vetoed rows get a harmless gap of 1.0 in the branches they skip, so
    only a gap the decision actually reads can raise.
    """
    v_bv, r1, r1_dot, r2, r2_dot = s
    gap_av = r2 - vehicle_length
    open_ = gap_av > 0.0
    a_pred_raw = idm_accel_raw(v_bv - r2_dot, np.where(open_, gap_av, 1.0),
                               -r2_dot, idm)
    a_pred = np.where(-idm.hard_decel > a_pred_raw, -idm.hard_decel, a_pred_raw)
    ok = open_ & ~(a_pred < -mobil.b_safe)
    a_old = idm_accel(v_bv, np.where(ok, r1 - vehicle_length, 1.0), -r1_dot, idm)
    # IDM on an open road: the interaction term ``(s*/inf)**2`` is +0.0.
    a_new = _clip(idm.a_max * (1.0 - np.float_power(v_bv / idm.v0, idm.delta)),
                  -idm.hard_decel, idm.a_max)
    incentive = (a_new - a_old) + mobil.politeness * a_pred_raw - mobil.delta_a_th
    p = mobil.gamma_p * incentive
    p = np.where(mobil.p_max < p, mobil.p_max, p)
    return np.where(ok & ~(p <= 0.0), p, 0.0)


def bv_law(s: State, cfg) -> np.ndarray:
    """The naturalistic lane-change probability p_R of every row.  The
    BV's other atom, following the LV, is the walk's own step."""
    return mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)


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


def _follow(s: State, cfg) -> List[np.ndarray]:
    """One no-cut-in step: the BV follows the LV by IDM, the AV coasts."""
    a_bv = idm_accel(s[0], s[1] - cfg.vehicle_length, -s[2], cfg.bv_idm)
    return step(s, a_bv, 0.0, cfg.dt)


def cutin_crashes(s: State, n_states, cfg,
                  laws: Sequence[Accel] = None) -> np.ndarray:
    """Contact outcomes of a cut-in fired from each row's pre-cut-in state,
    one row per follower law in ``laws`` (by default the tested vehicle,
    ``cfg.av_idm``; the criticality evaluator passes its surrogate panel).

    The cut-in step lets every vehicle coast; then the law drives the AV
    while the BV holds speed.  Row i may visit ``n_states[i]`` states after
    the cut-in, and contact is judged on each of them before the next
    control step.  Rows that share ``(v_bv, r2, r2_dot)`` and budget bit for
    bit (so ``-0.0`` and ``0.0`` stay apart) roll out once.  All laws' rows
    advance in one lockstep loop, stacked law by law; a row leaves at
    contact or when its budget runs out, in order, so each law drives a
    contiguous slice and every row sees exactly the arithmetic of its law's
    rollout alone.  Only the AV and BV are advanced (the LV no longer
    matters), exactly as ``step`` advances them.
    """
    if laws is None:
        laws = [lambda v, gap, dv: idm_accel(v, gap, dv, cfg.av_idm)]
    L, dt = cfg.vehicle_length, cfg.dt
    cols = [np.asarray(n_states, dtype=np.int64)] + [
        np.asarray(s[k], dtype=float) for k in (0, 3, 4)]
    key = np.stack([x.view(np.uint64) for x in cols], axis=1)
    _, first, back = np.unique(key, axis=0, return_index=True,
                               return_inverse=True)
    n_states, v_bv, r2, r2_dot = (x[first] for x in cols)
    m, J = len(n_states), len(laws)
    crashed = np.zeros(J * m, dtype=bool)
    start = np.flatnonzero(n_states > 0)
    # A live row's index into ``crashed``: law j's copy of row i is j*m + i.
    edges = m * np.arange(J + 1)
    rows = (edges[:-1, None] + start).ravel()
    last, v_bv, r2, r2_dot = (np.tile(x[start], J)
                              for x in (n_states - 1, v_bv, r2, r2_dot))
    v_av, a_av = v_bv - r2_dot, 0.0  # the cut-in step
    contact = L + cfg.d_accid
    i = 0
    while rows.size:
        x_av, v_av = _advance(0.0, v_av, a_av, dt)
        x_bv, v_bv = _advance(r2, v_bv, 0.0, dt)
        r2, r2_dot = x_bv - x_av, v_bv - v_av
        hit = r2 <= contact
        keep = ~hit & (last > i)
        if not keep.all():
            crashed[rows[hit]] = True
            rows, last, v_bv, r2, r2_dot = (
                x[keep] for x in (rows, last, v_bv, r2, r2_dot))
        v_av, gap, dv = v_bv - r2_dot, r2 - L, -r2_dot
        a_av = np.empty(rows.size)
        at = np.searchsorted(rows, edges).tolist()  # law j: at[j]:at[j+1]
        for law, lo, hi in zip(laws, at, at[1:]):
            if lo < hi:
                a_av[lo:hi] = law(v_av[lo:hi], gap[lo:hi], dv[lo:hi])
        i += 1
    return crashed.reshape(J, m)[:, back.reshape(-1)]  # 2-D on numpy 2.0.0


def no_cutin_walk(s: State, cfg
                  ) -> Iterator[Tuple[np.ndarray, List[np.ndarray]]]:
    """The no-cut-in continuations of the states ``s``, in lockstep.

    Yields the rows still walking and their states: first the start, then
    after each of up to ``cfg.max_steps`` steps of ``_follow``, the step
    ``walk`` takes.  A row ends when the discrete step overshoots into
    leader contact (``r1 - L <= 0``, where following is no longer modeled;
    a start already there never walks) or, after a step, when the AV has
    passed it (``r2 < 0``).
    """
    L = cfg.vehicle_length
    live = ~(s[1] - L <= 0.0)
    rows, t = np.flatnonzero(live), [x[live] for x in s]
    yield rows, t
    for _ in range(cfg.max_steps):
        if not rows.size:
            return
        t = _follow(t, cfg)
        keep = ~(t[3] < 0.0) & ~(t[1] - L <= 0.0)
        rows, t = rows[keep], [x[keep] for x in t]
        yield rows, t


class CutIns(NamedTuple):
    """Cut-ins fired during a walk, in step order."""

    rows: np.ndarray    # walk row that fired
    state: np.ndarray   # (5, m): the pre-cut-in states they fired from
    budget: np.ndarray  # states left before the step budget runs out

    @staticmethod
    def concat(parts: Sequence["CutIns"]) -> "CutIns":
        if not parts:
            return CutIns(np.empty(0, dtype=int), np.empty((5, 0)),
                          np.empty(0, dtype=int))
        return CutIns(*(np.concatenate(f, axis=-1) for f in zip(*parts)))


Decide = Callable[[np.ndarray, List[np.ndarray]], np.ndarray]


def walk(s: State, cfg, decide: Decide, stay: bool) -> CutIns:
    """Walk pre-cut-in rows in lockstep and collect the cut-ins they fire.

    A row stops once the AV has passed it (``r2 < 0``) or it has visited
    ``cfg.max_steps`` states.  At every step, ``decide(rows, s)`` gets the
    live rows and their states and returns the mask of those that cut in.
    With ``stay`` the firing rows keep walking (the oracle enumerates every
    cut-in time); otherwise they end there (a sampled episode).  The rows
    that walk on take one ``_follow`` step, so a row that never cuts in
    visits exactly its ``no_cutin_walk`` states.
    """
    rows = np.arange(len(s[0]))
    found = []
    for k in range(cfg.max_steps):
        run = ~(s[3] < 0.0)
        rows, s = rows[run], [x[run] for x in s]
        if not rows.size:
            break
        fire = decide(rows, s)
        found.append(CutIns(rows[fire], np.array([x[fire] for x in s]),
                            np.full(np.count_nonzero(fire), cfg.max_steps - k)))
        if not stay:
            rows, s = rows[~fire], [x[~fire] for x in s]
        s = _follow(s, cfg)
    return CutIns.concat(found)


def initial_states(r1: np.ndarray, init) -> List[np.ndarray]:
    """Initial reduced states for the given BV-LV ranges."""
    r1 = np.asarray(r1, dtype=float)
    return [np.full(len(r1), init.v_bv, dtype=float), r1,
            np.full(len(r1), init.r1_dot, dtype=float),
            np.full(len(r1), init.r2, dtype=float),
            np.full(len(r1), init.r2_dot, dtype=float)]
