"""Scalar reference implementations of the dynamics, the criticality
evaluator and both samplers.

These are per-state, per-episode, per-bin transcriptions of what the
lockstep kernel computes, written with plain Python floats.  The batched
library paths are required to reproduce them exactly: same values, same
records and critical logs, same oracle value, same errors.  (The
absolute-position simulators in conftest.py are the independent check of
the physics; these pin the bits.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from overtake_eval.models import (
    FvdmParams,
    IdmParams,
    MobilParams,
    NonPositiveGap,
    SurrogateModel,
    ZeroDensity,
)
from overtake_eval.oracle import bin_midpoints
from overtake_eval.sampling import ENV_NADE, ENV_NDE, Records


# ---------------------------------------------------------------------------
# records, one object per episode and per logged moment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalMoment:
    """One logged critical moment: densities evaluated at the chosen action."""

    p: float
    q_alpha: float
    q: Tuple[float, ...]


@dataclass(frozen=True)
class TestRecord:
    """One complete test episode, as the scalar samplers build it."""

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


def likelihood_ratio(log: Iterable[CriticalMoment]) -> float:
    """``p / q_alpha`` multiplied over the moments, left to right."""
    w = 1.0
    for m in log:
        w = w * (m.p / m.q_alpha)
    return w


BLOCK_COLUMNS = ("index", "seed", "accident", "weight", "offsets", "p",
                 "q_alpha", "q")


def columns(records: Sequence[TestRecord]) -> Dict[str, list]:
    """The columns of a record block holding ``records``, as Python values:
    the critical logs concatenated in record order, with CSR offsets."""
    log = [m for r in records for m in r.critical_log]
    offsets = [0]
    for r in records:
        offsets.append(offsets[-1] + r.control_steps)
    return {"index": [r.index for r in records],
            "seed": [r.seed for r in records],
            "accident": [r.accident for r in records],
            "weight": [r.weight for r in records],
            "offsets": offsets,
            "p": [m.p for m in log],
            "q_alpha": [m.q_alpha for m in log],
            "q": [list(m.q) for m in log]}


def block_columns(block: Records) -> Dict[str, list]:
    """A record block's columns as Python values, comparable with
    :func:`columns`."""
    return {name: getattr(block, name).tolist() for name in BLOCK_COLUMNS}


def to_block(records: Sequence[TestRecord]) -> Records:
    """The record block holding ``records``, all of one environment (NADE
    for no record)."""
    env = records[0].env if records else ENV_NADE
    c = columns(records)
    q = np.array(c["q"], dtype=float).reshape(len(c["p"]), -1) if c["p"] \
        else np.empty((0, 3))
    return Records(env, np.array(c["index"], dtype=np.int64),
                   np.array(c["seed"], dtype=np.uint64),
                   np.array(c["accident"], dtype=np.int64),
                   np.array(c["weight"], dtype=float),
                   np.array(c["offsets"], dtype=np.int64),
                   np.array(c["p"], dtype=float),
                   np.array(c["q_alpha"], dtype=float), q)


def from_block(block: Records) -> List[TestRecord]:
    """One :class:`TestRecord` per episode of a record block."""
    c = block_columns(block)
    log = [CriticalMoment(*m) for m in zip(c["p"], c["q_alpha"],
                                            map(tuple, c["q"]))]
    return [TestRecord(i, s, block.env, a, w, tuple(log[lo:hi]))
            for i, s, a, w, lo, hi in zip(c["index"], c["seed"],
                                          c["accident"], c["weight"],
                                          c["offsets"], c["offsets"][1:])]


class State(NamedTuple):
    """Reduced pre-cut-in state."""

    v_bv: float
    r1: float
    r1_dot: float
    r2: float
    r2_dot: float


def cols(states: Sequence[Sequence[float]]) -> List[np.ndarray]:
    """Kernel columns from a list of states."""
    return [np.array(c, dtype=float) for c in zip(*states)]


def rows(columns: Sequence[np.ndarray]) -> List[State]:
    """States from kernel columns."""
    return [State(*r) for r in zip(*(np.asarray(c).tolist() for c in columns))]


# ---------------------------------------------------------------------------
# driver models
# ---------------------------------------------------------------------------

def idm_accel_raw(v: float, gap: float, dv: float, p: IdmParams) -> float:
    if gap <= 0.0:
        raise NonPositiveGap(f"IDM requires gap > 0, got {gap}")
    s_star = p.s0 + max(0.0, v * p.headway + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (v / p.v0) ** p.delta - (s_star / gap) ** 2)


def idm_accel(v: float, gap: float, dv: float, p: IdmParams) -> float:
    a = idm_accel_raw(v, gap, dv, p)
    if a > p.a_max:
        return p.a_max
    if a < -p.hard_decel:
        return -p.hard_decel
    return a


def fvdm_opt_velocity(gap: float, p: FvdmParams) -> float:
    return 0.5 * p.v_cap * (math.tanh(gap / p.b_f - p.c_f) + math.tanh(p.c_f))


def fvdm_accel(v: float, gap: float, dv: float, p: FvdmParams) -> float:
    if gap <= 0.0:
        raise NonPositiveGap(f"FVDM requires gap > 0, got {gap}")
    a = p.kappa * (fvdm_opt_velocity(gap, p) - v) - p.lam * dv
    if a > p.hard_accel:
        return p.hard_accel
    if a < -p.hard_decel:
        return -p.hard_decel
    return a


def surrogate_accel(sm: SurrogateModel):
    if sm.kind == "idm":
        return lambda v, gap, dv: idm_accel(v, gap, dv, sm.idm)
    if sm.kind == "fvdm":
        return lambda v, gap, dv: fvdm_accel(v, gap, dv, sm.fvdm)
    raise ValueError(sm.kind)


def idm_follower(params: IdmParams):
    return lambda v, gap, dv: idm_accel(v, gap, dv, params)


def mobil_right_lc_prob(s: State, mobil: MobilParams, idm: IdmParams,
                        vehicle_length: float = 0.0) -> float:
    gap_av = s.r2 - vehicle_length
    if gap_av <= 0.0:
        return 0.0
    v_av = s.v_bv - s.r2_dot
    a_pred_raw = idm_accel_raw(v_av, gap_av, -s.r2_dot, idm)
    a_pred = max(a_pred_raw, -idm.hard_decel)
    if a_pred < -mobil.b_safe:
        return 0.0
    gap_lv = s.r1 - vehicle_length
    a_old = idm_accel(s.v_bv, gap_lv, -s.r1_dot, idm)
    a_new = idm_accel(s.v_bv, math.inf, 0.0, idm)
    incentive = (a_new - a_old) + mobil.politeness * a_pred_raw - mobil.delta_a_th
    p = mobil.gamma_p * incentive
    if p <= 0.0:
        return 0.0
    return min(p, mobil.p_max)


def bv_car_following_accel(s: State, cfg) -> float:
    return idm_accel(s.v_bv, s.r1 - cfg.vehicle_length, -s.r1_dot, cfg.bv_idm)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def advance(x: float, v: float, a: float, dt: float) -> Tuple[float, float]:
    x = x + v * dt + 0.5 * a * dt * dt
    v = v + a * dt
    if v < 0.0:
        v = 0.0
    return x, v


def step_raw(v_bv, r1, r1_dot, r2, r2_dot, a_bv, a_av, dt) -> State:
    v_av = v_bv - r2_dot
    v_lv = v_bv + r1_dot
    x_av, v_av = advance(0.0, v_av, a_av, dt)
    x_bv, v_bv = advance(r2, v_bv, a_bv, dt)
    x_lv, v_lv = advance(r1 + r2, v_lv, 0.0, dt)
    return State(v_bv, x_lv - x_bv, v_lv - v_bv, x_bv - x_av, v_bv - v_av)


def cutin_outcome(v_bv, r1, r1_dot, r2, r2_dot, accel_fn, cfg,
                  n_states: int) -> bool:
    """True when the AV, driven by ``accel_fn`` after the cut-in, makes
    contact within ``n_states`` states."""
    contact = cfg.vehicle_length + cfg.d_accid
    v_bv, r1, r1_dot, r2, r2_dot = step_raw(
        v_bv, r1, r1_dot, r2, r2_dot, 0.0, 0.0, cfg.dt)
    for i in range(n_states):
        if r2 <= contact:
            return True
        if i == n_states - 1:
            break
        a_av = accel_fn(v_bv - r2_dot, r2 - cfg.vehicle_length, -r2_dot)
        v_bv, r1, r1_dot, r2, r2_dot = step_raw(
            v_bv, r1, r1_dot, r2, r2_dot, 0.0, a_av, cfg.dt)
    return False


def running(s: State, k: int, cfg) -> bool:
    """A pre-cut-in episode runs until the AV has passed or the step
    budget is spent."""
    return not s.r2 < 0.0 and k < cfg.max_steps


# ---------------------------------------------------------------------------
# the two-atom action law
# ---------------------------------------------------------------------------

LANE_CHANGE = "lane_change"


@dataclass
class ActionDistribution:
    """Finite distribution over actions; zero-mass actions are dropped."""

    entries: Dict[object, float]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[object, float]]) -> "ActionDistribution":
        return ActionDistribution({a: p for a, p in pairs if p > 0.0})

    def prob(self, action) -> float:
        return self.entries.get(action, 0.0)

    def total(self) -> float:
        return sum(self.entries.values())

    def sample(self, rng):
        u = rng.random()
        acc = 0.0
        last = None
        for action, p in self.entries.items():
            acc += p
            last = action
            if u < acc:
                return action
        if last is None:
            raise ZeroDensity("cannot sample from an empty distribution")
        return last

    @staticmethod
    def mixture(dists, weights) -> "ActionDistribution":
        out: Dict[object, float] = {}
        for d, w in zip(dists, weights):
            for action, p in d.entries.items():
                out[action] = out.get(action, 0.0) + w * p
        return ActionDistribution.from_pairs(out.items())


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    p_lane_change: float
    a_follow: float
    lane_change_challenge: Tuple[float, ...]
    follow_challenge: Tuple[float, ...]
    criticalities: Tuple[float, ...]
    q_lane_change: Tuple[float, ...]
    q_follow: Tuple[float, ...]
    q_alpha_lane_change: float
    q_alpha_follow: float

    @property
    def is_critical(self) -> bool:
        return any(c > 0.0 for c in self.criticalities)

    def law(self, controlled: bool) -> ActionDistribution:
        if controlled:
            return ActionDistribution.from_pairs([
                (LANE_CHANGE, self.q_alpha_lane_change),
                ("follow", self.q_alpha_follow)])
        return ActionDistribution.from_pairs([
            (LANE_CHANGE, self.p_lane_change),
            ("follow", 1.0 - self.p_lane_change)])

    def components(self, action):
        if action == LANE_CHANGE:
            return self.p_lane_change, self.q_alpha_lane_change, self.q_lane_change
        return 1.0 - self.p_lane_change, self.q_alpha_follow, self.q_follow


class ScalarEvaluator:
    """One grid key at a time, one state at a time."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self.cache: Dict[Tuple[int, ...], tuple] = {}

    @staticmethod
    def quantize(s: State) -> Tuple[int, ...]:
        return tuple(round(x * 10.0) for x in s)

    def crash_vector(self, s: State) -> Tuple[float, ...]:
        cfg = self.cfg
        return tuple(
            1.0 if cutin_outcome(*s, surrogate_accel(sm), cfg, cfg.max_steps)
            else 0.0 for sm in cfg.surrogates)

    def compute_challenges(self, key: Tuple[int, ...]):
        cfg = self.cfg
        rep = State(*(k / 10.0 for k in key))
        lane_change = self.crash_vector(rep)
        suffix = []
        t = rep
        for _ in range(cfg.max_steps):
            gap_lv = t.r1 - cfg.vehicle_length
            if gap_lv <= 0.0:
                break
            a_bv = idm_accel(t.v_bv, gap_lv, -t.r1_dot, cfg.bv_idm)
            t = step_raw(*t, a_bv, 0.0, cfg.dt)
            if t.r2 < 0.0 or t.r1 - cfg.vehicle_length <= 0.0:
                break
            suffix.append(t)
        follow = [0.0] * len(cfg.surrogates)
        for t in reversed(suffix):
            p_r = mobil_right_lc_prob(t, cfg.mobil, cfg.bv_idm,
                                      cfg.vehicle_length)
            if p_r <= 0.0:
                continue
            crash = self.crash_vector(t)
            follow = [p_r * cr + (1.0 - p_r) * ch
                      for cr, ch in zip(crash, follow)]
        return lane_change, tuple(follow)

    def challenges(self, s: State):
        key = self.quantize(s)
        if key not in self.cache:
            self.cache[key] = self.compute_challenges(key)
        return self.cache[key]

    def profile(self, s: State) -> Profile:
        cfg = self.cfg
        p_lc = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        p_follow = 1.0 - p_lc
        a_follow = bv_car_following_accel(s, cfg)
        ch_lc, ch_follow = self.challenges(s)
        crits = tuple(cl * p_lc + cf * p_follow
                      for cl, cf in zip(ch_lc, ch_follow))
        eps = cfg.epsilon
        q_lc, q_follow = [], []
        for cl, cf, c in zip(ch_lc, ch_follow, crits):
            if c > 0.0:
                q_lc.append(eps * p_lc + (1.0 - eps) * (cl * p_lc) / c)
                q_follow.append(eps * p_follow + (1.0 - eps) * (cf * p_follow) / c)
            else:
                q_lc.append(p_lc)
                q_follow.append(p_follow)
        n = len(crits)
        return Profile(p_lc, a_follow, ch_lc, ch_follow, crits, tuple(q_lc),
                       tuple(q_follow), _left_sum(q_lc) / n,
                       _left_sum(q_follow) / n)


def _left_sum(xs) -> float:
    total = 0.0
    for x in xs:
        total += x
    return total


# ---------------------------------------------------------------------------
# samplers and oracle
# ---------------------------------------------------------------------------

def initial_state(rng, cfg) -> State:
    init = cfg.init
    return State(init.v_bv, rng.uniform(init.r1_low, init.r1_high),
                 init.r1_dot, init.r2, init.r2_dot)


def resolve_cutin(s: State, k: int, cfg) -> int:
    return int(cutin_outcome(*s, idm_follower(cfg.av_idm), cfg,
                             cfg.max_steps - k))


def nde_episode(rng, cfg, index, seed):
    """Returns the record, how the episode ended and at which step."""
    s = initial_state(rng, cfg)
    k = 0
    accident = 0
    end = "passed"
    while running(s, k, cfg):
        p_r = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        law = ActionDistribution.from_pairs([(LANE_CHANGE, p_r),
                                             ("follow", 1.0 - p_r)])
        if law.sample(rng) == LANE_CHANGE:
            accident = resolve_cutin(s, k, cfg)
            end = "cut_in"
            break
        s = step_raw(*s, bv_car_following_accel(s, cfg), 0.0, cfg.dt)
        k += 1
    else:
        end = "passed" if s.r2 < 0.0 else "max_steps"
    return TestRecord(index=index, seed=seed, env=ENV_NDE,
                      accident=accident, weight=1.0), end, k


def episode_seed(root_seed, env, index):
    """An episode's seed, straight from numpy's ``SeedSequence``."""
    code = {ENV_NDE: 0, ENV_NADE: 1}[env]
    ss = np.random.SeedSequence((root_seed, code, index))
    return int(ss.generate_state(1, np.uint64)[0])


def nde_batch(root_seed, cfg, n):
    out = []
    for i in range(n):
        seed = episode_seed(root_seed, ENV_NDE, i)
        out.append(nde_episode(np.random.default_rng(seed), cfg, i, seed))
    return out


def nade_episode(rng, cfg, evaluator, max_control_steps, index, seed):
    """Returns the record and the step it ended at."""
    s = initial_state(rng, cfg)
    k = 0
    accident = 0
    weight = 1.0
    log = []
    while running(s, k, cfg):
        prof = evaluator.profile(s)
        controlled = prof.is_critical and len(log) < max_control_steps
        a = prof.law(controlled).sample(rng)
        if controlled:
            p_a, q_a, q_js = prof.components(a)
            if q_a <= 0.0:
                raise ZeroDensity("drawn action has zero mixture density")
            weight *= p_a / q_a
            log.append(CriticalMoment(p=p_a, q_alpha=q_a, q=q_js))
        if a == LANE_CHANGE:
            accident = resolve_cutin(s, k, cfg)
            break
        s = step_raw(*s, prof.a_follow, 0.0, cfg.dt)
        k += 1
    return TestRecord(index=index, seed=seed, env=ENV_NADE, accident=accident,
                      weight=weight, critical_log=tuple(log)), k


def nade_batch(root_seed, cfg, n, evaluator, max_control_steps=10):
    out = []
    for i in range(n):
        seed = episode_seed(root_seed, ENV_NADE, i)
        out.append(nade_episode(np.random.default_rng(seed), cfg, evaluator,
                                max_control_steps, i, seed))
    return out


def conditional_mu(r1, cfg) -> float:
    init = cfg.init
    s = State(init.v_bv, r1, init.r1_dot, init.r2, init.r2_dot)
    follower = idm_follower(cfg.av_idm)
    mu = 0.0
    survive = 1.0
    k = 0
    while running(s, k, cfg):
        p_r = mobil_right_lc_prob(s, cfg.mobil, cfg.bv_idm, cfg.vehicle_length)
        if p_r > 0.0:
            if cutin_outcome(*s, follower, cfg, cfg.max_steps - k):
                mu += survive * p_r
            survive *= 1.0 - p_r
        s = step_raw(*s, bv_car_following_accel(s, cfg), 0.0, cfg.dt)
        k += 1
    return mu


def brute_force_mu(cfg, bins):
    mids = bin_midpoints(cfg.init.r1_low, cfg.init.r1_high, bins)
    return _left_sum(conditional_mu(r, cfg) for r in mids) / bins
