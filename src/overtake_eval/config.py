"""Scenario and campaign configuration, with INI-file loading.

The config file is plain ``configparser`` INI.  Every section and key is
optional; anything omitted keeps its default.  Section names mirror the
dataclasses below::

    [campaign]    seed, episodes_nde, episodes_nade, environment,
                  replications
    [estimator]   gamma, rhw_threshold, confirm_window, oracle_bins,
                  oracle_budget
    [scenario]    dt, max_steps, d_accid, vehicle_length
    [initial]     v_bv, r1_low, r1_high, r1_dot, r2, r2_dot
    [criticality] epsilon, surrogates   (comma list of idm, fvdm1, fvdm2)
    [bv_idm]      v0, headway, a_max, b, s0, delta, hard_decel
    [av_idm]      v0, headway, a_max, b, s0, delta, hard_decel
    [mobil]       politeness, delta_a_th, b_safe, gamma_p, p_max
    [sm_idm]      IDM surrogate overrides (same keys as bv_idm)
    [sm_fvdm1]    kappa, lam, v_cap, b_f, c_f, hard_decel, hard_accel
    [sm_fvdm2]    same keys as sm_fvdm1

Validation rejects, by name, any float that is not finite (NaN or
infinite), in every section and surrogate block: the array kernel would
carry it into every episode as NaN or as a certain outcome instead of
failing.  It also rejects a lane-change cap ``[mobil] p_max`` outside
[0, 1], which would give the follow atom a negative mass.

One table, ``_SECTIONS``, maps each section to the dataclass it sets and to
its keys; loading and the unknown-key check read it.  A value is cast by
the type of the field's default.  The surrogate panel is the one special
case: ``surrogates`` picks the panel, and ``sm_<name>`` sets the parameter
block of the model of that name.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from .models import IdmParams, MobilParams, SurrogateModel, default_surrogates


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _require_finite(block, prefix: str = "") -> None:
    """Raise ConfigError naming the first float field of the dataclass
    ``block`` that is NaN or infinite."""
    for f in dataclasses.fields(block):
        value = getattr(block, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class InitialStateParams:
    """Distribution of the initial reduced state; r1 ~ U(r1_low, r1_high)."""

    v_bv: float = 8.0
    r1_low: float = 30.0
    r1_high: float = 32.0
    r1_dot: float = -5.0
    r2: float = 5.0
    r2_dot: float = -5.0


def _default_av_idm() -> IdmParams:
    # The tested vehicle: slightly slower, more cautious IDM than the
    # naturalistic car-following law, braking floor 4 m/s^2.
    return IdmParams(v0=14.0, headway=1.2, a_max=1.5, b=2.5, s0=2.5,
                     delta=4.0, hard_decel=4.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything the dynamics, models and criticality machinery need."""

    dt: float = 0.1
    max_steps: int = 300
    d_accid: float = 0.0
    vehicle_length: float = 0.0
    init: InitialStateParams = field(default_factory=InitialStateParams)
    bv_idm: IdmParams = field(default_factory=IdmParams)
    av_idm: IdmParams = field(default_factory=_default_av_idm)
    mobil: MobilParams = field(default_factory=MobilParams)
    surrogates: Tuple[SurrogateModel, ...] = field(default_factory=default_surrogates)
    epsilon: float = 0.1

    def validate(self) -> None:
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.d_accid < 0:
            raise ConfigError("d_accid must be non-negative")
        if self.vehicle_length < 0:
            raise ConfigError("vehicle_length must be non-negative")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie strictly between 0 and 1")
        if not self.surrogates:
            raise ConfigError("at least one surrogate model is required")
        if self.init.r1_high < self.init.r1_low:
            raise ConfigError("initial r1 range is inverted")
        # The BV's, the LV's and the AV's initial speeds.  The laws take
        # speeds of at least 0 (IDM raises v to a real power); the kernel
        # floors a speed only after a step.
        init = self.init
        for name, v in (("init.v_bv", init.v_bv),
                        ("init.v_bv + init.r1_dot", init.v_bv + init.r1_dot),
                        ("init.v_bv - init.r2_dot", init.v_bv - init.r2_dot)):
            if v < 0:
                raise ConfigError(f"initial speed {name} must be "
                                  f"non-negative, got {v}")
        # The array kernel would turn these into inf/nan instead of failing.
        idm_blocks = [("bv_idm", self.bv_idm), ("av_idm", self.av_idm)] + [
            (sm.name, sm.idm) for sm in self.surrogates if sm.kind == "idm"]
        for name, p in idm_blocks:
            if not (p.v0 > 0 and p.a_max > 0 and p.b > 0):
                raise ConfigError(f"{name}: v0, a_max and b must be positive")
        for sm in self.surrogates:
            if sm.kind == "fvdm" and not sm.fvdm.b_f > 0:
                raise ConfigError(f"{sm.name}: b_f must be positive")
        blocks = [("", self), ("init.", self.init), ("bv_idm.", self.bv_idm),
                  ("av_idm.", self.av_idm), ("mobil.", self.mobil)] + [
            (f"{sm.name}.", p) for sm in self.surrogates
            for p in (sm.idm, sm.fvdm) if p is not None]
        for prefix, block in blocks:
            _require_finite(block, prefix)
        # A lane-change probability; 0 switches lane changes off.
        if not 0.0 <= self.mobil.p_max <= 1.0:
            raise ConfigError(f"mobil.p_max must lie in [0, 1], "
                              f"got {self.mobil.p_max}")


@dataclass(frozen=True)
class CampaignConfig:
    """A full testing campaign: budgets, seeds, estimator knobs."""

    seed: int = 2024
    episodes_nde: int = 100_000
    episodes_nade: int = 10_000
    environment: str = "both"  # "nde" | "nade" | "both"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    gamma: float = 0.1
    rhw_threshold: float = 0.1
    confirm_window: int = 50
    oracle_bins: int = 64
    oracle_budget: int = 10_000_000
    replications: int = 1

    def validate(self) -> None:
        if self.environment not in ("nde", "nade", "both"):
            raise ConfigError(f"unknown environment {self.environment!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.episodes_nde < 0 or self.episodes_nade < 0:
            raise ConfigError("episode budgets must be non-negative")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie strictly between 0 and 1")
        if self.rhw_threshold <= 0:
            raise ConfigError("rhw_threshold must be positive")
        if self.confirm_window < 1:
            raise ConfigError("confirm_window must be at least 1")
        if self.oracle_bins < 1:
            raise ConfigError("oracle_bins must be at least 1")
        if self.oracle_budget < 0:
            raise ConfigError("oracle_budget must be non-negative")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        _require_finite(self)
        self.scenario.validate()


# INI section -> (attribute path from CampaignConfig to the dataclass it
# sets, its keys in file order; None means every field).  The panel's
# ``sm_<name>`` sections set the parameter block its ``kind`` names.
_SECTIONS = {
    "campaign": ((), ("seed", "episodes_nde", "episodes_nade", "environment",
                      "replications")),
    "estimator": ((), ("gamma", "rhw_threshold", "confirm_window",
                       "oracle_bins", "oracle_budget")),
    "scenario": (("scenario",), ("dt", "max_steps", "d_accid",
                                 "vehicle_length")),
    "initial": (("scenario", "init"), None),
    "criticality": (("scenario",), ("epsilon", "surrogates")),
    "bv_idm": (("scenario", "bv_idm"), None),
    "av_idm": (("scenario", "av_idm"), None),
    "mobil": (("scenario", "mobil"), None),
}


def _at(obj, path):
    for name in path:
        obj = getattr(obj, name)
    return obj


def _replace_at(obj, path, values):
    if not path:
        return replace(obj, **values)
    inner = _replace_at(getattr(obj, path[0]), path[1:], values)
    return replace(obj, **{path[0]: inner})


def _read(section, target, keys=None) -> dict:
    """One section's values, each cast by the type of its current value."""
    keys = keys or tuple(f.name for f in dataclasses.fields(target))
    values = {}
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section.name}]")
        if key == "surrogates":
            continue
        try:
            values[key] = type(getattr(target, key))(section[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc
    return values


def load_config(path: str) -> CampaignConfig:
    """Read a campaign configuration from an INI file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    cfg = CampaignConfig()
    surrogates = {m.name: m for m in cfg.scenario.surrogates}
    for name in parser.sections():
        if name in _SECTIONS:
            at, keys = _SECTIONS[name]
            cfg = _replace_at(cfg, at, _read(parser[name], _at(cfg, at), keys))
        elif name.startswith("sm_") and name[3:] in surrogates:
            sm = surrogates[name[3:]]
            surrogates[sm.name] = _replace_at(
                sm, (sm.kind,), _read(parser[name], getattr(sm, sm.kind)))
        else:
            raise ConfigError(f"unknown section [{name}]")

    chosen = tuple(surrogates.values())
    if parser.has_option("criticality", "surrogates"):
        names = [n.strip() for n in parser["criticality"]["surrogates"].split(",")
                 if n.strip()]
        missing = [n for n in names if n not in surrogates]
        if missing:
            raise ConfigError(f"unknown surrogate model(s): {missing}")
        chosen = tuple(surrogates[n] for n in names)
    cfg = _replace_at(cfg, ("scenario",), {"surrogates": chosen})
    cfg.validate()
    return cfg

