"""Scenario and campaign configuration, with INI-file loading.

The config file is plain ``configparser`` INI.  Every section and key is
optional; anything omitted keeps its default.  Section names mirror the
dataclasses below::

    [campaign]    seed, episodes_nde, episodes_nade, environment,
                  replications, workers
    [estimator]   gamma, rhw_threshold, confirm_window, max_control_steps,
                  oracle_bins, oracle_budget
    [scenario]    dt, max_steps, d_accid, vehicle_length
    [initial]     v_bv, r1_low, r1_high, r1_dot, r2, r2_dot
    [criticality] epsilon, surrogates   (comma list of idm, fvdm1, fvdm2)
    [bv_idm]      v0, headway, a_max, b, s0, delta, hard_decel
    [av_idm]      v0, headway, a_max, b, s0, delta, hard_decel
    [mobil]       politeness, delta_a_th, b_safe, gamma_p, p_max
    [sm_idm]      IDM surrogate overrides (same keys as bv_idm)
    [sm_fvdm1]    kappa, lam, v_cap, b_f, c_f, hard_decel, hard_accel
    [sm_fvdm2]    same keys as sm_fvdm1
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .models import FvdmParams, IdmParams, MobilParams, SurrogateModel


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


# Widest regression design a campaign may ask for.  The group with l control
# moments has (J-1)^l columns for J surrogate models; the stock 3-model panel
# at the default cap of 10 needs 1024.
MAX_DESIGN_WIDTH = 4096


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


def _default_surrogates() -> Tuple[SurrogateModel, ...]:
    from .models import default_surrogates
    return default_surrogates()


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
    surrogates: Tuple[SurrogateModel, ...] = field(default_factory=_default_surrogates)
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
        # The array kernel would turn these into inf/nan instead of failing.
        idm_blocks = [("bv_idm", self.bv_idm), ("av_idm", self.av_idm)] + [
            (sm.name, sm.idm) for sm in self.surrogates if sm.kind == "idm"]
        for name, p in idm_blocks:
            if not (p.v0 > 0 and p.a_max > 0 and p.b > 0):
                raise ConfigError(f"{name}: v0, a_max and b must be positive")


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
    max_control_steps: int = 10
    oracle_bins: int = 64
    oracle_budget: int = 10_000_000
    replications: int = 1
    workers: int = 1

    def validate(self) -> None:
        if self.environment not in ("nde", "nade", "both"):
            raise ConfigError(f"unknown environment {self.environment!r}")
        if self.episodes_nde < 0 or self.episodes_nade < 0:
            raise ConfigError("episode budgets must be non-negative")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie strictly between 0 and 1")
        if self.rhw_threshold <= 0:
            raise ConfigError("rhw_threshold must be positive")
        if self.confirm_window < 1:
            raise ConfigError("confirm_window must be at least 1")
        if self.max_control_steps < 0:
            raise ConfigError("max_control_steps must be non-negative")
        width = (len(self.scenario.surrogates) - 1) ** self.max_control_steps
        if width > MAX_DESIGN_WIDTH:
            raise ConfigError(
                f"max_control_steps = {self.max_control_steps} with "
                f"{len(self.scenario.surrogates)} surrogate models needs "
                f"{width} regression columns; at most {MAX_DESIGN_WIDTH} "
                f"are allowed")
        if self.oracle_bins < 1:
            raise ConfigError("oracle_bins must be at least 1")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.scenario.validate()


_SURROGATE_SECTIONS = {"idm": "sm_idm", "fvdm1": "sm_fvdm1", "fvdm2": "sm_fvdm2"}

# Sections mapped to None carry dataclass parameter blocks whose keys are
# checked against the dataclass fields when they are applied.
_KNOWN_SECTIONS = {
    "campaign": {"seed", "episodes_nde", "episodes_nade", "environment",
                 "replications", "workers"},
    "estimator": {"gamma", "rhw_threshold", "confirm_window",
                  "max_control_steps", "oracle_bins", "oracle_budget"},
    "scenario": {"dt", "max_steps", "d_accid", "vehicle_length"},
    "initial": {"v_bv", "r1_low", "r1_high", "r1_dot", "r2", "r2_dot"},
    "criticality": {"epsilon", "surrogates"},
    "bv_idm": None,
    "av_idm": None,
    "mobil": None,
    "sm_idm": None,
    "sm_fvdm1": None,
    "sm_fvdm2": None,
}


def _update_from_section(params, section) -> object:
    """Overwrite dataclass fields from one INI section, type-checked."""
    kwargs = {}
    valid = {f.name: f.type for f in dataclasses.fields(params)}
    for key in section:
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in section [{section.name}]")
        try:
            kwargs[key] = float(section[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc
    return replace(params, **kwargs)


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def load_config(path: str) -> CampaignConfig:
    """Read a campaign configuration from an INI file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    for name in parser.sections():
        if name not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        keys = _KNOWN_SECTIONS[name]
        if keys is None:
            continue
        for key in parser[name]:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")

    def section(name):
        return parser[name] if parser.has_section(name) else None

    base = CampaignConfig()
    sc = base.scenario

    if section("scenario") is not None:
        sc = replace(
            sc,
            dt=_get(section("scenario"), "dt", float, sc.dt),
            max_steps=_get(section("scenario"), "max_steps", int, sc.max_steps),
            d_accid=_get(section("scenario"), "d_accid", float, sc.d_accid),
            vehicle_length=_get(section("scenario"), "vehicle_length", float,
                                sc.vehicle_length),
        )
    if section("initial") is not None:
        sec = section("initial")
        init = sc.init
        init = replace(
            init,
            v_bv=_get(sec, "v_bv", float, init.v_bv),
            r1_low=_get(sec, "r1_low", float, init.r1_low),
            r1_high=_get(sec, "r1_high", float, init.r1_high),
            r1_dot=_get(sec, "r1_dot", float, init.r1_dot),
            r2=_get(sec, "r2", float, init.r2),
            r2_dot=_get(sec, "r2_dot", float, init.r2_dot),
        )
        sc = replace(sc, init=init)
    if section("bv_idm") is not None:
        sc = replace(sc, bv_idm=_update_from_section(sc.bv_idm, section("bv_idm")))
    if section("av_idm") is not None:
        sc = replace(sc, av_idm=_update_from_section(sc.av_idm, section("av_idm")))
    if section("mobil") is not None:
        sc = replace(sc, mobil=_update_from_section(sc.mobil, section("mobil")))

    surrogates = {m.name: m for m in sc.surrogates}
    for name, sect_name in _SURROGATE_SECTIONS.items():
        sect = section(sect_name)
        if sect is None or name not in surrogates:
            continue
        sm = surrogates[name]
        if sm.kind == "idm":
            surrogates[name] = replace(sm, idm=_update_from_section(sm.idm, sect))
        else:
            surrogates[name] = replace(sm, fvdm=_update_from_section(sm.fvdm, sect))

    crit = section("criticality")
    chosen = tuple(surrogates.values())
    if crit is not None and "surrogates" in crit:
        names = [n.strip() for n in crit["surrogates"].split(",") if n.strip()]
        missing = [n for n in names if n not in surrogates]
        if missing:
            raise ConfigError(f"unknown surrogate model(s): {missing}")
        chosen = tuple(surrogates[n] for n in names)
    sc = replace(sc, surrogates=chosen,
                 epsilon=_get(crit, "epsilon", float, sc.epsilon))

    camp = section("campaign")
    est = section("estimator")
    cfg = CampaignConfig(
        seed=_get(camp, "seed", int, base.seed),
        episodes_nde=_get(camp, "episodes_nde", int, base.episodes_nde),
        episodes_nade=_get(camp, "episodes_nade", int, base.episodes_nade),
        environment=_get(camp, "environment", str, base.environment),
        scenario=sc,
        gamma=_get(est, "gamma", float, base.gamma),
        rhw_threshold=_get(est, "rhw_threshold", float, base.rhw_threshold),
        confirm_window=_get(est, "confirm_window", int, base.confirm_window),
        max_control_steps=_get(est, "max_control_steps", int,
                               base.max_control_steps),
        oracle_bins=_get(est, "oracle_bins", int, base.oracle_bins),
        oracle_budget=_get(est, "oracle_budget", int, base.oracle_budget),
        replications=_get(camp, "replications", int, base.replications),
        workers=_get(camp, "workers", int, base.workers),
    )
    cfg.validate()
    return cfg


def write_default_config(path: str) -> None:
    """Emit a fully-populated INI file with the stock defaults."""
    cfg = CampaignConfig()
    sc = cfg.scenario
    parser = configparser.ConfigParser()
    parser["campaign"] = {
        "seed": str(cfg.seed),
        "episodes_nde": str(cfg.episodes_nde),
        "episodes_nade": str(cfg.episodes_nade),
        "environment": cfg.environment,
        "replications": str(cfg.replications),
        "workers": str(cfg.workers),
    }
    parser["estimator"] = {
        "gamma": str(cfg.gamma),
        "rhw_threshold": str(cfg.rhw_threshold),
        "confirm_window": str(cfg.confirm_window),
        "max_control_steps": str(cfg.max_control_steps),
        "oracle_bins": str(cfg.oracle_bins),
        "oracle_budget": str(cfg.oracle_budget),
    }
    parser["scenario"] = {
        "dt": str(sc.dt),
        "max_steps": str(sc.max_steps),
        "d_accid": str(sc.d_accid),
        "vehicle_length": str(sc.vehicle_length),
    }
    parser["initial"] = {k: str(v) for k, v in dataclasses.asdict(sc.init).items()}
    parser["criticality"] = {
        "epsilon": str(sc.epsilon),
        "surrogates": ", ".join(m.name for m in sc.surrogates),
    }
    parser["bv_idm"] = {k: str(v) for k, v in dataclasses.asdict(sc.bv_idm).items()}
    parser["av_idm"] = {k: str(v) for k, v in dataclasses.asdict(sc.av_idm).items()}
    parser["mobil"] = {k: str(v) for k, v in dataclasses.asdict(sc.mobil).items()}
    for sm in sc.surrogates:
        sect = _SURROGATE_SECTIONS.get(sm.name)
        if sect is None:
            continue
        block = sm.idm if sm.kind == "idm" else sm.fvdm
        parser[sect] = {k: str(v) for k, v in dataclasses.asdict(block).items()}
    with open(path, "w") as fh:
        parser.write(fh)
