"""Driver-model parameters, the surrogate panel, and the library's errors.

The models themselves (IDM, FVDM and stochastic MOBIL) are array functions
in ``kernel``; this module holds their parameter blocks and the surrogate
panel the criticality evaluator probes the AV's reaction with.  ``dv``
always denotes the closing speed ``v_follower - v_leader`` (positive while
approaching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class NonPositiveGap(ValueError):
    """Car-following models need an open gap to the leader."""


class ZeroDensity(RuntimeError):
    """A sampled action carries zero probability under the sampling law."""


@dataclass(frozen=True)
class IdmParams:
    """Intelligent Driver Model parameters.

    v0: desired speed (m/s); headway: safe time headway (s); a_max:
    maximum acceleration (m/s^2); b: comfortable deceleration (m/s^2);
    s0: jam distance (m); delta: free-flow exponent; hard_decel:
    physical braking floor applied when clipping the output.
    """

    v0: float = 15.0
    headway: float = 1.0
    a_max: float = 2.0
    b: float = 2.0
    s0: float = 2.0
    delta: float = 4.0
    hard_decel: float = 4.0


@dataclass(frozen=True)
class FvdmParams:
    """Full Velocity Difference Model parameters.

    The optimal-velocity curve is
    ``V(gap) = v_cap/2 * (tanh(gap/b_f - c_f) + tanh(c_f))``.
    """

    kappa: float = 2.0
    lam: float = 0.5
    v_cap: float = 15.0
    b_f: float = 10.0
    c_f: float = 2.0
    hard_decel: float = 4.0
    hard_accel: float = 4.0


@dataclass(frozen=True)
class MobilParams:
    """Stochastic MOBIL lane-change parameters.

    The incentive is the standard acceleration-gain criterion; the
    lane-change probability is ``clamp(gamma_p * incentive, 0, p_max)``.
    ``b_safe`` vetoes the move when the new follower's feasible braking
    (clipped at its hard_decel) would exceed it.
    """

    politeness: float = 0.0035
    delta_a_th: float = 0.1
    b_safe: float = 4.5
    gamma_p: float = 0.011
    p_max: float = 0.1


@dataclass(frozen=True)
class SurrogateModel:
    """A named car-following law used to probe the AV's reaction.

    ``kind`` selects the law ("idm" or "fvdm"); exactly one of the two
    parameter blocks is used.
    """

    name: str
    kind: str
    idm: Optional[IdmParams] = None
    fvdm: Optional[FvdmParams] = None


def default_surrogates() -> Tuple[SurrogateModel, ...]:
    """The stock trio: one IDM and two FVDM variants with distinct braking.

    The hard braking floors straddle the tested vehicle's (4.0 m/s^2) so
    the three predicted crash boundaries bracket the real one.
    """
    return (
        SurrogateModel("idm", "idm", idm=IdmParams(hard_decel=3.8)),
        SurrogateModel("fvdm1", "fvdm", fvdm=FvdmParams(kappa=2.0, hard_decel=3.4)),
        SurrogateModel("fvdm2", "fvdm", fvdm=FvdmParams(kappa=6.0, hard_decel=4.6)),
    )
