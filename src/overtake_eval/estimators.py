"""Accident-rate estimators and the stopping rule, on one least-squares core.

Every method is an ordinary least-squares fit of a per-record response
``y = accident * weight`` (the weight is 1 for naturalistic records) on
``[1, Z]``.  Its point estimate is
``mu = mean(y - Z beta)`` and the variance of that estimate is
``RSS / (n - rank) / n``, so the fitted degrees of freedom are counted:

* the naturalistic estimator (NDE) and the accelerated estimator (NADE)
  are the width-0 case: ``mu`` is the mean of the accident indicators or
  of the weighted indicators, and the variance is their sample variance
  over n;
* the regression-adjusted estimator (ATSCV) has one control per surrogate
  model j of the panel, ``z_j = prod over the record's logged critical
  moments of (q_j / q_alpha) - 1``, which is 0 for an empty log.  At a
  logged moment the action is drawn from q_alpha, so each factor has
  conditional mean 1 and ``z_j`` has mean exactly 0: subtracting
  ``Z beta`` removes what the density ratios explain of the weighted
  indicator and leaves the estimate consistent.  These are the multi-step
  form of the mixture-component control variates of Owen & Zhou ("Safe
  and effective importance sampling", JASA 2000); only the logged critical
  moments enter.

The fit is taken on ``[1, Zc]``, the controls centred on their mean over
the records fitted: the column space of ``[1, Z]``, with the intercept
left out of the minimum-norm choice of ``beta``.  The rank rule: a control
direction counts when its eigenvalue in ``Zc^T Zc`` exceeds
``RANK_TOLERANCE`` times the largest eigenvalue of the Gram matrix of
``[1, Zc]`` (n and those of ``Zc^T Zc``), that is, when its singular value
exceeds ``sqrt(RANK_TOLERANCE)`` times the largest, as ``lstsq``'s
``rcond`` counts them.  The rank never exceeds n: n centred rows span at
most n - 1 directions, and with rows taken relative to the first one the
rounding of the others remains far below the cut.
A prefix with no residual degree of freedom (n <= rank; n < 2 at width 0)
has no interval: its variance and relative half-width are infinite.

One pass serves every output.  :func:`fit` reads ``y`` and ``Z`` off a
record block's columns (``sampling.Records``), each control from one
ordered product over the block's CSR critical log.  The cumulative Gram
matrix of the rows ``[1, z, y]`` (at most 5x5 with the stock three-model
panel) holds the fit at every prefix of the records, and one stacked
``eigh`` call solves them all.  :func:`fit` makes that pass once per
method and record block, and everything after it reads off the
:class:`PooledFit` it returns: :meth:`~PooledFit.estimate` is the last
prefix, :meth:`~PooledFit.table` has a convergence-table row per prefix,
:func:`tests_to_threshold` scans that table's half-width column, and
:meth:`~PooledFit.adjusted` gives the adjusted points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .sampling import Records, log_product

__all__ = [
    "EmptyInput",
    "PooledFit",
    "Estimate",
    "fit",
    "tests_to_threshold",
]

RANK_TOLERANCE = 1e-10

METHODS = ("nde", "nade", "atscv")


class EmptyInput(ValueError):
    """No records to estimate from."""


# ---------------------------------------------------------------------------
# the least-squares core


@dataclass(frozen=True)
class Estimate:
    """Point estimate and its variance; the variance is infinite when the
    fit leaves no residual degree of freedom."""

    method: str
    mu: float
    variance: float
    n: int


@dataclass(frozen=True)
class PooledFit:
    """One method's least squares of ``y`` on ``[1, Z]`` at every prefix of
    a record sequence: entry k-1 of ``mu``, ``variance``, ``rank`` and
    ``beta`` (the slopes on Z) belongs to the first k records."""

    method: str
    y: np.ndarray
    Z: np.ndarray
    mu: np.ndarray
    variance: np.ndarray
    rank: np.ndarray
    beta: np.ndarray

    def estimate(self) -> Estimate:
        """The fit of every record."""
        return Estimate(method=self.method, mu=float(self.mu[-1]),
                        variance=float(self.variance[-1]), n=len(self.y))

    def table(self, gamma: float) -> np.ndarray:
        """Per-prefix rows ``(n, point estimate, relative half-width)`` of
        the two-sided ``1 - gamma`` interval; the half-width is infinite
        while the point estimate is not positive or the fit has no residual
        degree of freedom."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r = _quantile(gamma) * np.sqrt(self.variance) / self.mu
        n = np.arange(1, len(self.y) + 1, dtype=float)
        return np.column_stack([n, self.mu,
                                np.where(self.mu > 0.0, r, np.inf)])

    def adjusted(self) -> np.ndarray:
        """Per-record values ``y - Z beta`` of the full fit; their mean is
        its point estimate."""
        return self.y - self.Z @ self.beta[-1]


def _solve(method: str, y: np.ndarray, Z: np.ndarray) -> PooledFit:
    """The fit at every prefix, from the cumulative Gram of ``[1, Z, y]``.

    Eliminating the column of ones leaves the centred cross products of
    ``[Z, y]``.  Z is taken relative to its first row, which the intercept
    absorbs, so a constant column centres to exact zeros rather than to
    rounding noise.
    """
    n, w = Z.shape
    rows = np.column_stack([np.ones(n), Z - Z[:1], y])
    G = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    k = np.arange(1.0, n + 1.0)
    s = G[:, 0, 1:]  # sums of the shifted z and of y
    C = G[:, 1:, 1:] - s[:, :, None] * s[:, None, :] / k[:, None, None]
    lam, V = (np.linalg.eigh(C[:, :-1, :-1]) if w
              else (np.zeros((n, 0)), np.zeros((n, 0, 0))))
    scale = np.maximum(k, lam.max(axis=1, initial=0.0))
    keep = lam > RANK_TOLERANCE * scale[:, None]
    proj = np.einsum("kji,kj->ki", V, C[:, :-1, -1])
    scaled = np.divide(proj, lam, out=np.zeros_like(proj), where=keep)
    beta = np.einsum("kij,kj->ki", V, scaled)
    rss = np.maximum(C[:, -1, -1] - np.einsum("ki,ki->k", proj, scaled), 0.0)
    zbar = Z[:1] + s[:, :-1] / k[:, None]
    mu = s[:, -1] / k - np.einsum("ki,ki->k", zbar, beta)
    rank = 1 + keep.sum(axis=1)
    dof = k - rank
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.where(dof > 0, rss / dof / k, np.inf)
    return PooledFit(method=method, y=y, Z=Z, mu=mu, variance=variance,
                     rank=rank, beta=beta)


def _controls(records: Records) -> np.ndarray:
    """ATSCV controls, one row per record and one column per surrogate:
    the product over the record's logged moments of ``q_j / q_alpha``,
    minus 1.  No logged moment anywhere gives no columns."""
    if not len(records.p):
        return np.zeros((len(records), 0))
    return log_product(records.offsets,
                       records.q / records.q_alpha[:, None]) - 1.0


def fit(records: Records, method: str) -> PooledFit:
    """``method``'s fit (one of ``METHODS``) of ``records``, of the
    environment the method estimates: NDE records for ``"nde"``, NADE
    records otherwise."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    env = "nde" if method == "nde" else "nade"
    if not records:
        raise EmptyInput("no records")
    if records.env != env:
        raise ValueError(f"expected {env!r} records, found {records.env!r}")
    y = records.accident * records.weight
    Z = (_controls(records) if method == "atscv"
         else np.zeros((len(records), 0)))
    return _solve(method, y, Z)


# ---------------------------------------------------------------------------
# the normal quantile


def _quantile(gamma: float) -> float:
    """Two-sided normal quantile ``z_{1 - gamma/2}``, from the standard
    library's inverse normal CDF (Wichura's AS241, within a few ulps of
    ``scipy.special.ndtri``).  Below about 2.2e-16, ``1 - gamma/2`` rounds
    to 1, where the quantile is infinite and so is every half-width."""
    p = 1.0 - gamma / 2.0
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# the stopping rule


def tests_to_threshold(rhw: np.ndarray, threshold: float,
                       confirm_window: int) -> Optional[int]:
    """Smallest prefix length whose relative half-width (the column ``rhw``
    of :meth:`PooledFit.table`) is at or below ``threshold`` for
    ``confirm_window`` consecutive prefixes; None when no fully observed
    window qualifies."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    ok = np.asarray(rhw) <= threshold
    runs = np.concatenate([[0], np.cumsum(ok)])
    full = np.flatnonzero(runs[confirm_window:] - runs[:-confirm_window]
                          == confirm_window)
    return int(full[0]) + 1 if full.size else None
