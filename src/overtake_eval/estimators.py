"""Accident-rate estimators and the stopping-rule machinery.

Three estimators share one grouped decomposition:

* the naturalistic estimator averages raw accident indicators;
* the accelerated estimator averages weighted indicators, grouped by the
  number of logged control moments;
* the regression-adjusted estimator additionally fits, per group, a linear
  model of the weighted indicators on products of per-surrogate density
  ratios, which leaves the point estimate untouched (the design is centered)
  but shrinks the residual variance.

Groups are indexed by the control-moment count ``l``; records beyond the
configured cap land in a single overflow group that is never adjusted.  The
group-``l`` design has ``(J-1)^l`` columns for a panel of J surrogate models;
nothing anywhere allocates the exponential full-product structure.

Every regression goes through one streaming core, :class:`GroupAccumulator`.
It keeps the upper-triangular R factor of the group's rows ``[1, z, y]`` and
folds new rows into it, so the fit at any prefix of the record stream costs
one small factorisation instead of a refit of the whole group.  The
per-prefix convergence table and the stopping rule add one record at a time;
the batch estimate feeds each group's whole block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .sampling import TestRecord

__all__ = [
    "EmptyInput",
    "ZeroEstimate",
    "GroupedRegression",
    "Estimate",
    "fit_atscv",
    "estimate_nde",
    "estimate_nade",
    "estimate_atscv",
    "atscv_adjusted",
    "rhw",
    "convergence_series",
    "tests_to_threshold",
]

RANK_TOLERANCE = 1e-10


class EmptyInput(ValueError):
    """No records to estimate from."""


class ZeroEstimate(ValueError):
    """Relative half-width is undefined for a zero point estimate."""


# ---------------------------------------------------------------------------
# the regression core


class GroupAccumulator:
    """Least squares of one group's responses on its centered control design,
    grown one block of rows at a time; width 0 is the mean-only case.

    The state is the R factor of the rows ``[1, z, y]``, an exact sufficient
    statistic (``R^T R`` is their Gram matrix).  Eliminating the column of
    ones centers the rest, so ``R[1:, 1:]`` is an R factor of the centered
    ``[Zc, yc]`` and its first ``width`` columns have the singular values of
    ``Zc``: ``lstsq`` on them at ``RANK_TOLERANCE`` gives the minimum-norm
    slopes of a direct fit, without the squared condition number of
    ``Zc^T Zc``.  Rows are factored relative to the group's first row, which
    the intercept absorbs, so a constant column factors to exact zeros
    rather than to rounding noise that a relative tolerance would keep.

    Lazy: a group of at most ``width + 1`` rows is too small to fit and keeps
    zero slopes, so until then rows are only appended.  The first fit factors
    them; every later :meth:`extend` folds its block into R with one more
    factorisation.
    """

    __slots__ = ("width", "ys", "rows", "factored", "origin", "R")

    def __init__(self, width: int = 0):
        self.width = width
        self.ys: List[float] = []
        self.rows: List[np.ndarray] = []  # row blocks not yet folded into R
        self.factored = 0  # rows folded into R
        self.origin: Optional[np.ndarray] = None  # [z0, y0]
        self.R: Optional[np.ndarray] = None

    def extend(self, ys: Iterable[float], rows=None) -> None:
        """Append responses and, for a group of nonzero width, the matching
        ``(k, width)`` block of raw control rows, in arrival order."""
        self.ys.extend(ys)
        if self.width:
            self.rows.append(np.asarray(rows, dtype=float))
        m = len(self.ys)
        if m <= self.width + 1:
            return
        block = np.empty((m - self.factored, self.width + 2))
        block[:, 0] = 1.0
        if self.width:
            block[:, 1:-1] = np.concatenate(self.rows)
        block[:, -1] = self.ys[self.factored:]
        if self.origin is None:
            self.origin = block[0, 1:].copy()
        block[:, 1:] -= self.origin
        if self.R is not None:
            block = np.vstack([self.R, block])
        self.R = np.linalg.qr(block, mode="r")
        self.rows = []
        self.factored = m

    def fit(self) -> Tuple[np.ndarray, float]:
        """Slopes and ``count * residual variance`` at the current prefix.

        The second value is the group's share of ``n^2`` times the variance
        of the grouped point estimate; it is 0 for fewer than two rows.
        """
        w = self.width
        m = len(self.ys)
        beta = np.zeros(w)
        if m < 2:
            return beta, 0.0
        if self.R is None:
            y = np.asarray(self.ys)
            d = y - np.mean(y)
            rss = float(d @ d)
        else:
            tail = self.R[w + 1, w + 1]
            rss = float(tail * tail)
            if w:
                T = self.R[1:w + 1, 1:w + 1]
                c = self.R[1:w + 1, w + 1]
                beta = np.linalg.lstsq(T, c, rcond=RANK_TOLERANCE)[0]
                r = c - T @ beta
                rss += float(r @ r)
        return beta, m * rss / (m - 1)


def _response(record: TestRecord) -> float:
    return record.accident * record.weight


def control_row(record: TestRecord) -> np.ndarray:
    """Control features for one record: the outer product, over its logged
    moments, of the first J-1 per-surrogate density ratios q_j/q_alpha."""
    row = np.ones(1)
    for m in record.critical_log:
        u = np.asarray(m.q[:-1], dtype=float) / m.q_alpha
        row = np.outer(row, u).ravel()
    return row


def _members_by_label(records: Sequence[TestRecord],
                      cap: int) -> Dict[int, List[int]]:
    """Record positions per group label, ascending: the control-moment count,
    or ``cap + 1`` for the overflow group."""
    groups: Dict[int, List[int]] = {}
    for i, r in enumerate(records):
        groups.setdefault(min(r.control_steps, cap + 1), []).append(i)
    return dict(sorted(groups.items()))


@dataclass(frozen=True)
class GroupedRegression:
    """One group's batch fit.

    ``members`` holds positions into the source record sequence so adjusted
    values can be scattered back in input order.  ``Z`` is the centered
    design (zero columns for a mean-only group), ``eta`` the group mean and
    ``spread`` the accumulator's ``count * residual variance``.
    """

    exposures: int
    members: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    eta: float
    beta: np.ndarray
    spread: float

    @property
    def count(self) -> int:
        return len(self.Y)

    def adjusted(self) -> np.ndarray:
        """Per-record adjusted values: fitted intercept plus residual."""
        return self.eta + (self.Y - self.eta - self.Z @ self.beta)


def fit_atscv(records: Sequence[TestRecord],
              max_control_steps: int = 10) -> List[GroupedRegression]:
    """Group records by control-moment count and fit each group once.

    Groups beyond ``max_control_steps`` are merged into one unadjusted
    overflow group, labeled ``max_control_steps + 1``.
    """
    if not records:
        raise EmptyInput("no records")
    cap = max_control_steps
    groups = []
    for label, members in _members_by_label(records, cap).items():
        Y = np.array([_response(records[i]) for i in members], dtype=float)
        if not 0 < label <= cap:
            Z = np.zeros((len(members), 0))
        else:
            Z = np.vstack([control_row(records[i]) for i in members])
        acc = GroupAccumulator(Z.shape[1])
        acc.extend(Y, Z)
        beta, spread = acc.fit()
        groups.append(GroupedRegression(
            exposures=label, members=np.asarray(members, dtype=int), Y=Y,
            Z=Z - Z.mean(axis=0), eta=float(np.mean(Y)), beta=beta,
            spread=spread))
    return groups


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its variance and per-group decomposition."""

    method: str
    mu: float
    variance: float
    n: int
    per_group: Tuple[Tuple[int, float], ...] = ()


def _require_env(records: Sequence[TestRecord], env: str) -> None:
    if not records:
        raise EmptyInput("no records")
    for r in records:
        if r.env != env:
            raise ValueError(f"expected {env!r} records, found {r.env!r}")


def _grouped_point(blocks: Iterable[Tuple[int, np.ndarray]], n: int):
    """Sum of per-group mean contributions ``count * mean / n``."""
    mu = 0.0
    per_group = []
    for label, y in blocks:
        contribution = len(y) * float(np.mean(y)) / n
        per_group.append((label, contribution))
        mu += contribution
    return mu, tuple(per_group)


def _pooled_values(records: Sequence[TestRecord], method: str) -> np.ndarray:
    if method == "nde":
        return np.array([float(r.accident) for r in records])
    return np.array([_response(r) for r in records])


def _pooled_estimate(method: str, records: Sequence[TestRecord],
                     cap: int) -> Estimate:
    _require_env(records, method)
    y = _pooled_values(records, method)
    n = len(y)
    mu, per_group = _grouped_point(
        ((label, y[members]) for label, members
         in _members_by_label(records, cap).items()), n)
    d = y - y.mean()
    s2 = float(d @ d) / (n - 1) if n >= 2 else 0.0
    return Estimate(method=method, mu=mu, variance=s2 / n, n=n,
                    per_group=per_group)


def estimate_nde(records: Sequence[TestRecord]) -> Estimate:
    """Mean accident indicator; variance is the sample variance over n."""
    return _pooled_estimate("nde", records, 10)


def estimate_nade(records: Sequence[TestRecord],
                  max_control_steps: int = 10) -> Estimate:
    """Mean weighted indicator; variance is the pooled sample variance
    of the weighted indicators over n."""
    return _pooled_estimate("nade", records, max_control_steps)


def estimate_atscv(records: Sequence[TestRecord], max_control_steps: int = 10,
                   groups: Optional[Sequence[GroupedRegression]] = None
                   ) -> Estimate:
    """Regression-adjusted estimate over the same grouped decomposition.

    The point estimate coincides with the unadjusted grouped mean (centered
    designs leave the intercept alone); the variance is the sum of the
    groups' ``count * residual variance`` over ``n^2``, which is where the
    adjustment pays off.  ``groups`` reuses the result of :func:`fit_atscv`.
    """
    _require_env(records, "nade")
    n = len(records)
    if groups is None:
        groups = fit_atscv(records, max_control_steps)
    mu, per_group = _grouped_point(((g.exposures, g.Y) for g in groups), n)
    # Added left to right from 0.0: ``sum`` of floats is compensated from
    # Python 3.12 on, which would tie the bytes to the interpreter.
    spread = 0.0
    for g in groups:
        spread += g.spread
    return Estimate(method="atscv", mu=mu, variance=spread / n ** 2,
                    n=n, per_group=per_group)


def atscv_adjusted(records: Sequence[TestRecord],
                   groups: Sequence[GroupedRegression]) -> np.ndarray:
    """Adjusted values scattered back into record order."""
    out = np.empty(len(records))
    for g in groups:
        out[g.members] = g.adjusted()
    return out


# Cephes ``ndtri`` (S. L. Moshier), the inverse of the standard normal
# CDF: a rational approximation in y - 0.5 around the centre and in
# 1/sqrt(-2 log y) in the tails.  Ported operation for operation, it
# returns the same doubles as ``scipy.special.ndtri`` without importing
# scipy.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)


def _polevl(x: float, coef: Sequence[float]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """``_polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, upper = y0, True
    if y > 1.0 - _EXP_M2:
        y, upper = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if upper else x


def _quantile(gamma: float) -> float:
    """Two-sided normal quantile ``z_{1 - gamma/2}``."""
    return ndtri(1.0 - gamma / 2.0)


def rhw(e: Estimate, gamma: float = 0.1) -> float:
    """Relative half-width of the two-sided confidence interval."""
    if e.mu <= 0.0:
        raise ZeroEstimate("relative half-width is undefined when the "
                           "point estimate is zero")
    return _quantile(gamma) * float(np.sqrt(e.variance)) / e.mu


# ---------------------------------------------------------------------------
# per-prefix convergence


def _pooled_rhw_series(records: Sequence[TestRecord], gamma: float,
                       method: str):
    """Vectorised ``(mu, rhw)`` per prefix for the pooled methods."""
    if method not in ("nde", "nade"):
        raise ValueError(f"unknown method {method!r}")
    y = _pooled_values(records, method)
    n = np.arange(1, len(y) + 1, dtype=float)
    s = np.cumsum(y)
    ss = np.cumsum(y * y)
    mu = s / n
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = (ss - s * s / n) / (n - 1.0)
    s2 = np.where(n >= 2.0, np.maximum(s2, 0.0), 0.0)
    var = s2 / n
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _quantile(gamma) * np.sqrt(var) / mu
    return mu, np.where(mu > 0.0, r, np.inf)


def _atscv_prefixes(records: Sequence[TestRecord], z: float,
                    cap: int) -> Iterator[Tuple[float, float]]:
    """Yield ``(prefix mean, prefix relative half-width)`` one arrival at a
    time, folding each record into its group's accumulator."""
    groups: Dict[int, GroupAccumulator] = {}
    spread: Dict[int, float] = {}
    total = 0.0
    s = 0.0
    for i, r in enumerate(records):
        y = _response(r)
        s += y
        mu = s / (i + 1)
        label = min(r.control_steps, cap + 1)
        row = control_row(r) if 0 < label <= cap else None
        acc = groups.get(label)
        if acc is None:
            acc = groups[label] = GroupAccumulator(0 if row is None else len(row))
        acc.extend([y], [row])
        _, fresh = acc.fit()
        total += fresh - spread.get(label, 0.0)
        spread[label] = fresh
        var = max(total, 0.0) / (i + 1) ** 2
        yield mu, (z * math.sqrt(var) / mu if mu > 0.0 else math.inf)


def _rhw_prefixes(records: Sequence[TestRecord], gamma: float, method: str,
                  max_control_steps: int) -> Iterator[float]:
    """Relative half-width per prefix, lazily: the pooled methods are one
    vectorised pass, ATSCV fits as it goes."""
    if method == "atscv":
        return (r for _, r in _atscv_prefixes(records, _quantile(gamma),
                                               max_control_steps))
    return iter(_pooled_rhw_series(records, gamma, method)[1])


def convergence_series(records: Sequence[TestRecord], gamma: float,
                       method: str, max_control_steps: int = 10) -> np.ndarray:
    """Per-prefix table ``(n, point estimate, relative half-width)``."""
    if not records:
        return np.zeros((0, 3))
    if method == "atscv":
        mu, r = np.array(list(_atscv_prefixes(
            records, _quantile(gamma), max_control_steps))).T
    else:
        mu, r = _pooled_rhw_series(records, gamma, method)
    n = np.arange(1, len(records) + 1, dtype=float)
    return np.column_stack([n, mu, r])


def tests_to_threshold(records: Sequence[TestRecord], threshold: float,
                       gamma: float = 0.1, method: str = "nade",
                       confirm_window: int = 50,
                       max_control_steps: int = 10) -> Optional[int]:
    """Smallest prefix length whose relative half-width stays at or below
    ``threshold`` for ``confirm_window`` consecutive prefixes.

    Reads the prefixes lazily, so an ATSCV scan that stops early never pays
    for fits beyond its stopping point.  Returns None when no fully observed
    window qualifies.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not records:
        return None
    run = 0
    for i, value in enumerate(
            _rhw_prefixes(records, gamma, method, max_control_steps)):
        run = run + 1 if value <= threshold else 0
        if run == confirm_window:
            return i - confirm_window + 2
    return None
