"""Point estimates, the control-variate adjustment, and stopping rules."""
import dataclasses
import math

import numpy as np
import pytest

from overtake_eval.config import ScenarioConfig
from overtake_eval.criticality import CriticalityEvaluator
from overtake_eval.estimators import (
    METHODS,
    RANK_TOLERANCE,
    EmptyInput,
    _solve,
)
from overtake_eval.estimators import fit as block_fit
from overtake_eval.estimators import tests_to_threshold as time_to_threshold
from overtake_eval.oracle import brute_force_mu
from overtake_eval.sampling import Records, sample_nade_batch, sample_nde_batch
from scalar_reference import TestRecord, from_block, to_block

from conftest import make_moment, make_nade_record, random_nade_records, random_nde_records

Z90 = 1.6448536269514722  # two-sided 90% normal quantile


def fit(records, method):
    """The library's fit of a record block, or of scalar records through
    the block that holds them."""
    if not isinstance(records, Records):
        records = to_block(records)
    return block_fit(records, method)


def nde_rec(i, acc):
    return TestRecord(index=i, seed=i, env="nde", accident=acc, weight=1.0)


def stops(records, method, threshold, confirm_window=50, gamma=0.1):
    """The stopping count of one method on ``records``."""
    return time_to_threshold(fit(records, method).table(gamma)[:, 2],
                             threshold, confirm_window)


# ---------------------------------------------------------------------------
# the controls
# ---------------------------------------------------------------------------

def test_controls_are_density_ratio_products_minus_one():
    m1 = make_moment(p=0.2, q_alpha=0.5, q=(0.4, 0.5, 0.6))
    m2 = make_moment(p=0.1, q_alpha=0.25, q=(0.1, 0.25, 0.4))
    recs = [make_nade_record(0, 1, [m1, m2]), make_nade_record(1, 0, [m2])]
    Z = fit(recs, "atscv").Z
    # one column per surrogate, the product over the record's moments
    np.testing.assert_allclose(Z[0], [0.8 * 0.4 - 1, 1.0 * 1.0 - 1,
                                      1.2 * 1.6 - 1], rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(Z[1], [0.4 - 1, 0.0, 1.6 - 1],
                               rtol=1e-15, atol=1e-15)


def test_no_control_step_gives_no_controls(scen):
    # Records without a logged moment (NDE episodes, each of weight 1, read
    # as NADE ones) give ATSCV no column to adjust with: it is the NADE fit.
    # At μ ≈ 0.0056, 2,000 episodes hold no accident with probability 1e-5.
    recs = dataclasses.replace(sample_nde_batch(5, scen, 2000), env="nade")
    assert recs.accident.any()
    atscv, nade = fit(recs, "atscv"), fit(recs, "nade")
    assert atscv.Z.shape == (2000, 0) and atscv.beta.shape == (2000, 0)
    assert atscv.mu.tolist() == nade.mu.tolist()
    assert atscv.variance.tolist() == nade.variance.tolist()


def test_controls_of_an_empty_log_are_zero():
    m = make_moment(p=0.2, q_alpha=0.5, q=(0.4, 0.5, 0.6))
    bare = TestRecord(index=0, seed=0, env="nade", accident=1, weight=1.0)
    assert fit([bare, make_nade_record(1, 0, [m])], "atscv").Z[0].tolist() == \
        [0.0, 0.0, 0.0]
    # without a logged moment anywhere there is nothing to adjust with
    pair = [bare, dataclasses.replace(bare, index=1, accident=0)]
    assert fit(pair, "atscv").Z.shape == (2, 0)
    atscv, nade = fit(pair, "atscv").estimate(), fit(pair, "nade").estimate()
    assert (atscv.mu, atscv.variance) == (nade.mu, nade.variance)


# ---------------------------------------------------------------------------
# the pooled regression
# ---------------------------------------------------------------------------

def test_mlr_fit_noiseless_affine_recovery():
    # Every weighted indicator is a + b z_1 exactly.  Single-moment controls
    # sum to zero across the panel (q_alpha is the panel mean), so the design
    # has rank 3 of 4, and the fit must still leave exactly a behind.
    rng = np.random.default_rng(55)
    a, b = 0.004, 0.002
    recs = []
    for i in range(40):
        q = rng.uniform(0.4, 0.9, size=3)
        qa = float(np.mean(q))
        p = qa * (a + b * (q[0] / qa - 1.0))
        recs.append(make_nade_record(i, 1, [make_moment(p, qa, q)]))
    f = fit(recs, "atscv")
    assert f.rank[-1] == 3
    assert f.mu[-1] == pytest.approx(a, rel=1e-12)
    np.testing.assert_allclose(f.adjusted(), a, rtol=1e-12)
    assert f.variance[-1] == pytest.approx(0.0, abs=1e-28)
    # the slopes reproduce b z_1, however they split across the panel
    np.testing.assert_allclose(f.Z @ f.beta[-1], b * f.Z[:, 0],
                               rtol=0, atol=1e-15)


def test_mlr_fit_constant_response_gives_zero_slope():
    m = make_moment(0.3, 0.6, (0.5, 0.6, 0.7))
    recs = [make_nade_record(i, 1, [m]) for i in range(12)]
    f = fit(recs, "atscv")
    # identical controls centre to exact zeros: no direction to fit
    assert f.rank.tolist() == [1] * 12
    assert not f.beta.any()
    assert f.mu[-1] == recs[0].weight
    assert f.variance[-1] == 0.0


def test_mlr_fit_underdetermined_group_falls_back_to_mean():
    # A prefix counts at most n directions, and one without a residual
    # degree of freedom has no interval.
    rng = np.random.default_rng(9)
    recs = [r for r in random_nade_records(rng, 60, max_l=2)
            if r.control_steps][:8]
    f = fit(recs, "atscv")
    n = np.arange(1, len(recs) + 1)
    assert f.rank[0] == 1 and f.rank[-1] == 4
    assert (f.rank <= n).all()
    assert f.mu[0] == recs[0].weight * recs[0].accident
    np.testing.assert_array_equal(np.isinf(f.variance), n <= f.rank)
    s = f.table(0.1)
    assert np.isinf(s[n <= f.rank, 2]).all()
    assert np.isfinite(s[n > f.rank, 2]).all()
    # ten-moment logs put one control near 3e4 with a spread of a few
    # hundred: rounding must not count as a direction
    deep = []
    for i in range(6):
        q = np.array([0.1, 0.1 + 0.01 * rng.random(), 2.8])
        deep.append(make_nade_record(i, 1, [make_moment(0.5, q.mean(), q)] * 10))
    f = fit(deep, "atscv")
    assert f.Z[:, 2].min() > 2e4
    assert f.rank.tolist() == [1, 2, 2, 2, 2, 2]


def test_mlr_fit_rejects_empty_group():
    with pytest.raises(EmptyInput):
        fit([], "atscv")


# ---------------------------------------------------------------------------
# the cumulative-Gram series against a refit-everything reference
# ---------------------------------------------------------------------------

def reference_fits(records):
    """Per-prefix (mu, variance, rank): the controls from the logs by a
    plain loop, then ``lstsq`` on ``[1, Z]`` with Z centred on the prefix
    mean (the same column space), at the rank rule's singular-value cut."""
    Z = np.array([np.prod([np.array(m.q) / m.q_alpha for m in r.critical_log]
                          or [np.ones(3)], axis=0) - 1.0 for r in records])
    y = np.array([r.accident * r.weight for r in records])
    out = []
    for k in range(1, len(records) + 1):
        X = np.column_stack([np.ones(k), Z[:k] - Z[:k].mean(axis=0)])
        coef, _, rank, _ = np.linalg.lstsq(X, y[:k],
                                           rcond=math.sqrt(RANK_TOLERANCE))
        resid = y[:k] - X @ coef
        mu = float(np.mean(y[:k] - Z[:k] @ coef[1:]))
        var = float(resid @ resid) / (k - rank) / k if k > rank else math.inf
        out.append((mu, var, rank))
    return np.array(out)


def awkward_records(rng):
    """Random records with duplicated rows, logs of one to ten moments,
    identical logs, and a block whose first two controls differ by 1e-12
    relative: numerically one direction at the rank rule, as the
    single-moment controls of a sampled panel are."""
    recs = random_nade_records(rng, 160, max_l=3)
    recs += [dataclasses.replace(r, index=1000 + k)
             for k, r in enumerate(recs[:60:3])]  # exact duplicate rows
    m = make_moment(0.2, 0.5, (0.4, 0.5, 0.6))
    recs += [make_nade_record(3000 + k, k % 2, [m] * (4 + k)) for k in range(7)]
    for k, a in enumerate(rng.uniform(0.3, 0.9, size=45)):
        q = (a, a * (1.0 + 1e-12 * rng.standard_normal()), 0.5)
        recs.append(make_nade_record(4000 + k, int(rng.random() < 0.5),
                                     [make_moment(0.2, 0.5, q)]))
    order = rng.permutation(len(recs))
    return [recs[i] for i in order]


def near_collinear_records(rng):
    """Single-moment records whose first two density ratios differ by 1e-12
    relative: the three controls span one direction."""
    recs = []
    for k, a in enumerate(rng.uniform(0.3, 0.9, size=80)):
        q = (a, a * (1.0 + 1e-12 * rng.standard_normal()), 0.5)
        qa = float(np.mean(q))
        recs.append(make_nade_record(k, int(rng.random() < 0.5),
                                     [make_moment(0.2, qa, q)]))
    return recs


def test_streaming_series_matches_refit_reference():
    rng = np.random.default_rng(4242)
    sets = [awkward_records(rng) for _ in range(3)] + [near_collinear_records(rng)]
    for recs in sets:
        f = fit(recs, "atscv")
        want = reference_fits(recs)
        np.testing.assert_array_equal(f.rank, want[:, 2])
        fitted = np.arange(1, len(recs) + 1) > f.rank + 1
        np.testing.assert_allclose(f.mu[fitted], want[fitted, 0],
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(np.sqrt(f.variance[fitted]),
                                   np.sqrt(want[fitted, 1]), rtol=1e-9, atol=0)
        np.testing.assert_array_equal(np.isinf(f.variance),
                                      np.isinf(want[:, 1]))
    assert f.rank[-1] == 2  # the near-collinear panel


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------

def test_estimate_nde_hand_value():
    e = fit([nde_rec(0, 1), nde_rec(1, 0), nde_rec(2, 0), nde_rec(3, 0)],
            "nde").estimate()
    assert e.method == "nde"
    assert e.mu == 0.25
    assert e.variance == 0.0625  # s^2 = 1/4, variance of the mean = s^2/4
    assert e.n == 4


def test_estimate_nade_hand_value():
    m = make_moment(0.25, 0.5, (0.4, 0.5, 0.6))
    recs = [make_nade_record(0, 1, [m]),        # weight 0.5, hit
            make_nade_record(1, 0, [m, m])]     # weight 0.25, miss
    e = fit(recs, "nade").estimate()
    assert e.method == "nade"
    assert e.mu == 0.25  # mean of (0.5, 0.0)
    assert e.n == 2


def test_estimate_nade_with_unit_weights_matches_nde_mean():
    rng = np.random.default_rng(17)
    flags = rng.integers(0, 2, size=50)
    nade = [TestRecord(index=i, seed=i, env="nade", accident=int(f), weight=1.0)
            for i, f in enumerate(flags)]
    assert fit(nade, "nade").estimate().mu == float(np.mean(flags))


def test_estimators_reject_wrong_environment():
    with pytest.raises(ValueError, match="nade"):
        fit([nde_rec(0, 1)], "nade")
    with pytest.raises(ValueError, match="nde"):
        fit([TestRecord(index=0, seed=0, env="nade", accident=1, weight=1.0)],
            "nde")
    with pytest.raises(ValueError, match="unknown method"):
        fit([nde_rec(0, 1)], "mc")


def test_estimators_reject_empty_input():
    for method in METHODS:
        with pytest.raises(EmptyInput):
            fit([], method)


def test_atscv_residuals_never_spread_wider_than_nade():
    # Least squares with an intercept never leaves more residual spread
    # than the intercept alone.
    rng = np.random.default_rng(112)
    for trial in range(10):
        recs = random_nade_records(rng, 250, max_l=4)
        f = fit(recs, "atscv")
        assert np.var(f.adjusted()) <= np.var(f.y) + 1e-12


def test_atscv_adjusted_points_mean_matches_estimate():
    rng = np.random.default_rng(33)
    recs = random_nade_records(rng, 200, max_l=4)
    f = fit(recs, "atscv")
    adj = f.adjusted()
    assert adj.shape == (len(recs),)
    e = f.estimate()
    assert float(np.mean(adj)) == pytest.approx(e.mu, abs=1e-12)


def test_atscv_beats_nade_variance_on_structured_data(scen):
    # On real sampled records the adjustment should actually help, not
    # just never hurt.
    recs = sample_nade_batch(321, scen, 3000,
                             evaluator=CriticalityEvaluator(scen))
    assert (fit(recs, "atscv").estimate().variance
            < 0.5 * fit(recs, "nade").estimate().variance)


# ---------------------------------------------------------------------------
# sampled replications against the oracle
# ---------------------------------------------------------------------------

# Root seeds and sizes fixed before any result was looked at.
REPLICATION_SEEDS = range(7001, 7101)
REPLICATION_EPISODES = 300


@pytest.fixture(scope="module")
def replications():
    scen = ScenarioConfig()
    evaluator = CriticalityEvaluator(scen)
    return [sample_nade_batch(seed, scen, REPLICATION_EPISODES,
                              evaluator=evaluator)
            for seed in REPLICATION_SEEDS]


def test_control_means_are_zero_on_sampled_records(replications):
    Z = fit([r for rep in replications for r in from_block(rep)], "atscv").Z
    assert Z.shape == (len(REPLICATION_SEEDS) * REPLICATION_EPISODES, 3)
    se = Z.std(axis=0, ddof=1) / math.sqrt(len(Z))
    assert (np.abs(Z.mean(axis=0)) <= 4.0 * se).all()


def test_atscv_interval_covers_the_oracle(replications, scen):
    oracle = brute_force_mu(scen)
    covered = []
    for recs in replications:
        _, mu, rhw = fit(recs, "atscv").table(0.1)[-1]
        covered.append(abs(mu - oracle) <= rhw * mu)
    assert 0.84 <= np.mean(covered) <= 0.95


def test_atscv_varies_less_across_seeds_than_nade(replications):
    atscv = [fit(recs, "atscv").estimate().mu for recs in replications]
    nade = [fit(recs, "nade").estimate().mu for recs in replications]
    assert np.var(atscv) <= np.var(nade)


def test_atscv_point_differs_from_nade_point(replications):
    # The known-mean controls move the point estimate, not only its variance.
    for recs in replications[:10]:
        atscv, nade = fit(recs, "atscv"), fit(recs, "nade")
        assert atscv.estimate().mu != nade.estimate().mu


def test_first_prefixes_without_a_residual_dof_never_qualify():
    # n = 1 (NADE) or n <= rank (ATSCV) has no interval, so a window of
    # those prefixes cannot stop the test.
    recs = sample_nade_batch(2024, ScenarioConfig(), 200)
    assert stops(recs, "nade", 0.1, confirm_window=1) > 1
    rank = fit(recs, "atscv").rank
    first = stops(recs, "atscv", 0.1, confirm_window=3)
    assert first > 1 and first > rank[first - 1]


# ---------------------------------------------------------------------------
# interval half-width and stopping rule
# ---------------------------------------------------------------------------

def test_rhw_hand_values():
    # accidents 1, 1, 0, 0: sample variances 0, 1/3, 1/3 from n = 2 on
    f = fit([nde_rec(0, 1), nde_rec(1, 1), nde_rec(2, 0), nde_rec(3, 0)],
            "nde")
    t = f.table(0.1)
    assert t[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert t[:, 1].tolist() == [1.0, 1.0, 2.0 / 3.0, 0.5]
    assert math.isinf(t[0, 2])  # one test: no interval
    assert t[1, 2] == 0.0
    assert t[2, 2] == pytest.approx(Z90 / 2.0, rel=1e-12)
    assert t[3, 2] == pytest.approx(Z90 / math.sqrt(3.0), rel=1e-12)
    z95 = 1.959963984540054
    assert f.table(0.05)[3, 2] == pytest.approx(z95 / math.sqrt(3.0),
                                                rel=1e-12)


def test_convergence_series_shapes_and_tail():
    rng = np.random.default_rng(2020)
    nde = random_nde_records(rng, 400)
    f = fit(nde, "nde")
    s = f.table(0.1)
    assert s.shape == (400, 3)
    np.testing.assert_array_equal(s[:, 0], np.arange(1, 401))
    e = f.estimate()
    assert (e.method, e.n) == ("nde", 400)
    assert s[-1, 1] == e.mu
    assert s[-1, 2] == pytest.approx(Z90 * math.sqrt(e.variance) / e.mu,
                                     rel=1e-12)


def test_convergence_series_tail_matches_estimates_all_methods():
    rng = np.random.default_rng(2021)
    recs = random_nade_records(rng, 300, max_l=3)
    for method in ("nade", "atscv"):
        f = fit(recs, method)
        s, e = f.table(0.1), f.estimate()
        assert e.method == method
        assert s[-1, 1] == e.mu
        assert s[-1, 2] == pytest.approx(Z90 * math.sqrt(e.variance) / e.mu,
                                         rel=1e-12)


def test_convergence_series_infinite_rhw_while_mean_nonpositive():
    recs = [nde_rec(0, 0), nde_rec(1, 0), nde_rec(2, 1), nde_rec(3, 1)]
    s = fit(recs, "nde").table(0.1)
    assert math.isinf(s[0, 2]) and math.isinf(s[1, 2])  # mu = 0
    assert math.isfinite(s[3, 2])


def test_rhw_rejects_nonpositive_mean():
    # a zero mean has no relative half-width: the table reads infinity
    zero = fit([nde_rec(0, 0), nde_rec(1, 0), nde_rec(2, 0)], "nde")
    assert (zero.mu == 0.0).all()
    assert np.isinf(zero.table(0.1)[:, 2]).all()
    # nor has a negative mean with a finite variance (a regression-adjusted
    # mean can fall below zero)
    neg = _solve("atscv", np.array([-1.0, -2.0, -4.0]), np.zeros((3, 0)))
    assert (neg.mu < 0.0).all() and np.isfinite(neg.variance[1:]).all()
    assert np.isinf(neg.table(0.1)[:, 2]).all()


def test_tests_to_threshold_agrees_with_published_series():
    # The early-stopping scanner must land exactly where a rolling window
    # over the emitted convergence table lands, for every method.
    def reference(series, threshold, window):
        run = 0
        for i in range(series.shape[0]):
            run = run + 1 if series[i, 2] <= threshold else 0
            if run == window:
                return int(series[i - window + 1, 0])
        return None

    rng = np.random.default_rng(777)
    recs = random_nade_records(rng, 600, max_l=3, p_accident=0.5)
    nde = random_nde_records(rng, 600, p_accident=0.5)
    for method, data in [("nde", nde), ("nade", recs), ("atscv", recs)]:
        series = fit(data, method).table(0.1)
        for threshold in (0.05, 0.12, 0.3, 1e-9):
            for window in (1, 5, 50):
                got = time_to_threshold(series[:, 2], threshold, window)
                assert got == reference(series, threshold, window), \
                    (method, threshold, window)


def test_tests_to_threshold_degenerate_stream():
    # A constant positive response never has sampling error, but one test
    # leaves no degree of freedom to say so: two tests are enough at any
    # threshold.
    recs = [nde_rec(i, 1) for i in range(60)]
    assert stops(recs, "nde", 0.1) == 2


def test_tests_to_threshold_not_reached_and_validation():
    recs = [nde_rec(i, i % 2) for i in range(80)]
    assert stops(recs, "nde", 1e-9) is None
    assert time_to_threshold(np.zeros(0), 0.1, 50) is None
    assert time_to_threshold(np.zeros(10), 0.1, 50) is None  # window unfilled
    with pytest.raises(ValueError):
        stops(recs, "nde", 0.0)


# ---------------------------------------------------------------------------
# the normal quantile


def test_quantile_matches_scipy_within_rounding():
    from scipy.special import ndtri

    from overtake_eval.estimators import _quantile

    gammas = np.append(np.geomspace(1e-15, 0.999, 499), 0.1)
    want = ndtri(1.0 - gammas / 2.0)
    got = np.array([_quantile(g) for g in gammas.tolist()])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # 1 - gamma/2 rounds to 1: no finite quantile, so no interval.
    assert _quantile(1e-17) == math.inf


def test_cli_import_leaves_scipy_out():
    # Importing scipy.special costs about 0.3 s; the program needs none of it.
    import subprocess
    import sys

    code = ("import sys, overtake_eval.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_multiprocessing_out():
    # Importing multiprocessing costs about 9 ms; only a replication study
    # with several workers starts a pool.
    import subprocess
    import sys

    code = ("import sys, overtake_eval.cli; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
