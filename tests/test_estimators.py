"""Point estimates, the sparse regression adjustment, and stopping rules."""
import dataclasses
import math

import numpy as np
import pytest

from overtake_eval.estimators import (
    RANK_TOLERANCE,
    EmptyInput,
    Estimate,
    ZeroEstimate,
    atscv_adjusted,
    control_row,
    convergence_series,
    estimate_atscv,
    estimate_nade,
    estimate_nde,
    fit_atscv,
    rhw,
)
from overtake_eval.estimators import tests_to_threshold as time_to_threshold
from overtake_eval.sampling import TestRecord

from conftest import make_moment, make_nade_record, random_nade_records, random_nde_records

Z90 = 1.6448536269514722  # two-sided 90% normal quantile


def nde_rec(i, acc):
    return TestRecord(index=i, seed=i, env="nde", accident=acc, weight=1.0)


# ---------------------------------------------------------------------------
# design matrix construction
# ---------------------------------------------------------------------------

def test_control_row_is_kron_of_density_ratios():
    m1 = make_moment(p=0.2, q_alpha=0.5, q=(0.4, 0.5, 0.6))
    m2 = make_moment(p=0.1, q_alpha=0.25, q=(0.1, 0.25, 0.4))
    r = make_nade_record(0, 1, [m1, m2])
    got = control_row(r)
    # one factor per controlled moment, last panel member dropped, first
    # moment as the slow index
    want = np.kron([0.4 / 0.5, 0.5 / 0.5], [0.1 / 0.25, 0.25 / 0.25])
    assert got.shape == (4,)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_control_row_empty_log():
    r = nde_rec(0, 1)
    row = control_row(TestRecord(index=0, seed=0, env="nade", accident=1,
                                 weight=1.0))
    assert row.shape == (1,)
    assert row[0] == 1.0


def group(groups, l):
    (g,) = [g for g in groups if g.exposures == l]
    return g


def test_build_group_selects_and_centers():
    rng = np.random.default_rng(6174)
    recs = random_nade_records(rng, 120, max_l=3)
    groups = fit_atscv(recs)
    for l in (1, 2, 3):
        g = group(groups, l)
        members = [r for r in recs if r.control_steps == l]
        assert g.count == len(members)
        assert g.Z.shape == (len(members), 2 ** l)
        # the kept design is the raw Kronecker rows minus their column means
        np.testing.assert_allclose(g.Z.mean(axis=0), 0.0, atol=1e-10)
        raw = np.vstack([control_row(r) for r in members])
        np.testing.assert_allclose(g.Z, raw - raw.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(g.Y, [r.weight * r.accident for r in members],
                                   atol=0, rtol=0)
        assert [recs[i] for i in g.members] == members


def test_build_group_zero_exposures_has_no_regressors():
    (g,) = fit_atscv([nde_rec(0, 1), nde_rec(1, 0)])
    assert g.exposures == 0
    assert g.Z.shape == (2, 0)
    assert g.beta.shape == (0,)


def test_group_column_count_is_polynomial_not_exponential_in_panel():
    # 3 models, 4 controlled moments: (3-1)^4 = 16 columns.
    rng = np.random.default_rng(1)
    recs = random_nade_records(rng, 40, max_l=4)
    four = [r for r in recs if r.control_steps == 4]
    assert len(four) >= 2
    assert group(fit_atscv(recs), 4).Z.shape == (len(four), 16)


# ---------------------------------------------------------------------------
# per-group regression
# ---------------------------------------------------------------------------

def test_mlr_fit_noiseless_affine_recovery():
    # Y depends affinely on the first density ratio only; the second ratio
    # is constant so its centered column vanishes and the minimum-norm
    # solution must leave it at zero.
    recs = []
    a, b = 0.004, 0.002
    qa = 0.6
    rng = np.random.default_rng(55)
    for i in range(40):
        q1 = rng.uniform(0.4, 0.9)
        q = (q1, 0.5, 3 * qa - 0.5 - q1)  # constant mean, so the second
        r1 = q1 / qa                      # ratio column is constant too
        p = qa * (a + b * r1)  # makes w*acc = a + b*r1 exactly
        recs.append(make_nade_record(i, 1, [make_moment(p, qa, q)]))
    (g,) = fit_atscv(recs)
    y = np.array([r.weight for r in recs])
    assert g.eta == pytest.approx(float(np.mean(y)), abs=1e-15)
    assert g.beta[0] == pytest.approx(b, abs=1e-10)
    assert g.beta[1] == pytest.approx(0.0, abs=1e-10)
    # in-sample residuals vanish up to float noise
    np.testing.assert_allclose(g.Y - g.eta - g.Z @ g.beta, 0.0, atol=1e-12)
    assert g.spread == pytest.approx(0.0, abs=1e-20)


def test_mlr_fit_constant_response_gives_zero_slope():
    m = make_moment(0.3, 0.6, (0.5, 0.6, 0.7))
    recs = [make_nade_record(i, 1, [m]) for i in range(12)]
    (g,) = fit_atscv(recs)
    assert g.eta == recs[0].weight
    np.testing.assert_allclose(g.beta, 0.0, atol=0)
    assert g.spread == 0.0


def test_mlr_fit_underdetermined_group_falls_back_to_mean():
    rng = np.random.default_rng(9)
    # width 2 regressors need at least 4 rows to fit; 3 rows must not
    recs = random_nade_records(rng, 200, max_l=1)
    ones = [r for r in recs if r.control_steps == 1]
    small = ones[:3]
    (g,) = fit_atscv(small)
    np.testing.assert_allclose(g.beta, 0.0, atol=0)
    assert g.eta == pytest.approx(np.mean([r.weight * r.accident for r in small]),
                                  abs=1e-15)
    (g4,) = fit_atscv(ones[:4])
    assert g4.beta.shape == (2,)


def test_mlr_fit_rejects_empty_group():
    with pytest.raises(EmptyInput):
        fit_atscv([])


def test_fit_atscv_group_layout():
    rng = np.random.default_rng(21)
    recs = random_nade_records(rng, 150, max_l=6)
    groups = fit_atscv(recs, max_control_steps=4)
    labels = [g.exposures for g in groups]
    assert labels == sorted(labels)
    assert max(labels) == 5  # overflow bucket
    overflow = groups[-1]
    assert overflow.Z.shape[1] == 0  # mean-only, no regressors
    assert overflow.count == sum(r.control_steps > 4 for r in recs)


# ---------------------------------------------------------------------------
# the streaming core against a refit-everything reference
# ---------------------------------------------------------------------------

def reference_atscv_series(records, z, cap):
    """Per-prefix (mu, rhw) by re-stacking the newest record's group and
    refitting it from scratch with lstsq on the explicitly centered design."""
    ys, rows, spread = {}, {}, {}
    s, out = 0.0, []
    for i, r in enumerate(records):
        y = r.accident * r.weight
        s += y
        mu = s / (i + 1)
        label = min(r.control_steps, cap + 1)
        ys.setdefault(label, []).append(y)
        rows.setdefault(label, []).append(control_row(r))
        yv = np.asarray(ys[label])
        m = len(yv)
        eta = float(np.mean(yv))
        resid = yv - eta
        width = len(rows[label][0])
        if 0 < label <= cap and m > width + 1:
            Z = np.vstack(rows[label])
            Zc = Z - Z.mean(axis=0)
            beta = np.linalg.lstsq(Zc, yv - eta, rcond=RANK_TOLERANCE)[0]
            resid = yv - eta - Zc @ beta
        spread[label] = m * float(resid @ resid) / (m - 1) if m >= 2 else 0.0
        var = max(sum(spread.values()), 0.0) / (i + 1) ** 2
        out.append((mu, z * math.sqrt(var) / mu if mu > 0.0 else math.inf))
    return np.array(out)


def awkward_records(rng):
    """Random records with duplicated rows, a singleton group, an overflow
    bucket (cap 5), groups that cross m = width + 1 part-way, and a 32-column
    group whose design has one direction 1e-12 below the other: numerically
    rank 1 at RANK_TOLERANCE, as sampled designs are."""
    recs = random_nade_records(rng, 160, max_l=3)
    recs += [dataclasses.replace(r, index=1000 + k)
             for k, r in enumerate(recs[:60:3])]  # exact duplicate rows
    m = make_moment(0.2, 0.5, (0.4, 0.5, 0.6))
    recs.append(make_nade_record(2000, 1, [m] * 4))  # singleton group
    recs += [make_nade_record(3000 + k, k % 2, [m] * (6 + k)) for k in range(5)]
    for k, a in enumerate(rng.uniform(0.3, 0.9, size=45)):
        q = (a, a * (1.0 + 1e-12 * rng.standard_normal()), 0.5)
        recs.append(make_nade_record(4000 + k, int(rng.random() < 0.5),
                                     [make_moment(0.2, 0.5, q)] + [m] * 4))
    order = rng.permutation(len(recs))
    return [recs[i] for i in order]


def test_streaming_series_matches_refit_reference():
    rng = np.random.default_rng(4242)
    for trial in range(3):
        recs = awkward_records(rng)
        labels = {min(r.control_steps, 6) for r in recs}
        assert labels == {0, 1, 2, 3, 4, 5, 6}
        got = convergence_series(recs, 0.1, "atscv", max_control_steps=5)
        want = reference_atscv_series(recs, Z90, 5)
        np.testing.assert_array_equal(got[:, 1], want[:, 0])
        finite = np.isfinite(want[:, 1])
        np.testing.assert_array_equal(np.isfinite(got[:, 2]), finite)
        np.testing.assert_allclose(got[finite, 2], want[finite, 1],
                                   rtol=1e-9, atol=0)


def counting_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_stream_factors_nothing_until_a_group_can_fit(monkeypatch):
    calls = counting_qr(monkeypatch)
    rng = np.random.default_rng(7)
    recs = [r for r in random_nade_records(rng, 200, max_l=3)
            if r.control_steps == 3][:20]  # one group of width 8
    for k in range(1, len(recs) + 1):
        calls.clear()
        convergence_series(recs[:k], 0.1, "atscv")
        assert len(calls) == max(0, k - 9)  # one per arrival once m > w + 1
    # the first fit factors the collected rows, later ones fold in one row
    assert calls == [(10, 10)] + [(11, 10)] * 10
    # the stopping rule pays only for the prefixes it reads
    calls.clear()
    first = time_to_threshold(recs, 1e9, method="atscv", confirm_window=12)
    read = first + 12 - 1
    assert read < len(recs) and len(calls) == read - 9
    # a 1024-column group stays a plain list of rows while too small to fit
    m = make_moment(0.2, 0.5, (0.4, 0.5, 0.6))
    wide = [make_nade_record(k, k % 2, [m] * 10) for k in range(50)]
    calls.clear()
    assert time_to_threshold(wide, 1e-9, method="atscv") is None
    assert not calls


def test_batch_fit_factors_each_group_once(monkeypatch):
    calls = counting_qr(monkeypatch)
    rng = np.random.default_rng(8)
    recs = awkward_records(rng)
    groups = fit_atscv(recs, max_control_steps=5)
    fitted = [g for g in groups if g.count > g.Z.shape[1] + 1]
    assert len(calls) == len(fitted) < len(groups)
    assert sorted(calls) == sorted((g.count, g.Z.shape[1] + 2) for g in fitted)


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------

def test_estimate_nde_hand_value():
    e = estimate_nde([nde_rec(0, 1), nde_rec(1, 0), nde_rec(2, 0), nde_rec(3, 0)])
    assert e.method == "nde"
    assert e.mu == 0.25
    assert e.variance == 0.0625  # s^2 = 1/4, variance of the mean = s^2/4
    assert e.n == 4
    assert e.per_group == ((0, 0.25),)


def test_estimate_nade_hand_value():
    m = make_moment(0.25, 0.5, (0.4, 0.5, 0.6))
    recs = [make_nade_record(0, 1, [m]),        # weight 0.5, hit
            make_nade_record(1, 0, [m, m])]     # weight 0.25, miss
    e = estimate_nade(recs)
    assert e.mu == 0.25  # mean of (0.5, 0.0)
    assert e.n == 2


def test_estimate_nade_with_unit_weights_matches_nde_mean():
    rng = np.random.default_rng(17)
    flags = rng.integers(0, 2, size=50)
    nade = [TestRecord(index=i, seed=i, env="nade", accident=int(f), weight=1.0)
            for i, f in enumerate(flags)]
    assert estimate_nade(nade).mu == float(np.mean(flags))


def test_estimators_reject_wrong_environment():
    with pytest.raises(ValueError, match="nade"):
        estimate_nade([nde_rec(0, 1)])
    with pytest.raises(ValueError, match="nde"):
        estimate_nde([TestRecord(index=0, seed=0, env="nade", accident=1,
                                 weight=1.0)])


def test_estimators_reject_empty_input():
    for fn in (estimate_nde, estimate_nade, estimate_atscv):
        with pytest.raises(EmptyInput):
            fn([])


def test_atscv_point_identical_to_nade_point():
    # The regression columns are centered, so the grouped adjustment moves
    # variance only: the point estimate must match exactly.
    rng = np.random.default_rng(404)
    for trial in range(20):
        recs = random_nade_records(rng, 200, max_l=5)
        nade = estimate_nade(recs)
        fitted = estimate_atscv(recs)
        assert fitted.mu == nade.mu  # bit-for-bit
        assert fitted.n == nade.n == len(recs)


def test_atscv_variance_is_left_to_right_fold_of_group_spreads():
    # Python's float ``sum`` is compensated from 3.12 on; the variance must
    # not depend on the interpreter, so it is the plain left fold from 0.0.
    rng = np.random.default_rng(405)
    recs = random_nade_records(rng, 300, max_l=5)
    groups = fit_atscv(recs, 3)
    total = 0.0
    for g in groups:
        total = total + g.spread
    assert len(groups) > 2
    assert estimate_atscv(recs, 3).variance == total / len(recs) ** 2
    assert estimate_atscv(recs, 3, groups=groups).variance == \
        total / len(recs) ** 2
    # Spreads whose compensated sum (2.0) differs from the fold (0.0).
    spreads = [1e16, 1.0, 1.0, -1e16] + [0.0] * (len(groups) - 4)
    crafted = [dataclasses.replace(g, spread=v) for g, v in zip(groups, spreads)]
    assert estimate_atscv(recs, 3, groups=crafted).variance == 0.0


def test_atscv_group_contributions_sum_to_point():
    rng = np.random.default_rng(808)
    recs = random_nade_records(rng, 300, max_l=5)
    e = estimate_atscv(recs)
    assert sum(c for _, c in e.per_group) == pytest.approx(e.mu, abs=1e-12)


def test_atscv_overflow_bucket_mean_only():
    m = make_moment(0.3, 0.6, (0.5, 0.6, 0.7))
    deep = [make_nade_record(i, int(i < 2), [m] * (3 + i)) for i in range(5)]
    shallow = [make_nade_record(10 + i, 1, [m]) for i in range(4)]
    e = estimate_atscv(deep + shallow, max_control_steps=2)
    labels = dict(e.per_group)
    assert set(labels) == {1, 3}  # shallow group and one overflow bucket
    y_deep = [r.weight * r.accident for r in deep]
    assert labels[3] == pytest.approx(len(deep) * np.mean(y_deep) / 9.0,
                                      abs=1e-15)


def test_atscv_variance_never_exceeds_nade_within_groups():
    rng = np.random.default_rng(112)
    for trial in range(10):
        recs = random_nade_records(rng, 250, max_l=4)
        groups = fit_atscv(recs)
        for g in groups:
            if g.count < 2:
                continue
            var_y = float(np.var(g.Y))
            var_adj = float(np.var(g.adjusted()))
            assert var_adj <= var_y + 1e-12


def test_atscv_adjusted_points_mean_matches_estimate():
    rng = np.random.default_rng(33)
    recs = random_nade_records(rng, 200, max_l=4)
    groups = fit_atscv(recs)
    adj = atscv_adjusted(recs, groups)
    assert adj.shape == (len(recs),)
    e = estimate_atscv(recs)
    assert float(np.mean(adj)) == pytest.approx(e.mu, abs=1e-12)


def test_atscv_beats_nade_variance_on_structured_data(scen):
    # On real sampled records the adjustment should actually help, not
    # just never hurt.
    from overtake_eval.criticality import CriticalityEvaluator
    from overtake_eval.sampling import sample_nade_batch
    recs = sample_nade_batch(321, scen, 3000,
                             evaluator=CriticalityEvaluator(scen))
    assert estimate_atscv(recs).variance < 0.5 * estimate_nade(recs).variance


# ---------------------------------------------------------------------------
# interval half-width and stopping rule
# ---------------------------------------------------------------------------

def test_rhw_hand_values():
    e = Estimate(method="nde", mu=0.01, variance=1e-6, n=100, per_group=())
    assert rhw(e, gamma=0.1) == pytest.approx(Z90 * 0.1, rel=1e-12)
    assert rhw(Estimate(method="nde", mu=0.5, variance=0.0, n=9, per_group=()),
               gamma=0.1) == 0.0


def test_rhw_rejects_nonpositive_mean():
    with pytest.raises(ZeroEstimate):
        rhw(Estimate(method="nde", mu=0.0, variance=1e-6, n=9, per_group=()))
    with pytest.raises(ZeroEstimate):
        rhw(Estimate(method="nade", mu=-0.1, variance=1e-6, n=9, per_group=()))


def test_convergence_series_shapes_and_tail():
    rng = np.random.default_rng(2020)
    nde = random_nde_records(rng, 400)
    s = convergence_series(nde, 0.1, "nde")
    assert s.shape == (400, 3)
    np.testing.assert_array_equal(s[:, 0], np.arange(1, 401))
    e = estimate_nde(nde)
    assert s[-1, 1] == e.mu
    assert s[-1, 2] == pytest.approx(rhw(e, 0.1), rel=1e-9)
    assert convergence_series([], 0.1, "nde").shape == (0, 3)


def test_convergence_series_tail_matches_estimates_all_methods():
    rng = np.random.default_rng(2021)
    recs = random_nade_records(rng, 300, max_l=3)
    for method, estimator in [("nade", estimate_nade), ("atscv", estimate_atscv)]:
        s = convergence_series(recs, 0.1, method)
        e = estimator(recs)
        assert s[-1, 1] == pytest.approx(e.mu, rel=1e-12)
        assert s[-1, 2] == pytest.approx(rhw(e, 0.1), rel=1e-9)


def test_convergence_series_infinite_rhw_while_mean_nonpositive():
    recs = [nde_rec(0, 0), nde_rec(1, 0), nde_rec(2, 1), nde_rec(3, 1)]
    s = convergence_series(recs, 0.1, "nde")
    assert math.isinf(s[0, 2]) and math.isinf(s[1, 2])
    assert math.isfinite(s[3, 2])


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
        series = convergence_series(data, 0.1, method)
        for threshold in (0.05, 0.12, 0.3, 1e-9):
            for window in (1, 5, 50):
                got = time_to_threshold(data, threshold, 0.1, method,
                                         confirm_window=window)
                assert got == reference(series, threshold, window), \
                    (method, threshold, window)


def test_tests_to_threshold_degenerate_stream():
    # A constant positive response never has sampling error: one test is
    # already enough at any threshold.
    recs = [nde_rec(i, 1) for i in range(60)]
    assert time_to_threshold(recs, 0.1, method="nde") == 1


def test_tests_to_threshold_not_reached_and_validation():
    recs = [nde_rec(i, i % 2) for i in range(80)]
    assert time_to_threshold(recs, 1e-9, method="nde") is None
    assert time_to_threshold([], 0.1, method="nde") is None
    with pytest.raises(ValueError):
        time_to_threshold(recs, 0.0, method="nde")


# ---------------------------------------------------------------------------
# the normal quantile


def test_ndtri_port_matches_scipy_bit_for_bit():
    from scipy.special import ndtri as scipy_ndtri

    from overtake_eval.estimators import _quantile, ndtri

    rng = np.random.default_rng(1969)
    ys = np.concatenate([rng.uniform(0.5, 1.0, 100_000),
                         1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 10_000),
                         10.0 ** rng.uniform(-300.0, -0.31, 10_000),
                         [0.5, 1.0 - 0.13533528323661269189,
                          np.nextafter(1.0, 0.0), 5e-324]])
    got = [ndtri(y) for y in ys.tolist()]
    assert got == scipy_ndtri(ys).tolist()
    for gamma in (0.01, 0.05, 0.1, 0.2, 0.5, 0.9):
        assert _quantile(gamma) == float(scipy_ndtri(1.0 - gamma / 2.0))
    assert _quantile(0.1) == Z90
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    assert math.isnan(ndtri(1.5))


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
