import math
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aspectsent import cli, files
from aspectsent.cli import figure_table, read_prediction_rows
from aspectsent.corpus import A_USED, CONTENT_ASPECTS
from aspectsent.errors import PipelineError
from aspectsent.stats import (
    GROUP_COMPARE_MODES,
    SERIES_MODES,
    DailySeries,
    GrangerResult,
    UntestableError,
    betainc_reg,
    daily_series,
    f_pvalue,
    granger_test,
    group_compare,
    ols,
    read_series_csv,
    smooth_ma,
    stars_for,
    t_pvalue_two_sided,
    welch_ttest,
)

D0 = date(2020, 3, 1)


def row(i, day, detected=(), negatives=(), tags=(), bot=None):
    """A prediction record, as `infer` writes it."""
    return {"id": f"p{i}", "date": day.isoformat(), "detected": sorted(detected),
            "sentiment": {a: {"label": "Negative" if a in negatives else "NonNegative"}
                          for a in sorted(detected)},
            "group_tags": sorted(tags), "bot_flag": bot}


def table(rows):
    """`rows` read back from a predictions file."""
    with tempfile.TemporaryDirectory() as tmp:
        files.write_jsonl(Path(tmp) / "pred.jsonl", rows)
        return read_prediction_rows(Path(tmp) / "pred.jsonl")


def mask(rows, member):
    """The rows for which `member(record)` holds, as a row mask."""
    return np.array([bool(member(r)) for r in rows])


class TestDailySeries:
    def test_equality_with_a_missing_day(self):
        s = DailySeries(D0, [0.5, float("nan"), 0.25])
        assert s == DailySeries(D0, np.array([0.5, np.nan, 0.25]))
        assert not s != DailySeries(D0, [0.5, float("nan"), 0.25])
        assert s != DailySeries(D0, [0.5, 0.0, 0.25])  # a missing day is not a zero
        assert s != DailySeries(D0 + timedelta(days=1), [0.5, float("nan"), 0.25])
        assert s != [0.5, float("nan"), 0.25]

    def test_one_day_proportion(self):
        rows = [
            row(0, D0, detected=("Politics",)),
            row(1, D0),
            row(2, D0),
        ]
        s = daily_series(table(rows), "aspect-proportion", aspect="Politics")
        assert s.values == [pytest.approx(1 / 3)]

    def test_zero_tweet_day_is_missing(self):
        rows = [row(0, D0, detected=("Politics",)), row(1, date(2020, 3, 3))]
        s = daily_series(table(rows), "aspect-proportion", aspect="Politics")
        assert len(s) == 3
        assert np.isnan(s.values[1])

    def test_count_on_empty_day_is_zero(self):
        rows = [row(0, D0), row(1, date(2020, 3, 3))]
        s = daily_series(table(rows), "count")
        assert s.values.tolist() == [1.0, 0.0, 1.0]

    def test_five_day_fixture_matches_enumeration(self):
        rows = []
        idx = 0
        per_day = {0: 4, 1: 0, 2: 2, 3: 5, 4: 1}
        politics = {0: 2, 1: 0, 2: 1, 3: 0, 4: 1}
        for offset, n in per_day.items():
            for j in range(n):
                detected = ("Politics",) if j < politics[offset] else ()
                neg = ("Politics",) if (j < politics[offset] and j % 2 == 0) else ()
                rows.append(row(idx, date(2020, 3, 1 + offset), detected, neg))
                idx += 1
        counts = daily_series(table(rows), "count", start=D0, end=date(2020, 3, 5))
        assert counts.values.tolist() == [4.0, 0.0, 2.0, 5.0, 1.0]
        props = daily_series(table(rows), "aspect-proportion", aspect="Politics",
                             start=D0, end=date(2020, 3, 5))
        assert props.values[0] == pytest.approx(2 / 4)
        assert np.isnan(props.values[1])
        assert props.values[2] == pytest.approx(1 / 2)
        assert props.values[3] == 0.0
        assert props.values[4] == 1.0
        negs = daily_series(table(rows), "negative-proportion", aspect="Politics",
                            start=D0, end=date(2020, 3, 5))
        # day0: 2 mentions, 1 negative; day3: no mentions -> missing
        assert negs.values[0] == pytest.approx(1 / 2)
        assert np.isnan(negs.values[3])

    def test_nonnegative_complements_negative(self):
        rows = [
            row(0, D0, detected=("Racism",), negatives=("Racism",)),
            row(1, D0, detected=("Racism",)),
            row(2, D0, detected=("Racism",)),
        ]
        neg = daily_series(table(rows), "negative-proportion", aspect="Racism")
        non = daily_series(table(rows), "nonnegative-proportion", aspect="Racism")
        assert neg.values[0] + non.values[0] == pytest.approx(1.0)

    def test_empty_input_without_range_is_error(self):
        with pytest.raises(PipelineError):
            daily_series(table([]), "count")

    def test_explicit_range_with_no_rows(self):
        s = daily_series(table([]), "count", start=D0, end=date(2020, 3, 3))
        assert s.values.tolist() == [0.0, 0.0, 0.0]

    def test_requires_aspect_for_proportions(self):
        with pytest.raises(ValueError):
            daily_series(table([row(0, D0)]), "aspect-proportion")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinity_rejected(self, value):
        with pytest.raises(ValueError):
            DailySeries(D0, [1.0, value])


class TestSmoothMa:
    def test_constant_series(self):
        s = DailySeries(D0, [3.0] * 10)
        assert smooth_ma(s, 7).values.tolist() == [3.0] * 10

    def test_window_one_is_identity(self):
        s = DailySeries(D0, [1.0, math.nan, 2.0])
        assert np.array_equal(smooth_ma(s, 1).values, s.values, equal_nan=True)

    def test_center_of_seven(self):
        s = DailySeries(D0, [1.0, 2, 3, 4, 5, 6, 7])
        assert smooth_ma(s, 7).values[3] == pytest.approx(4.0)

    def test_boundary_truncation(self):
        s = DailySeries(D0, [1.0, 2, 3, 4, 5, 6, 7])
        got = smooth_ma(s, 7)
        assert got.values[0] == pytest.approx(np.mean([1, 2, 3, 4]))
        assert got.values[-1] == pytest.approx(np.mean([4, 5, 6, 7]))

    def test_missing_only_when_window_empty(self):
        s = DailySeries(D0, [math.nan, math.nan, math.nan, math.nan, 10.0])
        got = smooth_ma(s, 3)
        assert np.isnan(got.values[0])
        assert np.isnan(got.values[1])
        assert np.isnan(got.values[2])
        assert got.values[3] == 10.0
        assert got.values[4] == 10.0

    def test_even_window_rejected(self):
        with pytest.raises(PipelineError, match="smoothing window must be odd and >= 1, got 4"):
            smooth_ma(DailySeries(D0, [1.0]), 4)

    @given(
        values=st.lists(
            st.one_of(st.just(math.nan), st.floats(-100, 100, allow_nan=False)), min_size=1,
            max_size=30
        ),
        window=st.sampled_from([1, 3, 5, 7]),
    )
    def test_output_within_window_bounds(self, values, window):
        s = DailySeries(D0, values)
        got = smooth_ma(s, window)
        half = (window - 1) // 2
        for i, v in enumerate(got.values):
            window_vals = [
                x for x in values[max(0, i - half): i + half + 1] if not math.isnan(x)
            ]
            if not window_vals:
                assert np.isnan(v)
            else:
                assert min(window_vals) - 1e-9 <= v <= max(window_vals) + 1e-9


class TestOls:
    def test_exact_fit_has_zero_rss(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x])
        y = 2.0 + 3.0 * x
        beta, rss = ols(X, y)
        assert beta == pytest.approx([2.0, 3.0], abs=1e-10)
        assert rss <= 1e-18 * float(y @ y)

    def test_intercept_only_gives_mean(self):
        y = np.array([1.0, 2.0, 4.0, 9.0])
        beta, _ = ols(np.ones((4, 1)), y)
        assert beta[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_six_by_two_fixture_vs_cramer(self):
        X = np.array([[1.0, 0], [1, 1], [1, 2], [1, 3], [1, 4], [1, 5]])
        y = np.array([1.0, 2.0, 2.0, 5.0, 4.0, 6.0])
        # normal equations solved independently by Cramer's rule
        a11 = math.fsum(X[:, 0] * X[:, 0])
        a12 = math.fsum(X[:, 0] * X[:, 1])
        a22 = math.fsum(X[:, 1] * X[:, 1])
        b1 = math.fsum(X[:, 0] * y)
        b2 = math.fsum(X[:, 1] * y)
        det = a11 * a22 - a12 * a12
        expected = ((b1 * a22 - b2 * a12) / det, (a11 * b2 - a12 * b1) / det)
        beta, rss = ols(X, y)
        assert beta == pytest.approx(expected, abs=1e-10)
        resid = y - X @ np.asarray(expected)
        assert rss == pytest.approx(float(resid @ resid), abs=1e-10)

    def test_rank_deficiency_raises(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(UntestableError, match="^design matrix is rank deficient$"):
            ols(X, np.arange(6.0))

    def test_underdetermined_raises(self):
        with pytest.raises(UntestableError,
                           match=r"^need more observations \(2\) than regressors \(2\)$"):
            ols(np.ones((2, 2)), np.ones(2))


class TestDistributionFunctions:
    def test_f_zero_gives_one(self):
        assert f_pvalue(0.0, 1, 10) == 1.0

    def test_f_quantile_fixture(self):
        assert f_pvalue(4.9646, 1, 10) == pytest.approx(0.0500, abs=0.0005)

    def test_f_pvalue_against_quadrature(self):
        from scipy import integrate

        def f_density(x, d1, d2):
            log_pdf = (
                (d1 / 2) * math.log(d1 / d2)
                + (d1 / 2 - 1) * math.log(x)
                - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
                - (math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2))
            )
            return math.exp(log_pdf)

        for f_stat, d1, d2 in [(4.9646, 1, 10), (2.5, 3, 17), (0.7, 2, 40), (15.0, 1, 118)]:
            tail, _ = integrate.quad(f_density, f_stat, np.inf, args=(d1, d2))
            assert f_pvalue(f_stat, d1, d2) == pytest.approx(tail, abs=1e-8)

    def test_f_equals_t_squared_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = float(rng.uniform(-6, 6))
            d = float(rng.uniform(1, 200))
            assert abs(f_pvalue(t * t, 1, d) - t_pvalue_two_sided(t, d)) <= 1e-10

    def test_f_pvalue_strictly_decreasing(self):
        grid = np.linspace(0.01, 30, 200)
        values = [f_pvalue(f, 2, 12) for f in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_betainc_against_scipy(self):
        from scipy import special

        rng = np.random.default_rng(3)
        for _ in range(200):
            a = float(rng.uniform(0.1, 50))
            b = float(rng.uniform(0.1, 50))
            x = float(rng.uniform(0, 1))
            assert betainc_reg(a, b, x) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-12
            )

    @staticmethod
    def reference_betainc(a, b, x):
        """`betainc_reg` with its log prefactor written out once per branch."""
        from aspectsent.stats import _betacf

        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        front = math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * math.log(x) + b * math.log1p(-x)
        )
        if x < (a + 1.0) / (a + b + 2.0):
            return front * _betacf(a, b, x) / a
        return 1.0 - math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + b * math.log1p(-x) + a * math.log(x)
        ) * _betacf(b, a, 1.0 - x) / b

    @given(
        d1=st.integers(1, 12), d2=st.integers(1, 400),
        f=st.floats(0.0, 1e4, exclude_min=True, allow_subnormal=False),
    )
    def test_betainc_bit_identical_to_reference(self, d1, d2, f):
        # the arguments f_pvalue passes for Granger and Welch statistics
        a, b, x = d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)
        assert betainc_reg(a, b, x) == self.reference_betainc(a, b, x)
        assert betainc_reg(b, a, 1.0 - x) == self.reference_betainc(b, a, 1.0 - x)

    def test_t_tail_against_scipy(self):
        from scipy import stats as sps

        for t, df in [(0.0, 5), (1.5, 3), (-2.2, 17), (4.0, 1), (0.3, 200)]:
            expected = 2 * sps.t.sf(abs(t), df)
            assert t_pvalue_two_sided(t, df) == pytest.approx(expected, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            f_pvalue(-1.0, 1, 10)
        with pytest.raises(ValueError):
            f_pvalue(1.0, 0, 10)
        with pytest.raises(ValueError):
            betainc_reg(-1, 2, 0.5)


class TestWelch:
    def test_identical_samples(self):
        got = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert got.t_stat == 0.0
        assert got.p_value == 1.0
        assert got.stars == ""

    def test_hand_fixture(self):
        got = welch_ttest([1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0, 2.0])
        assert got.mean_a == 1.25
        assert got.difference == -0.75
        assert got.t_stat == -3.0
        assert got.df == 3.0
        from scipy import stats as sps

        assert got.p_value == pytest.approx(2 * sps.t.sf(3.0, 3.0), abs=1e-12)

    def test_against_scipy_welch(self):
        from scipy import stats as sps

        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(0, 1, size=rng.integers(3, 30))
            b = rng.normal(0.3, 2, size=rng.integers(3, 30))
            got = welch_ttest(a, b)
            expected = sps.ttest_ind(a, b, equal_var=False)
            assert got.t_stat == pytest.approx(expected.statistic, abs=1e-10)
            assert got.p_value == pytest.approx(expected.pvalue, abs=1e-10)

    def test_degenerate_equal_constant(self):
        got = welch_ttest([2.0, 2.0], [2.0, 2.0])
        assert got.t_stat == 0.0 and got.p_value == 1.0
        assert (got.difference, got.df, got.stars) == (0.0, 2.0, "")

    def test_degenerate_distinct_constants(self):
        got = welch_ttest([1.0, 1.0], [2.0, 2.0])
        assert got.p_value == 0.0
        assert math.isinf(got.t_stat) and got.t_stat < 0
        assert (got.difference, got.df, got.stars) == (-1.0, 2.0, "***")

    def test_too_small_group(self):
        with pytest.raises(PipelineError):
            welch_ttest([1.0], [1.0, 2.0])

    @given(
        a=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        b=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    )
    def test_antisymmetry(self, a, b):
        fwd = welch_ttest(a, b)
        rev = welch_ttest(b, a)
        assert fwd.t_stat == pytest.approx(-rev.t_stat, rel=1e-12, abs=1e-12) or (
            math.isinf(fwd.t_stat) and fwd.t_stat == -rev.t_stat
        )
        assert fwd.difference == pytest.approx(-rev.difference, rel=1e-12, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-9, abs=1e-12)

    def test_stars_thresholds(self):
        assert stars_for(0.04) == "*"
        assert stars_for(0.009) == "**"
        assert stars_for(0.0009) == "***"
        assert stars_for(0.06) == ""


def _series_pair(seed, n=200, causal=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=n)
    if causal:
        noise = rng.normal(0, 0.1, size=n)
        y = np.empty(n)
        y[0] = noise[0]
        y[1:] = 0.9 * x[:-1] + noise[1:]
    else:
        y = rng.normal(0, 1, size=n)
    return DailySeries(D0, list(x)), DailySeries(D0, list(y))


class TestGranger:
    def test_causal_direction_detected(self):
        x, y = _series_pair(seed=1, causal=True)
        got = granger_test(x, y, lag=1)
        assert got.p_value < 0.01
        assert got.n_used == 199

    def test_independent_not_detected_on_most_seeds(self):
        hits = 0
        for seed in range(10):
            x, y = _series_pair(seed=seed, causal=False)
            if granger_test(x, y).p_value > 0.05:
                hits += 1
        assert hits >= 8

    def test_affine_invariance(self):
        x, y = _series_pair(seed=7, causal=True)
        base = granger_test(x, y)
        x2 = DailySeries(D0, [3.5 * v + 11.0 for v in x.values])
        y2 = DailySeries(D0, [0.25 * v - 4.0 for v in y.values])
        scaled = granger_test(x2, y2)
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-8)

    def test_missing_days_dropped_pairwise(self):
        x, y = _series_pair(seed=3, causal=True)
        x.values[50] = np.nan
        y.values[120] = np.nan
        got = granger_test(x, y)
        # x[50] is only ever a lag (row t=51); y[120] is a value (t=120) and a lag (t=121)
        assert got.n_used == 199 - 3
        assert got.p_value < 0.01

    def test_insufficient_data(self):
        x = DailySeries(D0, [1.0, 2.0, 1.5, 2.5])
        y = DailySeries(D0, [2.0, 1.0, 2.5, 1.5])
        with pytest.raises(UntestableError,
                           match="^granger test needs at least 5 complete aligned days, got 3$"):
            granger_test(x, y)

    def test_lag_below_one_rejected(self):
        x, y = _series_pair(seed=2)
        with pytest.raises(PipelineError, match="lag must be >= 1, got 0") as exc:
            granger_test(x, y, lag=0)
        assert not isinstance(exc.value, UntestableError)

    def test_oversized_lag_fails_in_constant_memory(self):
        # a lag beyond the series has no row; the design must not be built for it
        x, y = _series_pair(seed=4, n=60)
        tracemalloc.start()
        try:
            with pytest.raises(UntestableError, match="needs at least 200002 .* got 0$"):
                granger_test(x, y, lag=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_misaligned_series_rejected(self):
        x = DailySeries(D0, [1.0] * 10)
        y = DailySeries(date(2020, 3, 2), [1.0] * 10)
        with pytest.raises(PipelineError, match="series are not aligned on the same dates") as exc:
            granger_test(x, y)
        assert not isinstance(exc.value, UntestableError)

    def test_constant_series_is_degenerate(self):
        x = DailySeries(D0, [1.0] * 50)
        _, y = _series_pair(seed=5)
        with pytest.raises(PipelineError):
            granger_test(x, y)

    def test_matches_statsmodels_style_f(self):
        # independent check: build the same nested OLS with numpy lstsq
        x, y = _series_pair(seed=12, causal=True)
        xs = np.asarray(x.values)
        ys = np.asarray(y.values)
        yy = ys[1:]
        Xu = np.column_stack([np.ones(len(yy)), ys[:-1], xs[:-1]])
        Xr = np.column_stack([np.ones(len(yy)), ys[:-1]])
        rss_u = float(np.sum((yy - Xu @ np.linalg.lstsq(Xu, yy, rcond=None)[0]) ** 2))
        rss_r = float(np.sum((yy - Xr @ np.linalg.lstsq(Xr, yy, rcond=None)[0]) ** 2))
        n_used = len(yy)
        expected_f = ((rss_r - rss_u) / 1) / (rss_u / (n_used - 3))
        got = granger_test(x, y)
        assert got.f_stat == pytest.approx(expected_f, rel=1e-9)


def reference_granger(x, y, lag):
    """`granger_test` with its designs built one row at a time, as lists."""
    xs = [None if math.isnan(v) else v for v in x.values.tolist()]
    ys = [None if math.isnan(v) else v for v in y.values.tolist()]
    rows_y, design_u, design_r = [], [], []
    for t in range(lag, len(ys)):
        y_lags = [ys[t - j] for j in range(1, lag + 1)]
        x_lags = [xs[t - j] for j in range(1, lag + 1)]
        if any(v is None for v in [ys[t]] + y_lags + x_lags):
            continue
        rows_y.append(ys[t])
        design_u.append([1.0] + y_lags + x_lags)
        design_r.append([1.0] + y_lags)
    n_used, k = len(rows_y), 2 * lag + 1
    if n_used < lag + 4 or n_used <= k:
        raise UntestableError(f"granger test needs at least {max(lag + 4, k + 1)} complete "
                              f"aligned days, got {n_used}")
    yy = np.asarray(rows_y)
    _, rss_u = ols(np.asarray(design_u), yy)
    _, rss_r = ols(np.asarray(design_r), yy)
    if rss_u <= 0.0:
        raise UntestableError("degenerate series: unrestricted model fits exactly")
    f_stat = max(((rss_r - rss_u) / lag) / (rss_u / (n_used - k)), 0.0)
    return GrangerResult(f_stat, f_pvalue(f_stat, lag, n_used - k), n_used)


def granger_outcome(x, y, lag, test):
    """The result's fields, floats as hex so that == is bit for bit, or the error's
    type and message."""
    try:
        r = test(x, y, lag)
    except PipelineError as exc:
        return type(exc), str(exc)
    return r.f_stat.hex(), r.p_value.hex(), r.n_used


@st.composite
def gappy_pairs(draw):
    """Two aligned series with NaN gaps, from dense to too sparse, and a lag of 1-7."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.normal(0, 1, size=n), rng.normal(0, 1, size=n)
    y[1:] += draw(st.sampled_from([0.0, 0.8])) * x[:-1]
    for values in (x, y):
        values[draw(st.lists(st.integers(0, n - 1), max_size=n // draw(st.integers(1, 12))))] = np.nan
    return DailySeries(D0, x), DailySeries(D0, y), draw(st.integers(1, 7))


class TestGrangerEqualsRowReference:
    @given(gappy_pairs())
    def test_bit_for_bit(self, pair):
        x, y, lag = pair
        assert granger_outcome(x, y, lag, granger_test) == granger_outcome(
            x, y, lag, reference_granger)

    def test_every_lag_with_gaps_and_too_sparse(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(0, 1, size=90), rng.normal(0, 1, size=90)
        y[1:] += 0.8 * x[:-1]
        x[::23], y[4::29] = np.nan, np.nan
        sparse = x.copy()
        sparse[::2] = np.nan
        for lag in range(1, 8):
            for cause in (x, sparse):
                got = granger_outcome(DailySeries(D0, cause), DailySeries(D0, y), lag, granger_test)
                assert got == granger_outcome(DailySeries(D0, cause), DailySeries(D0, y), lag,
                                              reference_granger)
                # every second day missing leaves no complete row once lag >= 2
                too_few = (UntestableError, f"granger test needs at least "
                            f"{max(lag + 4, 2 * lag + 2)} complete aligned days, got 0")
                assert (got == too_few) == (cause is sparse and lag >= 2)


class TestGroupCompare:
    def _rows(self):
        rows = []
        for i in range(30):
            bot = i < 10
            detected = {"Politics"} if (i % 2 == 0) == bot else set()
            negatives = {"Politics"} if (bot and "Politics" in detected) else set()
            rows.append(row(i, D0, detected=detected, negatives=negatives, bot=bot))
        return rows

    def test_identical_groups_no_stars(self):
        rows = [row(i, D0, detected=("Racism",) if i % 2 else (), bot=None) for i in range(20)]
        got = group_compare(table(rows), mask(rows, lambda r: True), mask(rows, lambda r: True),
                            "aspect-proportion")
        for result in got.values():
            assert result.difference == 0.0
            assert result.stars == ""

    def test_disjoint_mentions_give_difference_one(self):
        rows = [row(i, D0, detected=("Politics",), bot=True) for i in range(10)]
        rows += [row(10 + i, D0, detected=(), bot=False) for i in range(10)]
        got = group_compare(
            table(rows), mask(rows, lambda r: r["bot_flag"] is True),
            mask(rows, lambda r: r["bot_flag"] is False),
            "aspect-proportion",
        )
        politics = got["Politics"]  # both groups constant: an infinite t, p = 0
        assert politics.difference == pytest.approx(1.0)
        assert math.isinf(politics.t_stat) and politics.t_stat > 0
        assert politics.p_value == 0.0 and politics.stars == "***"

    def test_sentiment_mean_bounds(self):
        rows = self._rows()
        got = group_compare(
            table(rows), mask(rows, lambda r: r["bot_flag"] is True),
            mask(rows, lambda r: r["bot_flag"] is False),
            "sentiment-mean",
        )
        for result in got.values():
            assert 1.0 <= result.mean_a <= 2.0
            assert 1.0 <= result.mean_b <= 2.0

    def test_empty_group_rejected(self):
        rows = self._rows()
        with pytest.raises(PipelineError):
            group_compare(table(rows), mask(rows, lambda r: False), mask(rows, lambda r: True),
                          "aspect-proportion")

    def test_default_aspect_sets(self):
        rows = self._rows()
        props = group_compare(
            table(rows), mask(rows, lambda r: r["bot_flag"] is True),
            mask(rows, lambda r: r["bot_flag"] is False),
            "aspect-proportion",
        )
        assert "Overall" not in props  # Table-7 shape: content aspects only


ASPECTS = [a.value for a in A_USED]
SERIES = [("count", None)] + [(mode, a) for mode in SERIES_MODES[1:] for a in ASPECTS]
TAGS = [f"tag{i}" for i in range(70)]
SELECTORS = ["all", "bots", "users"] + [f"tag:{t}" for t in TAGS[:3]]


def is_negative(record, aspect):
    return (aspect in record["detected"]
            and record["sentiment"].get(aspect, {}).get("label") == "Negative")


def in_group(record, spec):
    if spec == "all":
        return True
    if spec == "bots":
        return record["bot_flag"] is True
    if spec == "users":
        return record["bot_flag"] is False
    return spec[4:] in record["group_tags"]


def enumerated_series(records, mode, aspect, start, end):
    """`daily_series`, by enumerating the records of each day."""
    days = [date.fromisoformat(r["date"]) for r in records]
    if start is None or end is None:
        if not records:
            raise PipelineError("no rows")
        start, end = start or min(days), end or max(days)
    if start > end:
        raise PipelineError("start after end")
    values = []
    for i in range((end - start).days + 1):
        on_day = [r for r, d in zip(records, days) if d == start + timedelta(days=i)]
        mentions = [r for r in on_day if aspect in r["detected"]]
        negative = sum(is_negative(r, aspect) for r in mentions)
        if mode == "count":
            values.append(float(len(on_day)))
        elif mode == "aspect-proportion":
            values.append(len(mentions) / len(on_day) if on_day else math.nan)
        else:
            num = negative if mode == "negative-proportion" else len(mentions) - negative
            values.append(num / len(mentions) if mentions else math.nan)
    return DailySeries(start, values)


def enumerated_compare(records, spec_a, spec_b, mode):
    """`group_compare`, as `welch_ttest` on per-record lists."""
    group_a = [r for r in records if in_group(r, spec_a)]
    group_b = [r for r in records if in_group(r, spec_b)]
    if not group_a or not group_b:
        raise PipelineError("empty group")
    out = {}
    for aspect in (a.value for a in (CONTENT_ASPECTS if mode == "aspect-proportion" else A_USED)):
        if mode == "aspect-proportion":
            xa, xb = ([1.0 if aspect in r["detected"] else 0.0 for r in group]
                      for group in (group_a, group_b))
        else:
            xa, xb = ([1.0 if is_negative(r, aspect) else 2.0 for r in group
                       if aspect in r["detected"]] for group in (group_a, group_b))
        if len(xa) >= 2 and len(xb) >= 2:
            out[aspect] = welch_ttest(xa, xb)
    return out


def outcome(fn):
    """fn(), or PipelineError if it raises one; a series as its start and its
    values in a list, with None for NaN, so that == compares it."""
    try:
        result = fn()
    except PipelineError:
        return PipelineError
    if isinstance(result, DailySeries):
        return result.start_date, [None if math.isnan(v) else v for v in result.values.tolist()]
    return result


def selected(t, spec):
    """The rows of table `t` in group selector `spec`, as `report` selects them."""
    return cli._group_mask(t, cli._group_selector(spec))


def assert_matches_enumeration(records, start=None, end=None, selectors=SELECTORS):
    t = table(records)
    for mode, aspect in SERIES:
        assert outcome(lambda: daily_series(t, mode, aspect, start, end)) == outcome(
            lambda: enumerated_series(records, mode, aspect, start, end)), (mode, aspect)
    for spec_a in selectors:
        for spec_b in selectors:
            for mode in GROUP_COMPARE_MODES:
                got = outcome(lambda: group_compare(t, selected(t, spec_a), selected(t, spec_b),
                                                    mode))
                assert got == outcome(lambda: enumerated_compare(records, spec_a, spec_b, mode))


_RECORDS = st.lists(st.fixed_dictionaries({
    "id": st.just("p"),
    "date": st.integers(0, 20).map(lambda k: (D0 + timedelta(days=k)).isoformat()),
    "detected": st.lists(st.sampled_from(ASPECTS), max_size=4),
    "sentiment": st.dictionaries(st.sampled_from(ASPECTS + ["Economy", "no such aspect"]),
                                 st.sampled_from([{"label": "Negative"}, {"label": "NonNegative"}]),
                                 max_size=4),
    "group_tags": st.lists(st.sampled_from(TAGS[:3]), max_size=2),
    "bot_flag": st.sampled_from([True, False, None]),
}), max_size=40)
_DAY = st.one_of(st.none(), st.integers(-5, 25).map(lambda k: D0 + timedelta(days=k)))


class TestPredictionsTable:
    """The columnar table gives what a per-record enumeration of the file gives."""

    @given(_RECORDS, _DAY, _DAY)
    def test_series_equal_the_enumeration(self, records, start, end):
        # windows narrower than, wider than and disjoint from days 0..20
        assert_matches_enumeration(records, start, end, selectors=[])

    @given(_RECORDS, st.sampled_from(SELECTORS), st.sampled_from(SELECTORS))
    def test_group_compare_equals_welch_on_record_lists(self, records, spec_a, spec_b):
        assert_matches_enumeration(records, selectors=[spec_a, spec_b])

    def test_duplicate_detected_name_counts_once(self):
        records = [row(0, D0, ["Politics", "Politics"], ["Politics"], bot=True),
                   row(1, D0, ["Politics"], bot=False), row(2, D0, bot=True), row(3, D0, bot=False)]
        assert records[0]["detected"] == ["Politics", "Politics"]
        # adding the Politics bit twice would set the Foreign bit
        for aspect, expected in (("Foreign", [0.0]), ("Politics", [0.5])):
            got = daily_series(table(records), "aspect-proportion", aspect)
            assert got.values.tolist() == expected
        assert_matches_enumeration(records)

    def test_sentiment_for_an_undetected_aspect_is_ignored_and_not_checked(self):
        records = [dict(row(i, D0, ["Politics"], bot=i % 2 == 0),
                        sentiment={"Politics": {"label": "NonNegative"},
                                   "Racism": {"label": "Negative"},
                                   "no such aspect": {"label": "Negative"}})
                   for i in range(4)]
        t = table(records)
        racism = daily_series(t, "negative-proportion", "Racism")
        assert len(racism) == 1 and np.isnan(racism.values[0])
        assert daily_series(t, "negative-proportion", "Politics").values.tolist() == [0.0]
        assert_matches_enumeration(records)

    def test_null_bot_flag_is_neither_bot_nor_user(self):
        records = [row(i, D0, bot=bot) for i, bot in enumerate([None, True, False, None, True])]
        t = table(records)
        assert selected(t, "bots").tolist() == [False, True, False, False, True]
        assert selected(t, "users").tolist() == [False, False, True, False, False]
        assert_matches_enumeration(records)

    def test_seventy_distinct_tags(self):
        records = [row(i, D0 + timedelta(days=i % 9), ASPECTS[i % 3:i % 5 + 1],
                       ASPECTS[i % 3:i % 4], tags=[TAGS[i % 70], TAGS[7 * i % 70]],
                       bot=i % 2 == 0) for i in range(140)]
        t = table(records)
        for tag in TAGS:
            assert selected(t, f"tag:{tag}").tolist() == [
                tag in r["group_tags"] for r in records]
        assert_matches_enumeration(records, selectors=["all", "tag:tag0", "tag:tag69"])


class TestSeriesCsv:
    def test_roundtrip_with_missing(self, tmp_path):
        s = DailySeries(D0, [1.0, math.nan, 0.25])
        path = tmp_path / "series.csv"
        files.write_csv(path, *figure_table({"value": s}))
        assert path.read_text(encoding="utf-8").splitlines()[2] == "2020-03-02,"
        again = read_series_csv(path)
        assert again.start_date == s.start_date
        assert np.array_equal(again.values, s.values, equal_nan=True)

    def test_non_consecutive_dates_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,value\n2020-03-01,1.0\n2020-03-03,2.0\n", encoding="utf-8")
        with pytest.raises(PipelineError):
            read_series_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("day,count\n2020-03-01,1.0\n", encoding="utf-8")
        with pytest.raises(PipelineError):
            read_series_csv(path)
