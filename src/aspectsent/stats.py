"""Daily series, smoothing, Granger-causality tests, and Welch t-tests.

Series are date-indexed float arrays with NaN standing for a missing
value, a zero-denominator day such as a collection outage; every operation
here tolerates them. The Granger test compares nested OLS models fit by normal
equations with partial pivoting, and its p-values come from the F
distribution realized through a native regularized incomplete beta
(continued fraction), accurate to well below 1e-10 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from . import files
from .corpus import A_USED, CONTENT_ASPECTS
from .errors import PipelineError


class UntestableError(PipelineError):
    """An untestable Granger pair: too few complete days, a singular design or an exact fit."""

@dataclass
class DailySeries:
    """One value per consecutive UTC day from `start_date`; NaN = missing."""

    start_date: date
    values: np.ndarray  # float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or not len(self.values):
            raise ValueError("series must cover at least one day")
        if np.isinf(self.values).any():
            raise ValueError("infinite values are not allowed")

    def __eq__(self, other) -> bool:
        """The same start day and values; a missing day (NaN) equals a missing day."""
        if not isinstance(other, DailySeries):
            return NotImplemented
        return (self.start_date == other.start_date
                and np.array_equal(self.values, other.values, equal_nan=True))

    def __len__(self) -> int:
        return len(self.values)

    def date_at(self, i: int) -> date:
        return self.start_date + timedelta(days=i)


# One row per prediction record, in file order: the day as a date ordinal, the
# detected and negative aspects as bitmasks over ASPECT_BITS (negative inside
# detected), and the index of the record's (group_tags, bot_flag) pair.
PREDICTION_COLUMNS = np.dtype([("day", "<i4"), ("detected", "u1"), ("negative", "u1"),
                               ("group", "<i4")])
ASPECT_BITS = {a.value: 1 << i for i, a in enumerate(A_USED)}


@dataclass(frozen=True)
class Predictions:
    """A predictions file as a table, the unit all series and group stats consume."""

    rows: np.ndarray  # PREDICTION_COLUMNS
    groups: list[tuple[tuple[str, ...], bool | None]]  # (group_tags, bot_flag) by index

    def __len__(self) -> int:
        return len(self.rows)

    def span(self) -> tuple[date, date]:
        """The first and the last day of the rows."""
        day = self.rows["day"]
        return date.fromordinal(int(day.min())), date.fromordinal(int(day.max()))


def check_lag(lag: int) -> int:
    """`lag` if it is a Granger lag, at least 1."""
    if lag < 1:
        raise PipelineError(f"lag must be >= 1, got {lag}")
    return lag


def check_window(window: int) -> int:
    """`window` if it is a smoothing window, odd and at least 1."""
    if window < 1 or window % 2 == 0:
        raise PipelineError(f"smoothing window must be odd and >= 1, got {window}")
    return window


SERIES_MODES = ("count", "aspect-proportion", "negative-proportion", "nonnegative-proportion")


def daily_series(
    table: Predictions,
    mode: str,
    aspect: str | None = None,
    start: date | None = None,
    end: date | None = None,
) -> DailySeries:
    """Build one value per day: tweet counts or within-day proportions.

    Proportions on a zero-denominator day are missing (NaN), never 0/0;
    counts on an empty day are 0. The date range defaults to the span of the
    input rows and may be widened or narrowed explicitly.
    """
    if mode not in SERIES_MODES:
        raise ValueError(f"unknown series mode {mode!r}")
    if mode != "count" and aspect not in ASPECT_BITS:
        raise ValueError(f"mode {mode!r} requires an aspect of A_USED")
    if start is None or end is None:
        if not len(table):
            raise PipelineError("empty date range: no rows and no explicit start/end")
        first, last = table.span()
        start = start or first
        end = end or last
    if start > end:
        raise PipelineError("empty date range: start is after end")

    n_days = (end - start).days + 1
    offset = table.rows["day"] - start.toordinal()
    in_range = (offset >= 0) & (offset < n_days)

    def per_day(rows: np.ndarray) -> np.ndarray:
        return np.bincount(offset[rows], minlength=n_days)

    if mode == "count":
        return DailySeries(start, per_day(in_range).astype(np.float64))
    bit = ASPECT_BITS[aspect]
    mentions = in_range & (table.rows["detected"] & bit != 0)
    if mode == "aspect-proportion":
        num, denom = per_day(mentions), per_day(in_range)
    else:
        denom = per_day(mentions)
        neg = per_day(mentions & (table.rows["negative"] & bit != 0))
        num = neg if mode == "negative-proportion" else denom - neg
    # counts below 2**53 convert to float64 exactly, so each quotient is
    # correctly rounded, as a division of Python ints is
    return DailySeries(start, np.divide(num, denom, out=np.full(n_days, np.nan), where=denom > 0))


def smooth_ma(series: DailySeries, window: int = 7) -> DailySeries:
    """Centered moving average over present values, truncated at boundaries.

    A day is missing in the output iff no present value falls inside its
    window.
    """
    half = (check_window(window) - 1) // 2
    values = series.values
    out = np.full(len(values), np.nan)
    for i in range(len(values)):
        window_values = values[max(0, i - half) : i + half + 1]
        present = window_values[~np.isnan(window_values)]
        if len(present):
            out[i] = math.fsum(present) / len(present)
    return DailySeries(series.start_date, out)


def _solve_ppivot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting for a small dense system."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    k = a.shape[0]
    scale = np.abs(a).max()
    tol = max(scale, 1.0) * 1e-12
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) <= tol:
            raise UntestableError("design matrix is rank deficient")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(k)
    for row in range(k - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares via the normal equations; returns (coefficients, RSS)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError("y length must match the rows of X")
    if n <= k:
        raise UntestableError(f"need more observations ({n}) than regressors ({k})")
    beta = _solve_ppivot(X.T @ X, X.T @ y)
    resid = y - X @ beta
    return beta, float(resid @ resid)


# --- distribution tails via the regularized incomplete beta function ---

_BETACF_TINY = 1e-300
_BETACF_EPS = 3e-16
_BETACF_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz iteration)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # log of x^a (1-x)^b / B(a, b); each branch sums it in its own order, so
    # that published p-values stay the same to the last bit
    ln_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    a_log_x = a * math.log(x)
    b_log_1mx = b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_beta + a_log_x + b_log_1mx) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_beta + b_log_1mx + a_log_x) * _betacf(b, a, 1.0 - x) / b


def f_pvalue(f_stat: float, d1: float, d2: float) -> float:
    """Upper-tail p of the F distribution, p = 1 - CDF_F(f; d1, d2)."""
    if f_stat < 0:
        raise ValueError("F statistic must be nonnegative")
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f_stat == 0.0:
        return 1.0
    return betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f_stat))


def t_pvalue_two_sided(t_stat: float, df: float) -> float:
    """Two-sided Student-t tail probability P(|T| >= |t|)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t_stat == 0.0:
        return 1.0
    if math.isinf(t_stat):
        return 0.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t_stat * t_stat))


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
    p_value: float
    n_used: int


def granger_test(x: DailySeries, y: DailySeries, lag: int = 1) -> GrangerResult:
    """Does x Granger-cause y? F-test of nested OLS models at the given lag.

    Unrestricted model: y_t on an intercept, lags of y, and lags of x; the
    restricted model drops the x lags. Rows whose lag window touches a
    missing (NaN) day are dropped pairwise, and the raw (unsmoothed) series
    should be supplied, since pre-smoothing induces autocorrelation that
    inflates F.
    """
    check_lag(lag)
    if len(x) != len(y) or x.start_date != y.start_date:
        raise PipelineError("series are not aligned on the same dates")
    k = 2 * lag + 1
    too_few = f"granger test needs at least {max(lag + 4, k + 1)} complete aligned days, got"
    if len(y) <= lag:  # no row: fail before building 2 * lag columns of nothing
        raise UntestableError(f"{too_few} 0")
    # row t - lag holds an intercept, y_{t-1..t-lag} and x_{t-1..t-lag}; its target is y_t
    rows = len(y) - lag
    ys = y.values[lag:]
    design = np.column_stack([np.ones(rows)] + [s.values[lag - j : lag - j + rows]
                                                for s in (y, x) for j in range(1, lag + 1)])
    complete = ~(np.isnan(ys) | np.isnan(design).any(axis=1))
    # C-contiguous designs: `ols` must see the layout the published F and p came from
    yy, design_u = ys[complete], design[complete]
    design_r = np.ascontiguousarray(design_u[:, : lag + 1])

    n_used = len(yy)
    if n_used < lag + 4 or n_used <= k:
        raise UntestableError(f"{too_few} {n_used}")
    _, rss_u = ols(design_u, yy)
    _, rss_r = ols(design_r, yy)
    if rss_u <= 0.0:
        raise UntestableError("degenerate series: unrestricted model fits exactly")
    f_stat = max(((rss_r - rss_u) / lag) / (rss_u / (n_used - k)), 0.0)
    return GrangerResult(f_stat, f_pvalue(f_stat, lag, n_used - k), n_used)


def stars_for(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class TTestResult:
    mean_a: float
    mean_b: float
    difference: float
    t_stat: float
    df: float
    p_value: float
    stars: str


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Welch two-sample t-test with Welch-Satterthwaite degrees of freedom.

    When both samples have zero variance, equal means give (t=0, p=1) and
    different means an infinite statistic with p = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise PipelineError(f"welch t-test needs >= 2 samples per group, got {na} and {nb}")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    diff = mean_a - mean_b
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        if diff == 0.0:
            return TTestResult(mean_a, mean_b, 0.0, 0.0, float(na + nb - 2), 1.0, "")
        t_stat = math.copysign(math.inf, diff)
        return TTestResult(mean_a, mean_b, diff, t_stat, float(na + nb - 2), 0.0, "***")
    sa, sb = va / na, vb / nb
    s = sa + sb
    t_stat = diff / math.sqrt(s)
    # Welch-Satterthwaite df, computed on the scale-free ratios sa/s and sb/s
    # so that denormal variances cannot underflow the squares
    ra, rb = sa / s, sb / s
    df = 1.0 / (ra * ra / (na - 1) + rb * rb / (nb - 1))
    p = t_pvalue_two_sided(t_stat, df)
    return TTestResult(mean_a, mean_b, diff, t_stat, df, p, stars_for(p))


GROUP_COMPARE_MODES = ("aspect-proportion", "sentiment-mean")


def group_compare(
    table: Predictions, in_a: np.ndarray, in_b: np.ndarray, mode: str
) -> dict[str, TTestResult]:
    """Per-aspect Welch t-tests between two groups of rows, given as row masks.

    Mode "aspect-proportion" compares per-tweet binary aspect indicators over
    the five content aspects; mode "sentiment-mean" encodes negative=1 /
    non-negative=2 over the tweets mentioning the aspect, for Overall too.
    Each sample is in file order. Aspects with fewer than two usable samples
    on either side are skipped.
    """
    if mode not in GROUP_COMPARE_MODES:
        raise ValueError(f"unknown comparison mode {mode!r}")
    if not in_a.any() or not in_b.any():
        raise PipelineError("both comparison groups must be non-empty")
    detected, negative = table.rows["detected"], table.rows["negative"]
    out: dict[str, TTestResult] = {}
    for aspect in CONTENT_ASPECTS if mode == "aspect-proportion" else A_USED:
        bit = ASPECT_BITS[aspect.value]
        mentions = detected & bit != 0
        if mode == "aspect-proportion":
            xa, xb = (mentions[rows].astype(float) for rows in (in_a, in_b))
        else:
            xa, xb = (np.where(negative[rows & mentions] & bit, 1.0, 2.0) for rows in (in_a, in_b))
        if len(xa) < 2 or len(xb) < 2:
            continue
        out[aspect.value] = welch_ttest(xa, xb)
    return out


def read_series_csv(path) -> DailySeries:
    rows = files.csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None or [h.strip() for h in header[:2]] != ["date", "value"]:
        raise PipelineError(f"{path}: expected a 'date,value' series CSV")
    days: list[date] = []
    values: list[float] = []
    for lineno, row in rows:
        where = f"{path}:{lineno}"
        try:
            days.append(date.fromisoformat(row[0]))
        except ValueError:
            raise PipelineError(f"{where}: bad date {row[0]!r}, expected YYYY-MM-DD") from None
        cell = row[1] if len(row) > 1 else ""  # empty: a missing day
        try:
            value = float(cell) if cell != "" else math.nan
        except ValueError:
            raise PipelineError(f"{where}: non-numeric value {cell!r}") from None
        if cell != "" and not math.isfinite(value):
            raise PipelineError(f"{where}: non-finite value {cell!r}")
        values.append(value)
    if not days:
        raise PipelineError(f"{path}: series file has no rows")
    for prev, nxt in zip(days, days[1:]):
        if (nxt - prev).days != 1:
            raise PipelineError(f"{path}: series dates must be consecutive days")
    return DailySeries(days[0], values)
