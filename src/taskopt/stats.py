"""One-way ANOVA and Bonferroni-corrected pairwise comparisons.

P-values come from the F and Student-t survival functions, both
expressed through a regularized incomplete beta function evaluated with
Lentz's continued-fraction method. No external statistics library is
used at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

_BETACF_TOL = 1e-12
_BETACF_MAX_ITER = 300
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _betacf(a, b, x) / a
    else:
        value = 1.0 - front * _betacf(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, value))


def f_survival(f: float, df_num: float, df_den: float) -> float:
    """P(F >= f) for an F distribution with the given degrees of freedom."""
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df_den / (df_den + df_num * f)
    return regularized_incomplete_beta(df_den / 2.0, df_num / 2.0, x)


def t_two_tailed(t: float, df: float) -> float:
    """Two-sided P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float
    degenerate: bool = False  # zero within-group variance

    def to_dict(self) -> dict:
        return {
            "f": self.f_stat,
            "df_between": self.df_between,
            "df_within": self.df_within,
            "p": self.p_value,
            "degenerate": self.degenerate,
        }


def one_way_anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Classic between/within mean-square F test over two or more groups."""
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least 2 groups")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for i, g in enumerate(arrays):
        if g.size < 2:
            raise ValueError(f"group {i} has {g.size} value(s); need at least 2")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"group {i} contains non-finite values")
    n_total = sum(g.size for g in arrays)
    grand = sum(g.sum() for g in arrays) / n_total
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in arrays)
    df_between = len(arrays) - 1
    df_within = n_total - len(arrays)

    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, df_between, df_within, 1.0, degenerate=True)
        return AnovaResult(math.inf, df_between, df_within, 0.0, degenerate=True)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(float(f), df_between, df_within,
                       f_survival(float(f), df_between, df_within))


@dataclass(frozen=True)
class PairwiseResult:
    pair: tuple[str, str]
    t_stat: float
    p_raw: float
    p_adjusted: float
    mean_diff: float  # mean(first - second)
    n: int
    pct_reduction_mean: float | None = None  # reduction of second vs first, %
    pct_reduction_std: float | None = None
    degenerate: bool = False  # zero-variance difference vector

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "t": self.t_stat,
            "p_raw": self.p_raw,
            "p_adj": self.p_adjusted,
            "mean_diff": self.mean_diff,
            "n": self.n,
            "pct_reduction_mean": self.pct_reduction_mean,
            "pct_reduction_std": self.pct_reduction_std,
            "degenerate": self.degenerate,
        }


def percent_reduction(
    baseline: Sequence[float], improved: Sequence[float]
) -> tuple[float, float]:
    """Mean and sample std of per-entry 100 * (baseline - improved) / baseline."""
    base = np.asarray(baseline, dtype=float)
    imp = np.asarray(improved, dtype=float)
    if base.shape != imp.shape or base.ndim != 1 or base.size == 0:
        raise ValueError("baseline and improved must be equal-length 1-D vectors")
    if np.any(base == 0.0):
        raise ValueError("baseline contains zero entries")
    reductions = 100.0 * (base - imp) / base
    std = float(reductions.std(ddof=1)) if reductions.size > 1 else 0.0
    return float(reductions.mean()), std


def _paired_t(a: np.ndarray, b: np.ndarray) -> tuple[float, float, bool]:
    diff = a - b
    n = diff.size
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    sd = diff.std(ddof=1)
    if sd == 0.0:
        if diff.mean() == 0.0:
            return 0.0, 1.0, True  # identical vectors
        t = math.copysign(math.inf, diff.mean())
        return t, 0.0, True  # constant nonzero difference
    t = float(diff.mean() / (sd / math.sqrt(n)))
    return t, t_two_tailed(t, n - 1), False


def pairwise_bonferroni(
    groups: Sequence[tuple[str, Sequence[float]]],
    m: int | None = None,
) -> list[PairwiseResult]:
    """All pairwise paired t-tests with Bonferroni-adjusted p-values.

    The groups must have equal lengths with aligned ordering. ``m``
    defaults to the number of comparisons. Percent reduction of the
    second member relative to the first is attached whenever every
    baseline entry is nonzero.
    """
    named = [(name, np.asarray(values, dtype=float)) for name, values in groups]
    if len(named) < 2:
        raise ValueError("need at least 2 groups for pairwise comparisons")
    pairs = list(combinations(range(len(named)), 2))
    if m is None:
        m = len(pairs)
    results = []
    for i, j in pairs:
        name_a, a = named[i]
        name_b, b = named[j]
        if a.size != b.size:
            raise ValueError(
                f"paired comparison {name_a!r} vs {name_b!r}: lengths differ"
            )
        t, p_raw, degenerate = _paired_t(a, b)
        pct_mean = pct_std = None
        if np.all(a != 0.0):
            pct_mean, pct_std = percent_reduction(a, b)
        results.append(
            PairwiseResult(
                pair=(name_a, name_b),
                t_stat=t,
                p_raw=p_raw,
                p_adjusted=min(1.0, m * p_raw),
                mean_diff=float(a.mean() - b.mean()),
                n=int(a.size),
                pct_reduction_mean=pct_mean,
                pct_reduction_std=pct_std,
                degenerate=degenerate,
            )
        )
    return results
