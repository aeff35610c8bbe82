"""Statistical comparison of model result sets: normality screening,
omnibus tests, pairwise follow-ups with a Bonferroni-corrected level, and
compact letter displays.

The battery mirrors common practice for k result groups: Shapiro-Wilk on
each group decides between (ANOVA + Welch t) and (Kruskal-Wallis + Dunn);
pairwise tests only run when the omnibus test is significant, and letters
come from the corrected-alpha significance graph.  The test statistics
and their distribution functions are computed here with the standard
library alone, sums in numpy's order (``report._sum``).  Shapiro-Wilk,
ANOVA and Welch read their samples rescaled by an exact power of two
(``_rescaled``), so no sum or square of a finite sample leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, count, groupby, islice
from numbers import Real
from statistics import NormalDist
from typing import Iterable, Iterator, Mapping, Sequence

from .report import _mean, _sum, _sum_sq_dev

__all__ = [
    "StatsError",
    "SampleSet",
    "PairwiseTest",
    "StatReport",
    "shapiro_wilk",
    "one_way_anova",
    "kruskal_wallis",
    "t_test_welch",
    "dunn_test",
    "bonferroni",
    "compact_letters",
    "check_alpha",
    "run_battery",
    "DEFAULT_ALPHA",
]

DEFAULT_ALPHA = 0.05


class StatsError(ValueError):
    """Raised for degenerate samples or invalid battery inputs."""


@dataclass(frozen=True)
class SampleSet:
    """A labeled group of scalar results (one value per run)."""

    label: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise StatsError("sample set needs a non-empty label")
        if len(self.values) < 2:
            raise StatsError(f"sample set {self.label!r} needs at least 2 values")
        values = _as_floats(self.values, f"sample set {self.label!r}")
        object.__setattr__(self, "values", tuple(values))


def _real(v: object) -> float:
    if isinstance(v, bool) or not isinstance(v, Real):  # numpy's scalars are Real
        raise TypeError(f"{v!r} is not a real number")
    return float(v)


def _as_floats(values: Sequence[float], what: str) -> list[float]:
    """``values`` as floats: a sequence, not text or bytes, of real numbers, none a bool."""
    try:
        x = [] if isinstance(values, (str, bytes, bytearray)) else [_real(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        x = []
    if not x:
        raise StatsError(f"{what} must be a non-empty 1-d sequence of numbers")
    if not all(map(math.isfinite, x)):
        raise StatsError(f"{what} contains non-finite values")
    return x


def _rescaled(groups: Sequence[list[float]]) -> list[list[float]]:
    """``groups`` times the power of two that takes their largest magnitude into [0.5, 1),
    exactly: no statistic here changes, and no sum or square can then overflow."""
    e = math.frexp(max(abs(v) for g in groups for v in g))[1]
    return [[math.ldexp(v, -e) for v in g] for g in groups]


# --------------------------------------------------------------------------
# distribution functions

_TINY = 1e-300
_EPS = 1e-15
_MAX_TERMS = 10_000
_ndtri = NormalDist().inv_cdf  # the inverse normal CDF, Wichura's AS241


def _ndtr(x: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail's precision, erf would not."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _lentz(b0: float, terms: Iterator[tuple[float, float]]) -> float:
    """1 / (b0 + a1 / (b1 + a2 / (b2 + ...))) by modified Lentz (NR 5.2)."""
    f = d = 1.0 / b0
    c = 1.0 / _TINY
    for a, b in islice(terms, _MAX_TERMS):
        d = 1.0 / (b + a * d or _TINY)
        c = b + a / c or _TINY
        f *= c * d
        if abs(c * d - 1.0) < _EPS:
            return f
    raise StatsError(f"continued fraction did not converge in {_MAX_TERMS} terms")


def _betainc(a: float, b: float, u: float, v: float) -> float:
    """I_x(a, b), the regularised incomplete beta function, at x = u / (u + v), by
    a continued fraction that converges fast below x = (a + 1) / (a + b + 2) (NR 6.4)."""
    x, y = u / (u + v), v / (u + v)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, v, u)
    if x == 0.0:
        return 0.0
    log_front = a * math.log(x) + b * math.log(y) + math.lgamma(a + b)
    log_front -= math.lgamma(a) + math.lgamma(b)
    terms = chain.from_iterable(
        ((-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)), 1.0),
         ((m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)), 1.0))
        for m in count()
    )
    return math.exp(log_front) / a * _lentz(1.0, terms)


def _t_tail(df: float, t: float) -> float:
    """P(T > |t|) for Student's t with df degrees of freedom, an integer or not."""
    return 0.5 * _betainc(df / 2.0, 0.5, df, t * t)


def _fdtrc(d1: float, d2: float, f: float) -> float:
    """Upper tail of the F(d1, d2) distribution at f >= 0."""
    return _betainc(d2 / 2.0, d1 / 2.0, d2, d1 * f)


def _chdtrc(k: float, h: float) -> float:
    """Upper tail of chi-square(k) at h: Q(k/2, h/2), the regularised upper incomplete
    gamma function, by a series of 1 - Q below k/2 + 1 and a continued fraction above."""
    a, x = k / 2.0, h / 2.0
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x >= a + 1.0:
        return front * _lentz(x + 1 - a, ((-n * (n - a), x + 2 * n + 1 - a) for n in count(1)))
    term = total = 1.0 / a
    for n in range(1, _MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term < total * _EPS:
            return 1.0 - front * total
    raise StatsError(f"gamma series did not converge in {_MAX_TERMS} terms")


# --------------------------------------------------------------------------
# normality


# polynomial corrections for the two largest order-statistic weights,
# evaluated in u = 1/sqrt(n) by Horner's rule, as numpy's polyval (Royston 1995 fit)
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)


def shapiro_wilk(values: Sequence[float]) -> tuple[float, float]:
    """W statistic and upper-tail p-value for sample normality.

    Uses the approximate order-statistic weights and the n-dependent
    normalizing transforms of W valid for 3 <= n <= 5000.  A constant
    sample has no defined W and raises.
    """
    x = sorted(_rescaled([_as_floats(values, "sample")])[0])
    n = len(x)
    if n < 3:
        raise StatsError(f"need at least 3 values, got {n}")
    if n > 5000:
        raise StatsError(f"sample size {n} above supported 5000")
    if x[0] == x[-1]:
        raise StatsError("constant sample has undefined W")

    m = [_ndtri((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    ssq_m = _sum([v * v for v in m])
    u = 1.0 / math.sqrt(n)

    if n == 3:
        a = [-math.sqrt(0.5), 0.0, math.sqrt(0.5)]
    else:
        a_n = m[-1] / math.sqrt(ssq_m) + reduce(lambda y, c: y * u + c, _C1, 0.0)
        if n > 5:
            a_n1 = m[-2] / math.sqrt(ssq_m) + reduce(lambda y, c: y * u + c, _C2, 0.0)
            phi = (ssq_m - 2.0 * (m[-1] * m[-1]) - 2.0 * (m[-2] * m[-2])) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            ends = [a_n1, a_n]
        else:
            phi = (ssq_m - 2.0 * (m[-1] * m[-1])) / (1.0 - 2.0 * a_n**2)
            ends = [a_n]
        # the largest one or two weights come from the fit, the rest from m
        a = [v / math.sqrt(phi) for v in m]
        a[-len(ends):] = ends
        a[:len(ends)] = [-v for v in reversed(ends)]

    # the weights sum to 0, so centring x leaves a . x as it is and keeps its digits
    mean = _mean(x)
    d = [v - mean for v in x]
    den = _sum([e * e for e in d])
    dot = _sum([ai * e for ai, e in zip(a, d)])
    w = min(dot * dot / den, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(p, 0.0), 1.0)
    if n <= 11:
        g = -2.273 + 0.459 * n
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
        z = (-math.log(g - math.log1p(-w)) - mu) / sigma
    else:
        ln_n = math.log(n)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n**2 + 0.0038915 * ln_n**3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n**2)
        z = (math.log1p(-w) - mu) / sigma
    return w, _ndtr(-z)


# --------------------------------------------------------------------------
# omnibus tests


def _check_groups(groups: Sequence[Sequence[float]]) -> list[list[float]]:
    if len(groups) < 2:
        raise StatsError(f"need at least 2 groups, got {len(groups)}")
    out = []
    for i, g in enumerate(groups):
        x = _as_floats(g, f"group #{i}")
        if len(x) < 2:
            raise StatsError(f"group #{i} needs at least 2 values")
        out.append(x)
    return out


def one_way_anova(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Classic one-way F test; returns (F, p) with k-1 and N-k dof."""
    gs = _rescaled(_check_groups(groups))
    k = len(gs)
    n_total = sum(map(len, gs))
    grand = _mean(list(chain.from_iterable(gs)))
    means = [_mean(g) for g in gs]
    ss_between = sum(len(g) * ((m - grand) * (m - grand)) for g, m in zip(gs, means))
    ss_within = sum(_sum_sq_dev(g, m) for g, m in zip(gs, means))
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise StatsError("all values identical; F is undefined")
        return math.inf, 0.0
    f = (ss_between / (k - 1)) / (ss_within / (n_total - k))
    return f, _fdtrc(k - 1, n_total - k, f)


def _rank_with_ties(groups: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """Midranks over the pooled groups, split back per group, plus the
    sizes of tie runs (size >= 2)."""
    rank: dict[float, float] = {}
    ties = []
    end = 0
    for value, run in groupby(sorted(chain.from_iterable(groups))):
        c = len(list(run))
        end += c
        # a run of c equal values ending at rank e shares the rank e - (c - 1) / 2
        rank[value] = end - (c - 1) / 2.0
        if c > 1:
            ties.append(c)
    return [[rank[v] for v in g] for g in groups], ties


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Tie-corrected H statistic with a chi-square(k-1) p-value."""
    gs = _check_groups(groups)
    k = len(gs)
    n = sum(map(len, gs))
    if n < 5:
        raise StatsError(f"chi-square approximation needs N >= 5, got {n}")
    ranks, ties = _rank_with_ties(gs)
    h = sum(_sum(r) ** 2 / len(r) for r in ranks)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - sum(t**3 - t for t in ties) / float(n**3 - n)
    if correction == 0.0:
        raise StatsError("all values identical; H is undefined")
    h /= correction
    return h, _chdtrc(k - 1, h)


# --------------------------------------------------------------------------
# pairwise tests


def t_test_welch(
    a: Sequence[float], b: Sequence[float], paired: bool = False
) -> tuple[float, float]:
    """Two-sided Welch t test with Welch-Satterthwaite dof.

    ``paired=True`` switches to the paired test (one-sample t on the
    differences); the battery always runs unpaired.
    """
    xa, xb = _rescaled([_as_floats(a, "sample a"), _as_floats(b, "sample b")])
    na, nb = len(xa), len(xb)
    if na < 2 or nb < 2:
        raise StatsError("each sample needs at least 2 values")
    if paired:
        if na != nb:
            raise StatsError(f"paired test needs equal sizes, got {na} and {nb}")
        # differences can cancel far below the samples' scale, so they get their own
        d = _rescaled([[p - q for p, q in zip(xa, xb)]])[0]
        diff = _mean(d)
        se2 = _sum_sq_dev(d, diff) / (na - 1) / na
        df = na - 1
    else:
        ma, mb = _mean(xa), _mean(xb)
        va, vb = _sum_sq_dev(xa, ma) / (na - 1), _sum_sq_dev(xb, mb) / (nb - 1)
        diff = ma - mb
        se2 = va / na + vb / nb
        # the squared variance terms can underflow to 0 while their sum does not
        dof_den = (va / na) * (va / na) / (na - 1) + (vb / nb) * (vb / nb) / (nb - 1)
        df = se2 * se2 / dof_den if dof_den else None
    if se2 == 0.0:
        if diff == 0.0:
            raise StatsError("zero variance in both samples with equal means")
        return math.copysign(math.inf, diff), 0.0
    if df is None:
        raise StatsError("variances too small for Welch-Satterthwaite degrees of freedom")
    t = diff / math.sqrt(se2)
    return t, 2.0 * _t_tail(df, t)


def dunn_test(
    groups: Sequence[Sequence[float]],
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """Pairwise rank-sum z statistics on pooled ranks with tie correction.

    Returns (z, p) as symmetric (k, k) nested tuples of two-sided
    unadjusted values, read as ``z[i][j]``; the diagonal is 0 and 1.
    """
    gs = _check_groups(groups)
    k = len(gs)
    n = sum(map(len, gs))
    ranks, ties = _rank_with_ties(gs)
    tie_term = sum(t**3 - t for t in ties) / (12.0 * (n - 1))
    base_var = n * (n + 1) / 12.0 - tie_term
    if base_var <= 0.0:
        raise StatsError("all values identical; rank variance is zero")

    mean_ranks = [_mean(r) for r in ranks]
    z = [[0.0] * k for _ in range(k)]
    p = [[1.0] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        se = math.sqrt(base_var * (1.0 / len(ranks[i]) + 1.0 / len(ranks[j])))
        zij = (mean_ranks[i] - mean_ranks[j]) / se
        z[i][j] = zij
        z[j][i] = -zij
        p[i][j] = p[j][i] = 2.0 * _ndtr(-abs(zij))
    return tuple(map(tuple, z)), tuple(map(tuple, p))


def bonferroni(alpha: float, m: int) -> float:
    """Per-comparison level for m comparisons at family level alpha."""
    check_alpha(alpha)
    if m < 1:
        raise StatsError(f"comparison count must be positive, got {m}")
    return alpha / m


# --------------------------------------------------------------------------
# compact letter display


def _letter(index: int) -> str:
    # a..z, then aa, ab, ...
    out = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        out = chr(ord("a") + rem) + out
    return out


def compact_letters(
    groups: Sequence[str],
    nonsig_pairs: Iterable[tuple[str, str]],
) -> dict[str, str]:
    """Assign display letters from the pairwise significance structure.

    Groups that are not significantly different share at least one
    letter; significantly different groups share none.  Uses the
    insert-and-absorb construction: start with one column holding every
    group, split it on each significant pair, and drop columns absorbed
    by a superset.  Letters follow the caller's group order.
    """
    groups = list(groups)
    if len(set(groups)) != len(groups):
        raise StatsError("duplicate group names")
    pos = {g: i for i, g in enumerate(groups)}
    nonsig: set[frozenset[str]] = set()
    for a, b in nonsig_pairs:
        if a not in pos or b not in pos:
            raise StatsError(f"pair ({a!r}, {b!r}) names an unknown group")
        if a == b:
            continue
        nonsig.add(frozenset((a, b)))

    sig_pairs = [pair for pair in combinations(groups, 2) if frozenset(pair) not in nonsig]

    columns = [frozenset(groups)]
    for a, b in sig_pairs:
        split = [
            part
            for col in columns
            for part in ((col - {a}, col - {b}) if a in col and b in col else (col,))
        ]
        # absorb: drop duplicates, then every column that another column contains
        unique = list(dict.fromkeys(split))
        columns = [col for col in unique if not any(col < other for other in unique)]

    columns.sort(key=lambda col: sorted(pos[g] for g in col))
    letters = {g: "" for g in groups}
    for ci, col in enumerate(columns):
        ch = _letter(ci)
        for g in sorted(col, key=pos.get):
            letters[g] += ch
    return letters


# --------------------------------------------------------------------------
# the full battery


@dataclass(frozen=True)
class PairwiseTest:
    group_a: str
    group_b: str
    method: str  # "welch_t" or "dunn"
    statistic: float
    p_value: float


@dataclass(frozen=True)
class StatReport:
    """Everything the battery measured for one metric, and the decisions it took.

    The ten fields hold the measurements; the five properties derive the
    decisions from them.  ``all_normal`` is true when Kruskal-Wallis did not
    run, which ``run_battery`` decides from the normality p-values;
    ``omnibus_method``, ``omnibus_stat`` and ``omnibus_p`` are the ANOVA pair
    or the Kruskal-Wallis pair, chosen by ``all_normal``; ``alpha_corrected``
    is ``alpha`` Bonferroni-corrected for every pair of groups.
    """

    group_names: tuple[str, ...]
    normality_w: Mapping[str, float]
    normality_p: Mapping[str, float]
    anova_f: float
    anova_p: float
    kruskal_h: float | None
    kruskal_p: float | None
    alpha: float
    pairwise: tuple[PairwiseTest, ...]
    letters: Mapping[str, str]

    @property
    def all_normal(self) -> bool:
        return self.kruskal_h is None

    @property
    def omnibus_method(self) -> str:
        return "anova" if self.all_normal else "kruskal_wallis"

    @property
    def omnibus_stat(self) -> float:
        return self.anova_f if self.all_normal else self.kruskal_h

    @property
    def omnibus_p(self) -> float:
        return self.anova_p if self.all_normal else self.kruskal_p

    @property
    def alpha_corrected(self) -> float:
        return bonferroni(self.alpha, math.comb(len(self.group_names), 2))

    def as_dict(self) -> dict:
        return {
            "groups": list(self.group_names),
            "normality": {
                g: {"w": self.normality_w[g], "p": self.normality_p[g]}
                for g in self.group_names
            },
            "all_normal": self.all_normal,
            "omnibus": {
                "method": self.omnibus_method,
                "statistic": self.omnibus_stat,
                "p": self.omnibus_p,
            },
            "anova": {"f": self.anova_f, "p": self.anova_p},
            "kruskal_wallis": None
            if self.kruskal_h is None
            else {"h": self.kruskal_h, "p": self.kruskal_p},
            "alpha": self.alpha,
            "alpha_corrected": self.alpha_corrected,
            "pairwise": [
                {
                    "a": t.group_a,
                    "b": t.group_b,
                    "method": t.method,
                    "statistic": t.statistic,
                    "p": t.p_value,
                }
                for t in self.pairwise
            ],
            "letters": dict(self.letters),
        }


def check_alpha(alpha: float) -> float:
    """``alpha`` itself, once it is a real number and a family level the battery can use."""
    try:
        inside = 0.0 < _real(alpha) < 1.0  # NaN fails the comparison
    except TypeError:
        raise StatsError(f"alpha must be a real number, got {alpha!r}") from None
    except OverflowError:  # an int beyond the float range
        inside = False
    if not inside:
        raise StatsError(f"alpha {alpha} outside (0, 1)")
    return alpha


def run_battery(groups: Sequence[SampleSet], alpha: float = DEFAULT_ALPHA) -> StatReport:
    """Run the full comparison battery over k labeled result groups.

    Normality screening gates the branch: if every group looks normal the
    omnibus is ANOVA with Welch t follow-ups, otherwise Kruskal-Wallis
    with Dunn follow-ups (ANOVA is still computed and reported alongside
    for comparison).  Pairwise tests run only when the omnibus p is below
    alpha; their significance level is Bonferroni-corrected by the number
    of pairs, and the letter display reflects that corrected level.  With
    a non-significant omnibus every group shares one letter.
    """
    check_alpha(alpha)
    if len(groups) < 2:
        raise StatsError(f"need at least 2 groups, got {len(groups)}")
    names = [g.label for g in groups]
    if len(set(names)) != len(names):
        raise StatsError("duplicate group labels")
    values = [g.values for g in groups]

    normality_w, normality_p = zip(*[shapiro_wilk(v) for v in values])
    all_normal = all(p >= alpha for p in normality_p)
    anova_f, anova_p = one_way_anova(values)
    kruskal_h, kruskal_p = (None, None) if all_normal else kruskal_wallis(values)

    pairs = list(combinations(range(len(names)), 2))
    tests: list[tuple[str, float, float]] = []  # (method, statistic, p) per pair
    if (anova_p if all_normal else kruskal_p) < alpha:
        if all_normal:
            tests = [("welch_t", *t_test_welch(values[i], values[j])) for i, j in pairs]
        else:
            z, p = dunn_test(values)
            tests = [("dunn", z[i][j], p[i][j]) for i, j in pairs]
    pairwise = tuple(PairwiseTest(names[i], names[j], *t) for (i, j), t in zip(pairs, tests))

    alpha_corrected = bonferroni(alpha, len(pairs))
    nonsig = (
        [(t.group_a, t.group_b) for t in pairwise if t.p_value >= alpha_corrected]
        if pairwise
        else list(combinations(names, 2))
    )
    return StatReport(
        group_names=tuple(names),
        normality_w=dict(zip(names, normality_w)),
        normality_p=dict(zip(names, normality_p)),
        anova_f=anova_f,
        anova_p=anova_p,
        kruskal_h=kruskal_h,
        kruskal_p=kruskal_p,
        alpha=alpha,
        pairwise=pairwise,
        letters=compact_letters(names, nonsig),
    )
