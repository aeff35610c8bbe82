"""Statistical comparison of model result sets: normality screening,
omnibus tests, pairwise follow-ups with a Bonferroni-corrected level, and
compact letter displays.

The battery mirrors common practice for k result groups: Shapiro-Wilk on
each group decides between (ANOVA + Welch t) and (Kruskal-Wallis + Dunn);
pairwise tests only run when the omnibus test is significant, and letters
come from the corrected-alpha significance graph.  Test statistics are
computed here directly; only distribution functions come from scipy,
imported inside the functions that call them so that importing this
module (and so the CLI) does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise StatsError(f"sample set {self.label!r} needs at least 2 values")


def _as_array(values: Sequence[float], what: str) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise StatsError(f"{what} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise StatsError(f"{what} contains non-finite values")
    return x


# --------------------------------------------------------------------------
# normality


# polynomial corrections for the two largest order-statistic weights,
# evaluated in u = 1/sqrt(n) (Royston 1995 fit)
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)


def shapiro_wilk(values: Sequence[float]) -> tuple[float, float]:
    """W statistic and upper-tail p-value for sample normality.

    Uses the approximate order-statistic weights and the n-dependent
    normalizing transforms of W valid for 3 <= n <= 5000.  A constant
    sample has no defined W and raises.
    """
    from scipy import special

    x = np.sort(_as_array(values, "sample"))
    n = x.size
    if n < 3:
        raise StatsError(f"need at least 3 values, got {n}")
    if n > 5000:
        raise StatsError(f"sample size {n} above supported 5000")
    if x[0] == x[-1]:
        raise StatsError("constant sample has undefined W")

    m = special.ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssq_m = float(np.dot(m, m))
    u = 1.0 / math.sqrt(n)

    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        c = m / math.sqrt(ssq_m)
        a_n = float(c[-1] + np.polyval(_C1, u))
        if n > 5:
            a_n1 = float(c[-2] + np.polyval(_C2, u))
            phi = (ssq_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            a = m / math.sqrt(phi)
            a[-1], a[0] = a_n, -a_n
            a[-2], a[1] = a_n1, -a_n1
        else:
            phi = (ssq_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
            a = m / math.sqrt(phi)
            a[-1], a[0] = a_n, -a_n

    num = float(np.dot(a, x)) ** 2
    den = float(np.sum((x - x.mean()) ** 2))
    w = min(num / den, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, float(min(max(p, 0.0), 1.0))
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
    return w, float(special.ndtr(-z))


# --------------------------------------------------------------------------
# omnibus tests


def _check_groups(groups: Sequence[Sequence[float]], min_groups: int = 2) -> list[np.ndarray]:
    if len(groups) < min_groups:
        raise StatsError(f"need at least {min_groups} groups, got {len(groups)}")
    out = []
    for i, g in enumerate(groups):
        arr = _as_array(g, f"group #{i}")
        if arr.size < 2:
            raise StatsError(f"group #{i} needs at least 2 values")
        out.append(arr)
    return out


def one_way_anova(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Classic one-way F test; returns (F, p) with k-1 and N-k dof."""
    from scipy import special

    gs = _check_groups(groups)
    k = len(gs)
    n_total = sum(g.size for g in gs)
    grand = float(np.concatenate(gs).mean())
    ss_between = sum(g.size * (float(g.mean()) - grand) ** 2 for g in gs)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in gs)
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise StatsError("all values identical; F is undefined")
        return math.inf, 0.0
    f = (ss_between / (k - 1)) / (ss_within / (n_total - k))
    p = float(special.fdtrc(k - 1, n_total - k, f))
    return float(f), p


def _rank_with_ties(groups: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Midranks over the pooled groups, split back per group, plus the
    sizes of tie runs (size >= 2)."""
    _, inverse, counts = np.unique(
        np.concatenate(groups), return_inverse=True, return_counts=True
    )
    # a run of c equal values ending at rank e shares the rank e - (c - 1) / 2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    bounds = np.cumsum([g.size for g in groups[:-1]])
    return np.split(ranks, bounds), counts[counts > 1].tolist()


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Tie-corrected H statistic with a chi-square(k-1) p-value."""
    from scipy import special

    gs = _check_groups(groups)
    k = len(gs)
    n = sum(g.size for g in gs)
    if n < 5:
        raise StatsError(f"chi-square approximation needs N >= 5, got {n}")
    ranks, ties = _rank_with_ties(gs)
    h = sum(float(r.sum()) ** 2 / r.size for r in ranks)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - sum(t**3 - t for t in ties) / float(n**3 - n)
    if correction == 0.0:
        raise StatsError("all values identical; H is undefined")
    h /= correction
    p = float(special.chdtrc(k - 1, h))
    return float(h), p


# --------------------------------------------------------------------------
# pairwise tests


def t_test_welch(
    a: Sequence[float], b: Sequence[float], paired: bool = False
) -> tuple[float, float]:
    """Two-sided Welch t test with Welch-Satterthwaite dof.

    ``paired=True`` switches to the paired test (one-sample t on the
    differences); the battery always runs unpaired.
    """
    from scipy import special

    xa = _as_array(a, "sample a")
    xb = _as_array(b, "sample b")
    if xa.size < 2 or xb.size < 2:
        raise StatsError("each sample needs at least 2 values")
    if paired:
        if xa.size != xb.size:
            raise StatsError(
                f"paired test needs equal sizes, got {xa.size} and {xb.size}"
            )
        d = xa - xb
        vd = float(d.var(ddof=1))
        if vd == 0.0:
            if float(d.mean()) == 0.0:
                raise StatsError("zero variance in both samples with equal means")
            return math.copysign(math.inf, float(d.mean())), 0.0
        t = float(d.mean()) / math.sqrt(vd / d.size)
        df = d.size - 1
        return float(t), 2.0 * float(special.stdtr(df, -abs(t)))
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    na, nb = xa.size, xb.size
    se2 = va / na + vb / nb
    diff = float(xa.mean() - xb.mean())
    if se2 == 0.0:
        if diff == 0.0:
            raise StatsError("zero variance in both samples with equal means")
        return math.copysign(math.inf, diff), 0.0
    t = diff / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return float(t), p


def dunn_test(groups: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise rank-sum z statistics on pooled ranks with tie correction.

    Returns (z, p) as symmetric (k, k) arrays of two-sided unadjusted
    values; the diagonal is 0 and 1.
    """
    from scipy import special

    gs = _check_groups(groups)
    k = len(gs)
    n = sum(g.size for g in gs)
    ranks, ties = _rank_with_ties(gs)
    tie_term = sum(t**3 - t for t in ties) / (12.0 * (n - 1))
    base_var = n * (n + 1) / 12.0 - tie_term
    if base_var <= 0.0:
        raise StatsError("all values identical; rank variance is zero")

    mean_ranks = [float(r.mean()) for r in ranks]
    z = np.zeros((k, k))
    p = np.ones((k, k))
    for i, j in combinations(range(k), 2):
        se = math.sqrt(base_var * (1.0 / ranks[i].size + 1.0 / ranks[j].size))
        zij = (mean_ranks[i] - mean_ranks[j]) / se
        pij = min(2.0 * float(special.ndtr(-abs(zij))), 1.0)
        z[i, j] = zij
        z[j, i] = -zij
        p[i, j] = p[j, i] = pij
    return z, p


def bonferroni(alpha: float, m: int) -> float:
    """Per-comparison level for m comparisons at family level alpha."""
    if not (0.0 < alpha <= 1.0):
        raise StatsError(f"alpha {alpha} outside (0, 1]")
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

    columns: list[set[str]] = [set(groups)]
    for a, b in sig_pairs:
        new_columns: list[set[str]] = []
        for col in columns:
            if a in col and b in col:
                new_columns.append(col - {a})
                new_columns.append(col - {b})
            else:
                new_columns.append(col)
        # absorb: drop any column contained in another
        kept: list[set[str]] = []
        for col in new_columns:
            if not col:
                continue
            if any(col < other for other in new_columns):
                continue
            if any(col == other for other in kept):
                continue
            kept.append(col)
        columns = kept

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
    """Everything the battery produced for one metric."""

    group_names: tuple[str, ...]
    normality_w: Mapping[str, float]
    normality_p: Mapping[str, float]
    all_normal: bool
    omnibus_method: str  # "anova" or "kruskal_wallis"
    omnibus_stat: float
    omnibus_p: float
    anova_f: float | None
    anova_p: float | None
    kruskal_h: float | None
    kruskal_p: float | None
    alpha: float
    alpha_corrected: float
    pairwise: tuple[PairwiseTest, ...]
    letters: Mapping[str, str]

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
            "anova": None
            if self.anova_f is None
            else {"f": self.anova_f, "p": self.anova_p},
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
    if not (0.0 < alpha < 1.0):
        raise StatsError(f"alpha {alpha} outside (0, 1)")
    if len(groups) < 2:
        raise StatsError(f"need at least 2 groups, got {len(groups)}")
    names = [g.label for g in groups]
    if len(set(names)) != len(names):
        raise StatsError("duplicate group labels")
    values = [g.values for g in groups]

    normality_w: dict[str, float] = {}
    normality_p: dict[str, float] = {}
    for g in groups:
        w, p = shapiro_wilk(g.values)
        normality_w[g.label] = w
        normality_p[g.label] = p
    all_normal = all(p >= alpha for p in normality_p.values())

    anova_f, anova_p = one_way_anova(values)
    if all_normal:
        kruskal_h = kruskal_p = None
        omnibus_method, omnibus_stat, omnibus_p = "anova", anova_f, anova_p
    else:
        kruskal_h, kruskal_p = kruskal_wallis(values)
        omnibus_method, omnibus_stat, omnibus_p = (
            "kruskal_wallis",
            kruskal_h,
            kruskal_p,
        )

    pairs = list(combinations(range(len(names)), 2))
    alpha_corrected = bonferroni(alpha, len(pairs))

    pairwise: list[PairwiseTest] = []
    if omnibus_p < alpha:
        if all_normal:
            for i, j in pairs:
                t, p = t_test_welch(values[i], values[j])
                pairwise.append(PairwiseTest(names[i], names[j], "welch_t", t, p))
        else:
            z, p_mat = dunn_test(values)
            for i, j in pairs:
                pairwise.append(
                    PairwiseTest(names[i], names[j], "dunn", float(z[i, j]), float(p_mat[i, j]))
                )

    if pairwise:
        nonsig = [
            (t.group_a, t.group_b) for t in pairwise if t.p_value >= alpha_corrected
        ]
    else:
        nonsig = [(names[i], names[j]) for i, j in pairs]
    letters = compact_letters(names, nonsig)

    return StatReport(
        group_names=tuple(names),
        normality_w=normality_w,
        normality_p=normality_p,
        all_normal=all_normal,
        omnibus_method=omnibus_method,
        omnibus_stat=float(omnibus_stat),
        omnibus_p=float(omnibus_p),
        anova_f=float(anova_f),
        anova_p=float(anova_p),
        kruskal_h=None if kruskal_h is None else float(kruskal_h),
        kruskal_p=None if kruskal_p is None else float(kruskal_p),
        alpha=alpha,
        alpha_corrected=alpha_corrected,
        pairwise=tuple(pairwise),
        letters=letters,
    )
