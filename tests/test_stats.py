from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from thermeval import stats
from thermeval.stats import (
    DEFAULT_ALPHA,
    SampleSet,
    StatsError,
    bonferroni,
    compact_letters,
    dunn_test,
    kruskal_wallis,
    one_way_anova,
    run_battery,
    shapiro_wilk,
    t_test_welch,
)

DATA = Path(__file__).parent / "data"
FIXTURES = json.loads((DATA / "stats_expected.json").read_text())


# -- stored cross-checks against an independent implementation


@pytest.mark.parametrize("case", FIXTURES["shapiro"], ids=lambda c: f"n{len(c['values'])}")
def test_shapiro_wilk_fixture(case):
    w, p = shapiro_wilk(case["values"])
    assert w == pytest.approx(case["w"], abs=1e-3)
    assert p == pytest.approx(case["p"], abs=1e-3)


@pytest.mark.parametrize("case", FIXTURES["anova"], ids=lambda c: f"k{len(c['groups'])}")
def test_anova_fixture(case):
    f, p = one_way_anova(case["groups"])
    # the near-degenerate case has a huge F where only relative agreement is meaningful
    assert f == pytest.approx(case["f"], rel=1e-3, abs=1e-3)
    assert p == pytest.approx(case["p"], abs=1e-3)


@pytest.mark.parametrize("case", FIXTURES["kruskal"], ids=lambda c: f"k{len(c['groups'])}")
def test_kruskal_wallis_fixture(case):
    h, p = kruskal_wallis(case["groups"])
    assert h == pytest.approx(case["h"], abs=1e-3)
    assert p == pytest.approx(case["p"], abs=1e-3)


@pytest.mark.parametrize("case", FIXTURES["welch"], ids=lambda c: f"n{len(c['a'])}")
def test_welch_fixture(case):
    t, p = t_test_welch(case["a"], case["b"])
    assert t == pytest.approx(case["t"], abs=1e-3)
    assert p == pytest.approx(case["p"], abs=1e-3)


@pytest.mark.parametrize("case", FIXTURES["dunn"], ids=lambda c: f"k{len(c['groups'])}")
def test_dunn_fixture(case):
    z, p = dunn_test(case["groups"])
    assert np.allclose(z, case["z"], atol=1e-3)
    assert np.allclose(p, case["p"], atol=1e-3)


# -- distribution functions, against scipy.special as a test-only oracle

_GRID = 20_000


def _log_uniform(rng, lo, hi):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), _GRID))


def _dofs(rng):
    # 1 to 1e4, every other one an integer
    df = _log_uniform(rng, 1.0, 1e4)
    df[::2] = np.round(df[::2])
    return df


def _statistics(rng):
    # 0 to far beyond the tail, where a squared t or d1 * F overflows
    x = _log_uniform(rng, 1e-10, 1e12)
    x[::97] = 0.0
    x[1::97] = 1e300
    return x


def _assert_parity(ours, ref):
    ours = np.asarray(ours)
    err = np.abs(ours - ref)
    bad = (err > 1e-10 * np.abs(ref)) & (err > 1e-13)
    assert not bad.any(), list(zip(ours[bad][:5], ref[bad][:5]))


def test_t_tail_matches_scipy():
    rng = np.random.default_rng(11)
    df, t = _dofs(rng), _statistics(rng)
    ref = special.stdtr(df, -t)
    # scipy's stdtr is off by up to 3e-9 relative at df = 1 and |t| < 4e-7
    # (mpmath at 40 digits agrees with this module there), so the Cauchy CDF
    # is the oracle at df = 1
    cauchy = df == 1.0
    ref[cauchy] = np.arctan2(1.0, t[cauchy]) / math.pi
    _assert_parity([stats._t_tail(*a) for a in zip(df.tolist(), t.tolist())], ref)


def test_f_upper_tail_matches_scipy():
    rng = np.random.default_rng(12)
    d1, d2, f = _dofs(rng), _dofs(rng), _statistics(rng)
    ours = [stats._fdtrc(*a) for a in zip(d1.tolist(), d2.tolist(), f.tolist())]
    _assert_parity(ours, special.fdtrc(d1, d2, f))


def test_chi_square_upper_tail_matches_scipy():
    rng = np.random.default_rng(13)
    k, h = _dofs(rng), _statistics(rng)
    _assert_parity([stats._chdtrc(*a) for a in zip(k.tolist(), h.tolist())], special.chdtrc(k, h))


def test_normal_cdf_matches_scipy():
    x = np.random.default_rng(14).uniform(-40.0, 40.0, _GRID)
    x[0] = 0.0
    _assert_parity([stats._ndtr(v) for v in x.tolist()], special.ndtr(x))


def test_normal_quantile_matches_scipy():
    rng = np.random.default_rng(15)
    p = _log_uniform(rng, 1e-300, 1.0)
    p[::2] = 1.0 - _log_uniform(rng, 1e-16, 0.5)[::2]
    p[:2] = 1e-300, 1.0 - 1e-16
    _assert_parity([stats._ndtri(v) for v in p.tolist()], special.ndtri(p))


@pytest.mark.parametrize("df", [1, 2.5, 9, 1e4])
def test_distribution_edges_are_exact(df):
    assert stats._t_tail(df, 0.0) == 0.5
    assert stats._fdtrc(df, 7, 0.0) == 1.0
    assert stats._chdtrc(df, 0.0) == 1.0


# mpmath at 40 digits, over the degrees of freedom the battery meets and
# normal tails to z = -20.  Far larger degrees of freedom (1e4) lose about
# 1e-11 to the lgamma differences, and beyond z = -25 rounding z / sqrt(2)
# alone costs 1e-13, in scipy too; the parity tests cover those ranges.
_MPMATH_CASES = [
    ("t", (1, 4.42e-8)),
    ("t", (1, 3.0)),
    ("t", (3.7, 12.5)),
    ("t", (30, 2.05)),
    ("t", (2.5, 1e3)),
    ("f", (3, 72, 4.2)),
    ("f", (1, 1, 1e6)),
    ("f", (2.5, 7.5, 0.01)),
    ("f", (7, 168, 1.2)),
    ("chi2", (2, 7.8)),
    ("chi2", (3, 0.5)),
    ("chi2", (1.5, 60.0)),
    ("chi2", (7, 700.0)),
    ("chi2", (100, 90.0)),
    ("normal", (-20.0,)),
    ("normal", (-8.0,)),
    ("normal", (0.3,)),
    ("quantile", (1e-300,)),
    ("quantile", (1e-10,)),
    ("quantile", (0.975,)),
    ("quantile", (1.0 - 1e-16,)),
]


@pytest.mark.parametrize("name, args", _MPMATH_CASES)
def test_distribution_functions_match_mpmath(name, args):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = [mp.mpf(v) for v in args]
        if name == "t":
            ours = stats._t_tail(*args)
            ref = mp.betainc(a[0] / 2, 0.5, 0, a[0] / (a[0] + a[1] ** 2), regularized=True) / 2
        elif name == "f":
            ours = stats._fdtrc(*args)
            x = a[1] / (a[1] + a[0] * a[2])
            ref = mp.betainc(a[1] / 2, a[0] / 2, 0, x, regularized=True)
        elif name == "chi2":
            ours = stats._chdtrc(*args)
            ref = mp.gammainc(a[0] / 2, a[1] / 2, mp.inf, regularized=True)
        elif name == "normal":
            ours = stats._ndtr(*args)
            ref = mp.ncdf(a[0])
        else:
            ours = stats._ndtri(*args)
            ref = mp.findroot(lambda z: mp.ncdf(z) - a[0], ours)
        assert ours == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: stats._t_tail(10.0, 1.0),
        lambda: stats._chdtrc(3.0, 1.0),
        lambda: stats._chdtrc(3.0, 9.0),
    ],
    ids=["continued fraction", "gamma series", "gamma continued fraction"],
)
def test_an_iteration_that_does_not_converge_raises(call, monkeypatch):
    monkeypatch.setattr(stats, "_MAX_TERMS", 2)
    with pytest.raises(StatsError, match="did not converge"):
        call()


# -- hand-computed anchors


def test_kruskal_wallis_hand_value():
    # ranks 1..6 split cleanly: H = 12/42 * (12 + 75) - 21 = 27/7
    h, _ = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert h == pytest.approx(27 / 7)


def test_dunn_hand_value():
    # mean ranks 2, 5, 8 over N=9: z12 = -3 / sqrt(7.5 * 2/3)
    z, p = map(np.asarray, dunn_test([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]))
    assert z[0, 1] == pytest.approx(-3 / math.sqrt(5))
    assert z[1, 0] == pytest.approx(3 / math.sqrt(5))
    assert np.all(np.diag(p) == 1.0)
    assert np.all(np.diag(z) == 0.0)


def test_welch_hand_value():
    t, _ = t_test_welch([0.0, 2.0], [4.0, 6.0])
    assert t == pytest.approx(-4 / math.sqrt(2))


def test_welch_rejects_variances_whose_dof_terms_underflow():
    # the second sample's variance term is 2.5e-321; its square is 0
    with pytest.raises(StatsError, match="Welch-Satterthwaite"):
        t_test_welch([1.0, 1.0], [0.0, 1e-160])


def test_paired_mode_matches_reference():
    a = [1.1, 2.3, 3.0, 4.2, 5.1]
    b = [0.9, 2.0, 3.1, 3.8, 4.9]
    t, p = t_test_welch(a, b, paired=True)
    assert t == pytest.approx(2.3904572186687845)
    assert p == pytest.approx(0.07513045462522996)


def test_paired_mode_constant_shift_is_infinitely_significant():
    a = [1.0, 2.0, 3.0]
    t, p = t_test_welch(a, [v - 1.0 for v in a], paired=True)
    assert t == math.inf
    assert p == 0.0


def test_paired_mode_needs_equal_sizes():
    with pytest.raises(StatsError, match="equal sizes"):
        t_test_welch([1.0, 2.0, 3.0], [1.0, 2.0], paired=True)


def test_anova_identical_group_means():
    f, p = one_way_anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert f == 0.0
    assert p == 1.0


def test_anova_all_identical_raises():
    with pytest.raises(StatsError):
        one_way_anova([[2.0, 2.0], [2.0, 2.0]])


def test_shapiro_requires_three_values():
    with pytest.raises(StatsError):
        shapiro_wilk([1.0, 2.0])


def test_shapiro_constant_sample_raises():
    with pytest.raises(StatsError):
        shapiro_wilk([3.0, 3.0, 3.0, 3.0])


def test_kruskal_needs_five_pooled_values():
    with pytest.raises(StatsError):
        kruskal_wallis([[1.0, 2.0], [3.0, 4.0]])


def test_ties_reduce_kruskal_denominator():
    h_tied, _ = kruskal_wallis([[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]])
    h_clean, _ = kruskal_wallis([[1.0, 1.5, 2.0], [3.0, 3.5, 4.0]])
    assert h_tied != h_clean


@pytest.mark.parametrize(
    "func, args, message",
    [
        (shapiro_wilk, ([1, 2, math.nan],), "sample contains non-finite values"),
        (shapiro_wilk, (list(range(5001)),), "sample size 5001 above supported 5000"),
        (one_way_anova, ([[1, 2]],), "need at least 2 groups, got 1"),
        (one_way_anova, ([[1, 2], [3]],), "group #1 needs at least 2 values"),
        (kruskal_wallis, ([[1, 1, 1], [1, 1]],), "all values identical; H is undefined"),
        (t_test_welch, ([1], [2, 3]), "each sample needs at least 2 values"),
        (t_test_welch, ([1, 1], [1, 1]), "zero variance in both samples with equal means"),
        (dunn_test, ([[1, 1], [1, 1]],), "all values identical; rank variance is zero"),
    ],
    ids=[
        "shapiro-nan", "shapiro-5001", "anova-one-group", "anova-short-group",
        "kruskal-constant", "welch-short", "welch-constant", "dunn-constant",
    ],
)
def test_battery_tests_refuse_a_sample_they_cannot_test(func, args, message):
    with pytest.raises(StatsError, match=f"^{re.escape(message)}$"):
        func(*args)


def test_anova_of_separated_constant_groups_is_infinite():
    # no variance within the groups, some between them
    assert one_way_anova([[1, 1], [2, 2]]) == (math.inf, 0.0)


# -- correction level


def test_bonferroni_six_pairs():
    level = bonferroni(0.05, 6)
    assert level == pytest.approx(0.05 / 6)
    assert round(level, 4) == 0.0083


def test_bonferroni_decreases_with_comparisons():
    levels = [bonferroni(0.05, m) for m in range(1, 10)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_bonferroni_rejects_bad_inputs():
    with pytest.raises(StatsError):
        bonferroni(0.0, 3)
    with pytest.raises(StatsError):
        bonferroni(1.0, 3)
    with pytest.raises(StatsError):
        bonferroni(0.05, 0)


# -- compact letter display


def test_letters_all_equivalent():
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    assert compact_letters(["a", "b", "c"], pairs) == {"a": "a", "b": "a", "c": "a"}


def test_letters_all_distinct_follow_caller_order():
    out = compact_letters(["north", "east", "south"], [])
    assert out == {"north": "a", "east": "b", "south": "c"}


def test_letters_chain_overlap():
    # a~b and b~c but a is different from c: b bridges both columns
    out = compact_letters(["g1", "g2", "g3"], [("g1", "g2"), ("g2", "g3")])
    assert out == {"g1": "a", "g2": "ab", "g3": "b"}


def test_letters_shared_pair_among_four():
    out = compact_letters(["w", "x", "y", "z"], [("w", "x")])
    assert out["w"] == "a"
    assert out["x"] == "a"
    assert sorted(out.values()) == ["a", "a", "b", "c"]


def test_letters_self_pair_joins_no_groups():
    # a group is never significantly different from itself; the pair is skipped
    assert compact_letters(["a", "b"], [("a", "a")]) == {"a": "a", "b": "b"}


def test_letters_unknown_group_rejected():
    with pytest.raises(StatsError):
        compact_letters(["a", "b"], [("a", "q")])


def test_letters_duplicate_groups_rejected():
    with pytest.raises(StatsError):
        compact_letters(["a", "a"], [])


@given(
    n=st.integers(min_value=2, max_value=6),
    edges=st.sets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] < e[1])
    ),
)
@settings(max_examples=120, deadline=None)
def test_letters_encode_exactly_the_given_relation(n, edges):
    names = [f"g{i}" for i in range(n)]
    nonsig = [(names[i], names[j]) for i, j in edges if i < n and j < n]
    letters = compact_letters(names, nonsig)
    nonsig_set = {frozenset(p) for p in nonsig}
    for i in range(n):
        assert letters[names[i]], "every group needs at least one letter"
        for j in range(i + 1, n):
            shares = bool(set(letters[names[i]]) & set(letters[names[j]]))
            assert shares == (frozenset((names[i], names[j])) in nonsig_set)


# -- the full battery


def _draw_groups(seed, specs, n=10, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        SampleSet(label, tuple(rng.normal(mean, sd, n) * scale))
        for label, mean, sd in specs
    ]


def test_battery_separated_normal_groups():
    groups = _draw_groups(11, [("a", 0.0, 1.0), ("b", 5.0, 1.0), ("c", 10.0, 1.0)])
    rep = run_battery(groups)
    assert rep.all_normal
    assert rep.omnibus_method == "anova"
    assert rep.kruskal_h is None
    assert rep.omnibus_p < DEFAULT_ALPHA
    assert {t.method for t in rep.pairwise} == {"welch_t"}
    assert len(rep.pairwise) == 3
    assert rep.alpha_corrected == pytest.approx(0.05 / 3)
    assert [rep.letters[k] for k in ("a", "b", "c")] == ["a", "b", "c"]


def test_battery_indistinguishable_groups_share_a_letter():
    rng = np.random.default_rng(3)
    base = rng.normal(0.5, 0.01, 12)
    groups = [
        SampleSet("x", tuple(base)),
        SampleSet("y", tuple(base + rng.normal(0, 0.001, 12))),
        SampleSet("z", tuple(base - rng.normal(0, 0.001, 12))),
    ]
    rep = run_battery(groups)
    assert rep.omnibus_p >= DEFAULT_ALPHA
    assert rep.pairwise == ()
    assert set(rep.letters.values()) == {"a"}


def test_battery_non_normal_group_switches_to_ranks():
    rng = np.random.default_rng(2)
    groups = [
        SampleSet("s", tuple(np.exp(rng.normal(0, 1.5, 14)))),
        SampleSet("m", tuple(rng.normal(50, 2, 14))),
        SampleSet("n", tuple(rng.normal(80, 2, 14))),
    ]
    rep = run_battery(groups)
    assert not rep.all_normal
    assert rep.omnibus_method == "kruskal_wallis"
    # the parametric view is still reported alongside
    assert rep.anova_f is not None
    assert rep.kruskal_h is not None
    assert {t.method for t in rep.pairwise} == {"dunn"}
    assert [rep.letters[k] for k in ("s", "m", "n")] == ["a", "b", "c"]


def test_battery_four_groups_with_one_close_pair():
    # two close groups keep a shared letter, the others separate cleanly
    specs = [("frcnn", 58.1, 2.3), ("yolo", 59.3, 2.2), ("detr", 47.9, 2.1), ("dab", 51.0, 1.4)]
    groups = _draw_groups(4, specs, n=25, scale=0.01)
    rep = run_battery(groups)
    assert rep.all_normal
    assert rep.alpha_corrected == pytest.approx(0.05 / 6)
    assert [rep.letters[k] for k, _, _ in specs] == ["a", "a", "b", "c"]
    close = {t.p_value for t in rep.pairwise if {t.group_a, t.group_b} == {"frcnn", "yolo"}}
    assert all(p >= rep.alpha_corrected for p in close)


def test_battery_shift_changes_nothing_but_letters_stay():
    specs = [("a", 1.0, 0.5), ("b", 4.0, 0.5)]
    rep0 = run_battery(_draw_groups(21, specs))
    shifted = [
        SampleSet(g.label, tuple(v + 100.0 for v in g.values))
        for g in _draw_groups(21, specs)
    ]
    rep1 = run_battery(shifted)
    assert dict(rep0.letters) == dict(rep1.letters)


def test_battery_input_validation():
    good = _draw_groups(0, [("a", 0, 1), ("b", 5, 1)])
    with pytest.raises(StatsError):
        run_battery(good[:1])
    with pytest.raises(StatsError):
        run_battery([good[0], SampleSet("a", good[1].values)])
    with pytest.raises(StatsError):
        run_battery(good, alpha=1.5)


@pytest.mark.parametrize(
    "alpha, message",
    [
        ("0.05", "alpha must be a real number, got '0.05'"),
        (None, "alpha must be a real number, got None"),
        (True, "alpha must be a real number, got True"),
        ([0.05], "alpha must be a real number, got [0.05]"),
        (10**400, "outside (0, 1)"),  # an int beyond the float range is still a number
    ],
    ids=["str", "none", "bool", "list", "huge-int"],
)
def test_check_alpha_refuses_a_value_that_is_not_a_real_number(alpha, message):
    # a string raised TypeError from the comparison, and True read as 1
    with pytest.raises(StatsError, match=re.escape(message)):
        stats.check_alpha(alpha)


def test_battery_report_serializes():
    rep = run_battery(_draw_groups(11, [("a", 0.0, 1.0), ("b", 5.0, 1.0)]))
    doc = rep.as_dict()
    assert doc["omnibus"]["method"] == "anova"
    assert set(doc["normality"]) == {"a", "b"}
    assert doc["letters"] == dict(rep.letters)
    json.dumps(doc)  # fully JSON-ready


def test_battery_report_stores_measurements_and_derives_decisions():
    derived = ("all_normal", "omnibus_method", "omnibus_stat", "omnibus_p", "alpha_corrected")
    assert len(dataclasses.fields(stats.StatReport)) == 10
    assert not {f.name for f in dataclasses.fields(stats.StatReport)} & set(derived)
    assert all(getattr(stats.StatReport, name).fset is None for name in derived)
    rep = run_battery(_draw_groups(11, [("a", 0.0, 1.0), ("b", 5.0, 1.0), ("c", 10.0, 1.0)]))
    # a report with a Kruskal-Wallis result reads its omnibus from it, not from ANOVA
    ranked = dataclasses.replace(rep, kruskal_h=7.5, kruskal_p=0.02, alpha=0.1)
    assert (ranked.all_normal, ranked.omnibus_method) == (False, "kruskal_wallis")
    assert (ranked.omnibus_stat, ranked.omnibus_p) == (7.5, 0.02)
    assert ranked.alpha_corrected == 0.1 / 3
    assert (rep.omnibus_stat, rep.omnibus_p) == (rep.anova_f, rep.anova_p)


def test_sample_set_validation():
    with pytest.raises(StatsError):
        SampleSet("", (1.0, 2.0))
    with pytest.raises(StatsError):
        SampleSet("x", (1.0,))
    with pytest.raises(StatsError, match="^sample set 'x' needs at least 2 values$"):
        SampleSet("x", ())


_NOT_NUMBERS = {
    "str": "1234",
    "bytes": b"1234",
    "bytearray": bytearray(b"1234"),
    "bool": (True, False, True, True),
    "str element": (1.0, "2", 3.0, 4.0),
    "complex element": (1.0, 2j, 3.0, 4.0),
    "nested": ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)),
}


@pytest.mark.parametrize("values", _NOT_NUMBERS.values(), ids=_NOT_NUMBERS.keys())
def test_text_bytes_and_bools_are_not_samples_of_numbers(values):
    # "1234" once gave W = 0.993, and (True, False, True) a sample of 1.0, 0.0, 1.0
    with pytest.raises(StatsError, match="must be a non-empty 1-d sequence of numbers"):
        shapiro_wilk(values)
    with pytest.raises(StatsError, match="must be a non-empty 1-d sequence of numbers"):
        t_test_welch(values, [0.1, 0.2, 0.4, 0.8])
    with pytest.raises(StatsError, match="must be a non-empty 1-d sequence of numbers"):
        one_way_anova([values, [0.1, 0.2, 0.4, 0.8]])
    with pytest.raises(StatsError, match="^sample set 'x' must be a non-empty 1-d"):
        SampleSet("x", values)


def test_numpy_and_other_real_numbers_are_samples():
    x = [0.1, 0.25, 0.3, 0.8]
    want = shapiro_wilk(x)
    assert shapiro_wilk(np.array(x)) == want
    assert shapiro_wilk(np.array(x, dtype=np.float32)) == shapiro_wilk(
        [float(v) for v in np.array(x, dtype=np.float32)]
    )
    assert shapiro_wilk([Fraction(1, 10), 0.25, 0.3, 0.8]) == want
    assert shapiro_wilk(np.array([1, 2, 4, 9], dtype=np.int64)) == shapiro_wilk([1, 2, 4, 9])
    assert SampleSet("x", np.array(x)).values == tuple(x)
    assert {type(v) for v in SampleSet("x", np.array(x)).values} == {float}


# -- parity with numpy: the battery's statistics as numpy computes them

def _np_shapiro(values):
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 3 or x[0] == x[-1]:
        raise StatsError("degenerate")
    m = np.array([stats._ndtri((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ssq_m = float(np.dot(m, m))
    u = 1.0 / math.sqrt(n)
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        a_n = float(m[-1] / math.sqrt(ssq_m) + np.polyval(stats._C1, u))
        if n > 5:
            a_n1 = float(m[-2] / math.sqrt(ssq_m) + np.polyval(stats._C2, u))
            phi = (ssq_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            a = m / math.sqrt(phi)
            a[-1], a[0], a[-2], a[1] = a_n, -a_n, a_n1, -a_n1
        else:
            a = m / math.sqrt((ssq_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2))
            a[-1], a[0] = a_n, -a_n
    w = min(float(np.dot(a, x)) ** 2 / float(np.sum((x - x.mean()) ** 2)), 1.0)
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
    return w, stats._ndtr(-z)


def _np_anova(groups):
    gs = [np.asarray(g, dtype=np.float64) for g in groups]
    k, n = len(gs), sum(g.size for g in gs)
    grand = float(np.concatenate(gs).mean())
    between = sum(g.size * (float(g.mean()) - grand) ** 2 for g in gs)
    within = sum(float(np.sum((g - g.mean()) ** 2)) for g in gs)
    if within == 0.0:
        if between == 0.0:
            raise StatsError("degenerate")
        return math.inf, 0.0
    f = (between / (k - 1)) / (within / (n - k))
    return f, stats._fdtrc(k - 1, n - k, f)


def _np_ranks(groups):
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    ties = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    return np.split(ranks, np.cumsum([len(g) for g in groups[:-1]])), ties, pooled.size


def _np_kruskal(groups):
    ranks, ties, n = _np_ranks(groups)
    h = 12.0 / (n * (n + 1)) * sum(float(r.sum()) ** 2 / r.size for r in ranks) - 3.0 * (n + 1)
    correction = 1.0 - ties / float(n**3 - n)
    if correction == 0.0:
        raise StatsError("degenerate")
    return h / correction, stats._chdtrc(len(groups) - 1, h / correction)


def _np_welch(a, b):
    xa, xb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    va, vb = float(xa.var(ddof=1)), float(xb.var(ddof=1))
    na, nb = xa.size, xb.size
    diff, se2 = float(xa.mean() - xb.mean()), va / na + vb / nb
    if se2 == 0.0:
        return math.copysign(math.inf, diff), 0.0
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    t = diff / math.sqrt(se2)
    return t, 2.0 * stats._t_tail(df, t)


def _np_dunn(groups):
    ranks, ties, n = _np_ranks(groups)
    base_var = n * (n + 1) / 12.0 - ties / (12.0 * (n - 1))
    k = len(groups)
    z, p = np.zeros((k, k)), np.ones((k, k))
    for i, j in combinations(range(k), 2):
        se = math.sqrt(base_var * (1.0 / ranks[i].size + 1.0 / ranks[j].size))
        z[i, j] = (float(ranks[i].mean()) - float(ranks[j].mean())) / se
        z[j, i] = -z[i, j]
        p[i, j] = p[j, i] = 2.0 * stats._ndtr(-abs(z[i, j]))
    return z, p


_NUMPY_ORACLE = {
    "shapiro_wilk": _np_shapiro,
    "one_way_anova": _np_anova,
    "kruskal_wallis": _np_kruskal,
    "t_test_welch": _np_welch,
    "dunn_test": _np_dunn,
}


def _random_battery(rng):
    """2-5 groups of 3-30 metric-like values; some rounded (ties), some skewed,
    some sharing a mean, so that both branches and both omnibus outcomes occur."""
    k, n = int(rng.integers(2, 6)), int(rng.integers(3, 31))
    shape = int(rng.integers(4))
    groups = []
    for gi in range(k):
        mean = 0.5 + (0.0 if shape == 0 else rng.normal(0, 0.02))
        if shape == 3 and gi == 0:
            values = mean + rng.lognormal(-5, 1.5, n)
        else:
            values = rng.normal(mean, 10.0 ** rng.uniform(-4, -1), n)
        if shape == 2:
            values = np.round(values, int(rng.integers(2, 4)))
        groups.append(SampleSet(f"m{gi}", tuple(values.tolist())))
    return groups


def _floats(doc):
    """Every float of a battery report, in a fixed order."""
    if isinstance(doc, dict):
        return [v for key in sorted(doc) for v in _floats(doc[key])]
    if isinstance(doc, list):
        return [v for item in doc for v in _floats(item)]
    return [doc] if isinstance(doc, float) else []


# How far a battery float may lie from numpy's.  Sums, means and variances
# add in numpy's order; squares are products, which numpy's powers match
# but for the odd last bit of C's pow.  Shapiro-Wilk's a . x adds centred
# values where numpy's BLAS dot adds raw ones, so W moves by a few ulp and
# 1 - W, which p reads, by up to about 1e-11 relative on near-constant
# rounded groups.  At n = 3, p = 6/pi (asin(sqrt(W)) - asin(sqrt(3/4)))
# is steep near W = 3/4 and magnifies that up to 2e-10 (seen at p = 0.002);
# at W = 3/4 itself, two equal values, p is 0 and both sides hold noise.
_NORMALITY_TOL = {"rel_tol": 1e-9, "abs_tol": 1e-12}
_OTHER_TOL = {"rel_tol": 1e-14, "abs_tol": 0.0}


def test_battery_matches_a_numpy_oracle_on_seeded_groups(monkeypatch):
    rng = np.random.default_rng(2024)
    outcomes = {"anova": 0, "kruskal_wallis": 0, "pairwise": 0, "one letter": 0, "error": 0}
    for _ in range(2_400):
        groups = _random_battery(rng)
        reports = []
        for oracle in (False, True):
            with monkeypatch.context() as m:
                if oracle:
                    for name, fn in _NUMPY_ORACLE.items():
                        m.setattr(stats, name, fn)
                try:
                    reports.append(run_battery(groups))
                except StatsError:
                    reports.append(None)
        ours, theirs = reports
        assert (ours is None) == (theirs is None)
        if ours is None:
            outcomes["error"] += 1
            continue
        assert ours.omnibus_method == theirs.omnibus_method
        assert ours.letters == theirs.letters
        assert [(t.group_a, t.group_b) for t in ours.pairwise] == [
            (t.group_a, t.group_b) for t in theirs.pairwise
        ]
        a, b = ours.as_dict(), theirs.as_dict()
        parts = [(a.pop("normality"), b.pop("normality"), _NORMALITY_TOL), (a, b, _OTHER_TOL)]
        for a_doc, b_doc, tol in parts:
            x, y = _floats(a_doc), _floats(b_doc)
            assert len(x) == len(y) and all(map(math.isfinite, x))
            assert all(math.isclose(p, q, **tol) for p, q in zip(x, y)), (x, y)
        outcomes[ours.omnibus_method] += 1
        outcomes["pairwise" if ours.pairwise else "one letter"] += 1
    assert min(outcomes.values()) >= 50, outcomes


# -- samples at the ends of the float range

_HUGE = [[1e200, 2e200, 4e200, 3.5e200], [5e200, 6e200, 9e200, 7e200]]


def _scaled(groups, k):
    """``groups`` times 2**k, exactly."""
    return [[math.ldexp(v, k) for v in g] for g in groups]


def _finite(result):
    """Whether every float of a statistic's result or a battery report is finite."""
    doc = result.as_dict() if isinstance(result, stats.StatReport) else list(result)
    return all(map(math.isfinite, _floats(doc)))


def _battery(*groups):
    return run_battery([SampleSet(chr(ord("a") + i), g) for i, g in enumerate(groups)])


@pytest.mark.parametrize(
    "call, groups, k",
    [
        (lambda g: shapiro_wilk(g[0]), _HUGE, -664),
        (one_way_anova, _HUGE, -664),
        (lambda g: t_test_welch(*g), _HUGE, -664),
        (lambda g: t_test_welch(*g, paired=True), _HUGE, -664),
        (lambda g: _battery(*g), _HUGE, -664),
        # each sum of the largest float overflows before any square does
        (lambda g: shapiro_wilk(g[0]), [[1.7e308, 1.7e308, 1.6e308]], -1023),
        (lambda g: t_test_welch(*g), [[1.7e308, 1.6e308], [1.7e308, 1.5e308]], -1023),
    ],
    ids=["shapiro", "anova", "welch", "paired", "battery", "shapiro sum", "welch sum"],
)
def test_overflow_raises_stats_error(call, groups, k):
    # these samples once overflowed a float and raised; rescaled on entry, each
    # now gives the result of its twin scaled by an exact power of two to order one
    result = call(groups)
    assert _finite(result)
    assert result == call(_scaled(groups, k))


def test_squares_that_underflow_raise_stats_error():
    # squares near 1e-340 once left Shapiro-Wilk a zero sum of squares
    x = [1e-170, 2e-170, 4e-170]
    result = shapiro_wilk(x)
    assert _finite(result)
    assert result == shapiro_wilk(_scaled([x], 565)[0])


def test_welch_dof_of_samples_spread_over_1e100_is_finite():
    # the squared standard error of these once overflowed the Welch-Satterthwaite dof
    a, b = [0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 9.0]
    t, p = t_test_welch(*_scaled([a, b], 340))
    assert (t, p) == t_test_welch(a, b)
    ref = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-12)


def test_paired_differences_far_below_the_samples_scale_keep_their_variance():
    # the differences' squares once underflowed to a zero variance and an infinite t
    a, b = [1.0, math.ldexp(1.0, -700), math.ldexp(1.0, -699)], [1.0, 0.0, 0.0]
    assert t_test_welch(a, b, paired=True) == t_test_welch([0.0, 1.0, 2.0], [0.0] * 3, paired=True)


def _outcome(call, *args, **kwargs):
    """What ``call`` returns, or the message of the StatsError it raises."""
    try:
        return call(*args, **kwargs)
    except StatsError as exc:
        return str(exc)


def test_every_statistic_is_invariant_under_exact_power_of_two_scaling():
    rng = np.random.default_rng(18)
    for _ in range(300):
        groups = [
            np.round(rng.normal(rng.uniform(0.3, 0.7), 0.05, rng.integers(3, 26)), 3).tolist()
            for _ in range(rng.integers(2, 5))
        ]
        k = int(rng.integers(-900, 901))
        twin = _scaled(groups, k)
        m = min(len(groups[0]), len(groups[1]))
        pairs, twin_pairs = [g[:m] for g in groups[:2]], [g[:m] for g in twin[:2]]
        for call, args, twin_args, kwargs in [
            (shapiro_wilk, (groups[0],), (twin[0],), {}),
            (one_way_anova, (groups,), (twin,), {}),
            (t_test_welch, groups[:2], twin[:2], {}),
            (t_test_welch, pairs, twin_pairs, {"paired": True}),
            (_battery, groups, twin, {}),
        ]:
            result = _outcome(call, *args, **kwargs)
            assert result == _outcome(call, *twin_args, **kwargs), (call, k)
            assert isinstance(result, str) or _finite(result)


def test_rank_tests_take_huge_values_as_they_take_any_others():
    # ranks are all Kruskal-Wallis and Dunn read, so scale changes nothing
    small = [[v / 1e200 for v in g] for g in _HUGE]
    assert kruskal_wallis(_HUGE) == kruskal_wallis(small)
    assert dunn_test(_HUGE) == dunn_test(small)
