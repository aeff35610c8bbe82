"""The finite-number rule, ``_checks._check_real``, at every site that takes a real.

Each site raises its own error exactly when the rule or the site's own range
refuses a value, and nothing else escapes: not ``OverflowError`` from an int
beyond the float range, not ``ValueError`` from printing an int with more
digits than ``str`` prints, and no bool is read as 0 or 1.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval._checks import DatasetError, _check_probability, _check_real
from thermeval.coco import filter_small_objects
from thermeval.metrics import validate_thresholds
from thermeval.plan import PlanError, select_best_epoch
from thermeval.report import ReportError, Scoring
from thermeval.stats import SampleSet, StatsError, check_alpha
from thermeval.synth import PRESET_A, MockDetectorSpec, SceneSpec, SynthError, build_corpus
from thermeval.thermal import AugmentPolicy, CalibrationRange, ThermalError

_DIGEST = "0" * 64
_DS = build_corpus(PRESET_A, 4, 1).dataset


def _levels_fit(level=2000.0, warmest=900.0, sigma=30.0):
    """PRESET_A's levels, one of them replaced, inside the signed 16-bit range."""
    return level + warmest + 6.0 * sigma <= 32767 and level - 6.0 * sigma >= -32768


# each site: a call taking the value, its error, and the range it takes of a finite float
_SITES = {
    "validate_thresholds": (lambda v: validate_thresholds([v]), ValueError, lambda x: 0 < x <= 1),
    "Scoring": (lambda v: Scoring((v,), 100, _DIGEST), ReportError, lambda x: 0 < x <= 1),
    "filter_small_objects": (lambda v: filter_small_objects(_DS, v), DatasetError, lambda x: x >= 0),
    "check_alpha": (check_alpha, StatsError, lambda x: 0 < x < 1),
    "SampleSet": (lambda v: SampleSet("x", (v, 0.5)), StatsError, lambda x: True),
    "select_best_epoch": (lambda v: select_best_epoch([v, 0.5]), PlanError, lambda x: True),
    "CalibrationRange.lo": (
        lambda v: CalibrationRange(v, 4e4), ThermalError, lambda x: x < 4e4 and math.isfinite(4e4 - x)
    ),
    "CalibrationRange.hi": (
        lambda v: CalibrationRange(-4e4, v), ThermalError, lambda x: x > -4e4 and math.isfinite(x + 4e4)
    ),
    "AugmentPolicy": (lambda v: AugmentPolicy(p_hflip=v), ThermalError, lambda x: 0 <= x <= 1),
    "SceneSpec.empty_prob": (lambda v: SceneSpec(empty_prob=v), SynthError, lambda x: 0 <= x <= 1),
    "SceneSpec.puddle_extra_lambda": (
        lambda v: SceneSpec(puddle_extra_lambda=v), SynthError, lambda x: x >= 0
    ),
    "SceneSpec.background_level": (
        lambda v: SceneSpec(background_level=v), SynthError, lambda x: _levels_fit(level=x)
    ),
    "SceneSpec.noise_sigma": (
        lambda v: SceneSpec(noise_sigma=v), SynthError, lambda x: x >= 0 and _levels_fit(sigma=x)
    ),
    "SceneSpec.warm_delta": (
        lambda v: SceneSpec(warm_delta=(0.0, v)), SynthError, lambda x: x >= 0 and _levels_fit(warmest=x)
    ),
    "SceneSpec.puddle_axis": (
        lambda v: SceneSpec(puddle_axis=(1.0, v)), SynthError, lambda x: 1 <= x <= 240
    ),
    "MockDetectorSpec.p_drop": (lambda v: MockDetectorSpec(p_drop=v), SynthError, lambda x: 0 <= x <= 1),
    "MockDetectorSpec.p_distractor_fp": (
        lambda v: MockDetectorSpec(p_distractor_fp=v), SynthError, lambda x: 0 <= x <= 1
    ),
    "MockDetectorSpec.p_fp": (lambda v: MockDetectorSpec(p_fp=v), SynthError, lambda x: x >= 0),
    "MockDetectorSpec.jitter_sigma": (
        lambda v: MockDetectorSpec(jitter_sigma=v), SynthError, lambda x: x >= 0
    ),
}

_EDGES = (
    True, False, np.bool_(True), np.bool_(False), "0.5", "", None, Decimal("0.5"), 0.5j, [0.5],
    math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
    10**400, -(10**400), 10**5000, -(10**5000), Fraction(10**400), Fraction(10**5000 + 1, 10**5000),
    np.float32(0.25), np.float32(3e38), np.float16(6e4), np.int64(3), np.int64(-(2**63)), np.uint8(1),
    Fraction(1, 3), Fraction(-7, 2), 0, 1, -1, 2, 240, 241, 0.5, 1.0, -0.0, 1.5, 1e308, 5e-324,
)
_values = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(),
    st.floats(),
    st.fractions(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _as_rule_reads(value) -> float | None:
    """The float the rule reads ``value`` as, or None where it refuses it."""
    try:
        return _check_real(value, "value")
    except DatasetError:
        return None


@pytest.mark.parametrize("site", sorted(_SITES))
@given(value=_values)
@settings(max_examples=150, deadline=None)
def test_a_site_refuses_a_value_exactly_when_the_rule_or_its_range_does(site, value):
    call, error, takes = _SITES[site]
    x = _as_rule_reads(value)
    try:
        call(value)
    except Exception as exc:
        assert type(exc) is error, exc  # nothing else escapes, not even a plain ValueError
        taken = False
    else:
        taken = True
    assert taken == (x is not None and takes(x))


@pytest.mark.parametrize(
    "value, want",
    [
        (0.5, 0.5), (3, 3.0), (np.float32(0.25), 0.25), (np.int64(7), 7.0), (Fraction(1, 4), 0.25),
        (-0.0, 0.0), (Fraction(10**5000 + 1, 10**5000), 1.0),
    ],
    ids=["float", "int", "float32", "int64", "fraction", "negative-zero", "long-fraction"],
)
def test_the_rule_reads_a_real_as_a_plain_float(value, want):
    got = _check_real(value, "x")
    assert got == want and type(got) is float


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "x must be a number, got True"),
        (np.bool_(False), "x must be a number, got np.False_"),
        ("1", "x must be a number, got '1'"),
        (None, "x must be a number, got None"),
        (Decimal(1), "x must be a number, got Decimal('1')"),
        (1j, "x must be a number, got 1j"),
        (math.nan, "x must be a finite number, got nan"),
        (-math.inf, "x must be a finite number, got -inf"),
        (10**400, f"x must be a finite number, got {10**400}"),
        (10**5000, "x must be a finite number, got a value too long to print"),
        (Fraction(10**5000), "x must be a finite number, got a value too long to print"),
    ],
    ids=[
        "bool", "numpy-bool", "str", "none", "decimal", "complex", "nan", "-inf", "10**400",
        "10**5000", "fraction-10**5000",
    ],
)
def test_the_rule_refuses_with_its_own_words(value, message):
    with pytest.raises(DatasetError) as refused:
        _check_real(value, "x")
    assert str(refused.value) == message


def test_a_probability_is_a_real_in_the_unit_interval():
    assert _check_probability(np.float32(0.5), "p") == 0.5
    with pytest.raises(DatasetError, match=r"^p 1\.5 outside \[0, 1\]$"):
        _check_probability(Fraction(3, 2), "p")
    with pytest.raises(DatasetError, match="^p must be a number, got True$"):
        _check_probability(True, "p")


def test_an_int_beyond_the_float_range_raises_the_sites_own_error():
    # each once escaped as OverflowError, or was taken until mock_detect crashed
    huge = 10**400
    for call, error in (
        (lambda: validate_thresholds([huge]), ValueError),
        (lambda: Scoring((huge,), 100, _DIGEST), ReportError),
        (lambda: filter_small_objects(_DS, huge), DatasetError),
        (lambda: SceneSpec(noise_sigma=huge), SynthError),
        (lambda: SceneSpec(warm_delta=(0, huge)), SynthError),
        (lambda: MockDetectorSpec(p_fp=huge), SynthError),
        (lambda: CalibrationRange(0, 10**5000), ThermalError),
    ):
        with pytest.raises(error, match="must be a finite number, got "):
            call()


def test_select_best_epoch_reads_no_bool_or_text_as_an_ap():
    # True once read as an AP of 1.0, and epoch 1 came back
    with pytest.raises(PlanError, match="^validation AP must be a number, got True$"):
        select_best_epoch([True, 0.5])
    with pytest.raises(PlanError, match="^validation AP must be a number, got 'x'$"):
        select_best_epoch(["x"])
    assert select_best_epoch([np.float32(0.25), 0.5]) == 2


def test_a_count_bound_beyond_numpys_draw_is_refused():
    # numpy once refused it inside build_corpus: "high is out of bounds for int64"
    for field in ("pig_count", "stripe_count", "bird_count"):
        with pytest.raises(SynthError, match=f"^{field} range "):
            SceneSpec(**{field: (0, 10**400)})
        with pytest.raises(SynthError, match=f"^{field} range "):
            SceneSpec(**{field: (0, 2**63)})
        SceneSpec(**{field: (0, 2**63 - 1)})  # the largest bound numpy draws up to
    with pytest.raises(SynthError, match=r"^pig_count range \(0, a value too long to print\)"):
        SceneSpec(pig_count=(0, 10**5000))


def test_numpy_scalars_and_fractions_are_taken_where_a_real_is():
    # each was refused while these sites took int and float alone
    small = filter_small_objects(_DS, 10)
    assert filter_small_objects(_DS, np.int64(10)) == small
    assert filter_small_objects(_DS, Fraction(10)) == small
    MockDetectorSpec(p_drop=np.float32(0.1))
    AugmentPolicy(p_hflip=np.float32(0.2))
    SceneSpec(noise_sigma=np.float32(30.0))
