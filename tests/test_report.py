from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval.metrics import METRIC_NAMES, MetricReport, UNDEFINED, validate_thresholds
from thermeval.report import (
    CANONICAL_HPC_ORDER,
    AggregateCell,
    AggregateTable,
    METRIC_LABELS,
    ReportError,
    RunResult,
    Scoring,
    aggregate,
    best_hpc,
    emit_significance_figure_data,
    emit_table,
    format_cell,
    metric_samples,
    read_results_csv,
    write_results_csv,
)
from thermeval.report import _mean
from thermeval.stats import SampleSet, StatsError, run_battery


def _metrics(base):
    return MetricReport(*(base + 0.01 * i for i in range(8)))


def _result(run, model="net", hpc="4_L_p", base=0.5, dataset="pond"):
    return RunResult(model=model, hpc=hpc, run=run, dataset=dataset, metrics=_metrics(base))


# -- results csv


def test_results_round_trip():
    results = (
        _result(1, base=0.41),
        _result(2, base=0.52),
        _result(1, hpc="16_l_u", base=0.3),
    )
    assert read_results_csv(write_results_csv(results)) == results


def test_results_round_trip_preserves_floats_exactly():
    r = RunResult(
        model="net",
        hpc="4_L_p",
        run=1,
        dataset="pond",
        metrics=MetricReport(1 / 3, 2 / 7, 0.1, UNDEFINED, 0.9999999999999998, 0.5, 0.25, 1e-17),
    )
    back = read_results_csv(write_results_csv([r]))
    assert back == (r,)


def test_numpy_floats_are_written_and_read_back_as_floats():
    # np.float64(0.5) was once written as "np.float64(0.5)", which the reader rejected
    r = RunResult("net", "4_L_p", 1, "pond", MetricReport(*[np.float64(0.5)] * 8))
    assert {type(v) for v in r.metrics.as_dict().values()} == {float}
    text = write_results_csv([r])
    assert text.splitlines()[1] == "1,net,4_L_p,pond," + ",".join(["0.5"] * 8)
    assert read_results_csv(text) == (r,)
    assert type(aggregate([r]).cell("net", "4_L_p", "ap").mean) is float


def test_read_results_rejects_wrong_header():
    with pytest.raises(ReportError, match="header"):
        read_results_csv("model,ap\nx,0.5\n")


def test_read_results_rejects_short_row():
    text = write_results_csv([_result(1)])
    broken = text + "2,net,4_L_p\n"
    with pytest.raises(ReportError, match="line 3"):
        read_results_csv(broken)


def test_read_results_rejects_bad_number():
    # -1 marks an undefined stratum; NaN and inf are never legal
    # float() reads "0.1_5" as 0.15 and " 0.5" as 0.5, spellings the writer never uses
    for bad in ("not-a-number", "nan", "inf", "-inf", "0.1_5", " 0.5", "0.5 "):
        text = write_results_csv([_result(1)]).replace("0.5", bad, 1)
        with pytest.raises(ReportError, match="line 2"):
            read_results_csv(text)


@pytest.mark.parametrize("bad", ["1e200", "1.0000000000000002", "-1e-300", "-0.5", "-2"])
def test_read_results_rejects_a_metric_outside_the_unit_interval(bad):
    # only -1, the undefined-stratum mark, may leave [0, 1]
    text = write_results_csv([_result(1)]).replace("0.5", bad, 1)
    with pytest.raises(ReportError, match=re.escape(f"line 2: ap {float(bad)!r} is neither in")):
        read_results_csv(text)


def test_read_results_rejects_an_oversized_field():
    # longer than csv.field_size_limit(), 131072 characters by default
    text = write_results_csv([_result(1)]).replace("net", "n" * 200_000, 1)
    with pytest.raises(ReportError, match="line 2: field larger than field limit"):
        read_results_csv(text)


@pytest.mark.parametrize("run", ["0", "-3"])
def test_read_results_rejects_a_run_below_1(run):
    # run r is a plan's r-th run, so run 0 would name its last
    text = write_results_csv([_result(1), _result(2)]).replace("\n2,", f"\n{run},", 1)
    with pytest.raises(ReportError, match=f"^line 3: run must be a positive integer, got {run}$"):
        read_results_csv(text)


@pytest.mark.parametrize("run", ["1_0", "02", " 2", "2 ", "+2"])
def test_read_results_rejects_a_run_not_spelled_as_the_writer_spells_it(run):
    # int() read "1_0" as run 10 and " 2" as run 2
    text = write_results_csv([_result(1), _result(2)]).replace("\n2,", f"\n{run},", 1)
    message = f"line 3: run {run!r} is not what the writer writes, {str(int(run))!r}"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(text)


def test_read_results_names_a_metric_field_with_an_underscore():
    text = write_results_csv([_result(1)]).replace("0.52", "0.5_2", 1)
    message = "line 2: ap75 '0.5_2' is not what the writer writes, '0.52'"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(text)


@pytest.mark.parametrize("bad, want", [("0.50", "0.5"), ("5e-1", "0.5"), (".5", "0.5"), ("1", "1.0")])
def test_read_results_refuses_a_metric_not_spelled_as_the_writer_spells_it(bad, want):
    # float() reads each as the value the writer spells ``want``
    text = write_results_csv([_result(1)]).replace("0.5", bad, 1)
    message = f"line 2: ap {bad!r} is not what the writer writes, {want!r}"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(text)


def test_read_results_skips_a_blank_row():
    results = (_result(1), _result(2))
    text = write_results_csv(results).replace("\n2,", "\n\n2,", 1)
    assert read_results_csv(text) == results


def test_read_results_empty_file():
    with pytest.raises(ReportError, match="empty"):
        read_results_csv("")


# -- scoring conditions in the results file

_SWEEP = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.8999999999999999, 0.95)
_SWEEP_TEXT = "0.5 0.55 0.6 0.65 0.7 0.75 0.8 0.85 0.8999999999999999 0.95"
_DIGEST = "0123456789abcdef" * 4
_SCORING = Scoring(_SWEEP, 100, _DIGEST)
_BASE_HEADER = "run,model,hpc,dataset,ap,ap50,ap75,aps,apm,ar,ars,arm"
_FULL_HEADER = _BASE_HEADER + ",iou_thresholds,max_dets,gt_sha256"


def _scored(run, scoring=_SCORING, **kwargs):
    return replace(_result(run, **kwargs), scoring=scoring)


def _scored_text(sweep=_SWEEP_TEXT, cap="100", digest=_DIGEST):
    """A one-row results file whose scoring fields read as given."""
    metrics = ",".join(["0.5"] * 8)
    return f"{_FULL_HEADER}\n1,net,4_L_p,pond,{metrics},{sweep},{cap},{digest}\n"


def test_rows_without_scoring_keep_the_12_column_format():
    r = RunResult("net", "4_L_p", 1, "pond", MetricReport(*[0.5] * 8))
    text = write_results_csv([r])
    assert text == f"{_BASE_HEADER}\n1,net,4_L_p,pond," + ",".join(["0.5"] * 8) + "\n"
    assert read_results_csv(text) == (r,)
    assert read_results_csv(text)[0].scoring is None


def test_a_scored_row_writes_its_sweep_cap_and_digest_after_arm():
    text = write_results_csv([_scored(1)])
    header, row = text.splitlines()
    assert header == _FULL_HEADER
    assert row.split(",")[-3:] == [_SWEEP_TEXT, "100", _DIGEST]
    assert read_results_csv(text) == (_scored(1),)
    # every column before keeps its index
    assert row.split(",")[:12] == write_results_csv([_result(1)]).splitlines()[1].split(",")


def test_unknown_rows_of_a_mixed_file_are_written_blank():
    rows = (_result(1), _scored(2), _result(3))
    lines = write_results_csv(rows).splitlines()
    assert lines[0] == _FULL_HEADER
    assert [line.endswith(",,,") for line in lines[1:]] == [True, False, True]
    assert read_results_csv("\n".join(lines)) == rows


@pytest.mark.parametrize("n_fields", [12, 13, 14, 15])
def test_read_results_takes_any_header_prefix_through_arm(n_fields):
    names = _FULL_HEADER.split(",")[:n_fields]
    row = ["1", "net", "4_L_p", "pond"] + ["0.5"] * 8 + [""] * (n_fields - 12)
    (back,) = read_results_csv(",".join(names) + "\n" + ",".join(row) + "\n")
    assert back.scoring is None and back.metrics.ap == 0.5


@pytest.mark.parametrize("n_fields", [11, 16])
def test_read_results_refuses_a_header_short_of_arm_or_past_the_last_column(n_fields):
    names = (_FULL_HEADER + ",split").split(",")[:n_fields]
    with pytest.raises(ReportError, match="unexpected results header"):
        read_results_csv(",".join(names) + "\n")


def test_read_results_refuses_a_scored_row_under_a_header_that_stops_early():
    # a 13-column file holds the sweep alone: the cap and digest read as blank
    text = ",".join(_FULL_HEADER.split(",")[:13]) + "\n1,net,4_L_p,pond," + "0.5," * 8 + "0.5\n"
    with pytest.raises(ReportError, match=r"^line 2: scoring fields \['max_dets', 'gt_sha256'\]"):
        read_results_csv(text)


@pytest.mark.parametrize(
    "fields, blank",
    [
        (("", "100", _DIGEST), "['iou_thresholds']"),
        ((_SWEEP_TEXT, "", _DIGEST), "['max_dets']"),
        ((_SWEEP_TEXT, "100", ""), "['gt_sha256']"),
        (("", "", _DIGEST), "['iou_thresholds', 'max_dets']"),
    ],
)
def test_read_results_refuses_scoring_fields_only_partly_blank(fields, blank):
    message = f"^line 2: scoring fields {re.escape(blank)} are blank but not all of them$"
    with pytest.raises(ReportError, match=message):
        read_results_csv(_scored_text(*fields))


def test_read_results_reads_all_three_blank_as_unknown():
    assert read_results_csv(_scored_text("", "", ""))[0].scoring is None


@pytest.mark.parametrize("cap", ["0", "05", " 5", "5 ", "1_0", "+5", "five"])
def test_read_results_refuses_a_cap_not_spelled_as_the_writer_spells_it(cap):
    with pytest.raises(ReportError, match="^line 2: .*max_dets"):
        read_results_csv(_scored_text(cap=cap))


@pytest.mark.parametrize(
    "digest", [_DIGEST[:63], _DIGEST.upper(), _DIGEST[:63] + "g", _DIGEST + "0"]
)
def test_read_results_refuses_a_digest_that_is_not_64_lowercase_hex_digits(digest):
    message = f"line 2: gt_sha256 must be 64 lowercase hex digits, got {digest!r}"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(_scored_text(digest=digest))


_SWEEP_MISSPELLINGS = {
    "0.50": " is not what the writer writes, '0.5'",
    "0.5  0.75": ": could not convert string to float: ''",
    " 0.5": ": could not convert string to float: ''",
    "0.5 ": ": could not convert string to float: ''",
    "5e-1": " is not what the writer writes, '0.5'",
    ".5": " is not what the writer writes, '0.5'",
    "0.5_0": " is not what the writer writes, '0.5'",
    "0.5;0.75": ": could not convert string to float: '0.5;0.75'",
    "1": " is not what the writer writes, '1.0'",
    "x": ": could not convert string to float: 'x'",
}


@pytest.mark.parametrize("sweep", list(_SWEEP_MISSPELLINGS))
def test_read_results_refuses_a_sweep_not_spelled_by_repr(sweep):
    # repr floats one space apart, or the field names no sweep
    message = f"line 2: iou_thresholds {sweep!r}{_SWEEP_MISSPELLINGS[sweep]}"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(_scored_text(sweep=sweep))


@pytest.mark.parametrize("sweep", ["nan", "inf", "0.5 nan"])
def test_read_results_refuses_a_sweep_that_is_not_finite(sweep):
    # repr spells NaN "nan", and a NaN sweep would differ from itself
    bad = sweep.split()[-1]
    message = f"line 2: IoU threshold must be a finite number, got {bad}"
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        read_results_csv(_scored_text(sweep=sweep))


@pytest.mark.parametrize("sweep", [(0.95, 0.5), (2.0,), (-1.0,), (0.0,), (0.5, 0.5)])
def test_a_sweep_evaluate_refuses_is_refused_from_the_file_and_by_scoring(sweep):
    with pytest.raises(ValueError) as refused:
        validate_thresholds(sweep)
    message = str(refused.value)
    with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
        Scoring(sweep, 100, _DIGEST)
    text = _scored_text(sweep=" ".join(map(repr, sweep)))
    with pytest.raises(ReportError, match=f"^line 2: {re.escape(message)}$"):
        read_results_csv(text)


def test_scoring_takes_a_numpy_cap_as_evaluate_does_and_keeps_a_plain_int():
    s = Scoring(_SWEEP, np.int64(5), _DIGEST)
    assert s.max_dets == 5 and type(s.max_dets) is int
    assert write_results_csv([_scored(1, s)]).splitlines()[1].endswith(f",5,{_DIGEST}")


@pytest.mark.parametrize(
    "fields",
    [
        {"iou_thresholds": ()},
        {"iou_thresholds": "0.5"},
        {"iou_thresholds": 0.5},
        {"iou_thresholds": (0.5, True)},
        {"iou_thresholds": (float("nan"),)},
        {"max_dets": 0},
        {"max_dets": True},
        {"max_dets": 5.0},
        {"gt_sha256": _DIGEST.encode()},
        {"gt_sha256": _DIGEST[1:]},
    ],
)
def test_scoring_rejects_a_field_of_the_wrong_shape(fields):
    args = {"iou_thresholds": _SWEEP, "max_dets": 100, "gt_sha256": _DIGEST, **fields}
    with pytest.raises(ReportError):
        Scoring(**args)


def test_scoring_keeps_its_sweep_as_plain_floats():
    s = Scoring([np.float64(0.5), 1], 5, _DIGEST)
    assert s.iou_thresholds == (0.5, 1.0)
    assert {type(t) for t in s.iou_thresholds} == {float}
    assert write_results_csv([_scored(1, s)]).splitlines()[1].endswith(f",0.5 1.0,5,{_DIGEST}")


def test_run_result_rejects_a_scoring_that_is_not_one():
    with pytest.raises(ReportError, match="scoring must be a Scoring or None"):
        _scored(1, scoring=(_SWEEP, 100, _DIGEST))


_metric_values = st.one_of(st.just(UNDEFINED), st.floats(0.0, 1.0))
_scorings = st.builds(
    Scoring,
    # the sweeps evaluate accepts: strictly increasing, in (0, 1]
    st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=12, unique=True).map(
        lambda sweep: tuple(sorted(sweep))
    ),
    st.integers(1, 10**9),
    st.text("0123456789abcdef", min_size=64, max_size=64),
)
_rows = st.builds(
    RunResult,
    st.sampled_from(["net", "yolo v8", 'a,"b"']),
    st.sampled_from(CANONICAL_HPC_ORDER),
    st.integers(1, 25),
    st.just("pond"),
    st.builds(MetricReport, *[_metric_values] * 8),
    st.one_of(st.none(), _scorings),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rows, max_size=6))
def test_results_round_trip_with_scoring_conditions(rows):
    text = write_results_csv(rows)
    assert read_results_csv(text) == tuple(rows)
    # the condition columns appear exactly when some row fills them
    scored = any(r.scoring is not None for r in rows)
    assert text.splitlines()[0] == (_FULL_HEADER if scored else _BASE_HEADER)


def _respell(number, how):
    """``number``, as the writer spells it, spelled another way that ``int()``
    or ``float()`` reads as the same value."""
    sign, digits = ("-", number[1:]) if number.startswith("-") else ("", number)
    mantissa, e, exponent = digits.partition("e")
    return {
        "leading zero": f"{sign}0{digits}",
        "underscore": f"{sign}0_{digits}",
        "plus": f"+{number}",
        "blank before": f" {number}",
        "blank after": f"{number} ",
        "trailing zero": f"{sign}{mantissa}{'0' if '.' in mantissa else '.0'}{e}{exponent}",
        "exponent": number.replace("e", "E") if e else f"{number}e0",
    }[how]


@settings(max_examples=300, deadline=None)
@given(st.lists(_rows, min_size=1, max_size=4), st.data())
def test_read_results_refuses_any_other_spelling_of_a_written_value(rows, data):
    lines = list(csv.reader(io.StringIO(write_results_csv(rows))))
    ln = data.draw(st.integers(2, len(lines)), label="line")
    row = lines[ln - 1]
    numeric = ("run", *METRIC_NAMES, "iou_thresholds", "max_dets")
    column = data.draw(
        st.sampled_from([c for c in numeric if c in lines[0] and row[lines[0].index(c)]]),
        label="column",
    )
    i = lines[0].index(column)
    read = int if column in ("run", "max_dets") else float
    # a sweep respells its first threshold; a blank inside it would split it
    number, sep, rest = row[i].partition(" ") if column == "iou_thresholds" else (row[i], "", "")
    hows = ["leading zero", "underscore"]
    hows += [] if number.startswith("-") else ["plus"]
    hows += [] if column == "iou_thresholds" else ["blank before", "blank after"]
    hows += [] if read is int else ["trailing zero", "exponent"]
    respelled = _respell(number, data.draw(st.sampled_from(hows), label="how"))
    assert read(respelled) == read(number)
    row[i] = respelled + sep + rest
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    with pytest.raises(ReportError, match=f"^line {ln}: {column} {re.escape(repr(row[i]))} "):
        read_results_csv(buf.getvalue())


def test_run_result_requires_tags():
    with pytest.raises(ReportError):
        RunResult(model="", hpc="4_L_p", run=1, dataset="d", metrics=_metrics(0.5))


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "ap nan is neither in [0, 1] nor -1.0"),
        (math.inf, "ap inf is neither in [0, 1] nor -1.0"),
        (1e200, "ap 1e+200 is neither in [0, 1] nor -1.0"),
        (-0.5, "ap -0.5 is neither in [0, 1] nor -1.0"),
        (True, "ap must be a number, got True"),
    ],
)
def test_metric_report_built_in_process_meets_the_reader_s_domain(bad, message):
    # NaN once rendered as NaN±NaN and 1e200 ended in decimal.InvalidOperation
    with pytest.raises(ReportError, match=re.escape(message)):
        MetricReport(bad, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)


def test_metric_report_takes_the_ends_of_its_domain():
    m = MetricReport(0.0, 1.0, UNDEFINED, 0, 1, 0.5, 0.25, 1e-300)
    assert m.as_dict()["apm"] == 1


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"run": "2"}, "run must be an integer, got '2'"),
        ({"run": True}, "run must be an integer, got True"),
        ({"run": 2.0}, "run must be an integer, got 2.0"),
        ({"model": 3}, "tags must be non-empty strings"),
        ({"hpc": None}, "tags must be non-empty strings"),
        ({"dataset": ""}, "tags must be non-empty strings"),
        ({"run": 0}, "run must be a positive integer, got 0"),
        ({"run": -3}, "run must be a positive integer, got -3"),
    ],
)
def test_run_result_rejects_a_run_that_is_not_an_int_and_a_tag_that_is_not_a_string(
    fields, message
):
    # a string run once failed only in metric_samples' sort, and model=3 read back as "3"
    args = {"model": "net", "hpc": "4_L_p", "run": 1, "dataset": "d", "metrics": _metrics(0.5)}
    with pytest.raises(ReportError, match=re.escape(message)):
        RunResult(**{**args, **fields})


# -- aggregation


def test_aggregate_refuses_no_results():
    with pytest.raises(ReportError, match="^no results to aggregate$"):
        aggregate([])


def test_aggregate_names_a_missing_cell():
    table = aggregate([_result(1)])
    with pytest.raises(ReportError, match=r"^no aggregate cell for \('net', '16_L_p', 'ap'\)$"):
        table.cell("net", "16_L_p", "ap")


def test_aggregate_sorts_an_unknown_combination_after_the_canonical_ones():
    table = aggregate([_result(1, hpc="zz"), _result(1, hpc="aa"), _result(1, hpc="4_L_p")])
    assert table.hpcs == ("4_L_p", "aa", "zz")


def test_aggregate_mean_and_sample_std():
    results = [_result(i, base=v) for i, v in enumerate((0.50, 0.52, 0.54), start=1)]
    table = aggregate(results)
    cell = table.cell("net", "4_L_p", "ap")
    assert cell.n == 3
    assert cell.mean == pytest.approx(0.52)
    # n-1 denominator: var = ((0.02)^2 + 0 + (0.02)^2) / 2 = 0.0004
    assert cell.std == pytest.approx(0.02)


def test_aggregate_mean_and_std_equal_numpys_bit_for_bit():
    # the figure data writes repr(mean) and repr(std), so "close" would move bytes
    rng = np.random.default_rng(17)
    sizes = list(range(1, 301)) + rng.integers(1, 301, 200).tolist()
    for i, n in enumerate(sizes):
        values = rng.uniform(0, 1, n) if i % 3 else rng.normal(0.5, 10.0 ** -rng.uniform(1, 8), n)
        if i % 5 == 0:
            values = np.round(values, 3)
        values = np.clip(values, 0.0, 1.0)
        results = [
            RunResult("net", "4_L_p", run, "d", MetricReport(*[v] * 8))
            for run, v in enumerate(values.tolist(), start=1)
        ]
        cell = aggregate(results).cell("net", "4_L_p", "ap")
        assert cell.mean == values.mean(), n
        assert cell.std == (values.std(ddof=1) if n > 1 else 0.0), n


def test_aggregate_single_run_has_zero_std():
    table = aggregate([_result(1)])
    cell = table.cell("net", "4_L_p", "ap")
    assert (cell.n, cell.std) == (1, 0.0)


def test_aggregate_skips_undefined_values():
    m1 = MetricReport(0.5, 0.6, 0.4, UNDEFINED, 0.5, 0.5, UNDEFINED, 0.5)
    m2 = MetricReport(0.7, 0.8, 0.6, 0.2, 0.7, 0.7, 0.3, 0.7)
    results = [
        RunResult(model="net", hpc="4_L_p", run=1, dataset="d", metrics=m1),
        RunResult(model="net", hpc="4_L_p", run=2, dataset="d", metrics=m2),
    ]
    table = aggregate(results)
    assert table.cell("net", "4_L_p", "ap").n == 2
    aps = table.cell("net", "4_L_p", "aps")
    assert (aps.n, aps.mean) == (1, 0.2)


def test_aggregate_rejects_duplicate_run():
    with pytest.raises(ReportError, match="duplicate"):
        aggregate([_result(1), _result(1)])


def test_aggregate_rejects_mixed_datasets():
    with pytest.raises(ReportError, match="mixed"):
        aggregate([_result(1), _result(2, dataset="other")])


@pytest.mark.parametrize(
    "other, message",
    [
        (Scoring((0.1,), 5, "f" * 64), f"iou_thresholds {_SWEEP!r} and (0.1,)"),
        (Scoring(_SWEEP, 5, "f" * 64), "max_dets 100 and 5"),
        (Scoring(_SWEEP, 100, "f" * 64), f"gt_sha256 {_DIGEST!r} and {'f' * 64!r}"),
    ],
)
def test_aggregate_refuses_rows_scored_differently_and_names_the_first_field(other, message):
    rows = [_scored(1), _result(2), _scored(3, other)]
    with pytest.raises(ReportError, match=f"^rows scored differently: {re.escape(message)}$"):
        aggregate(rows)


def test_aggregate_takes_unknown_scoring_beside_known():
    rows = [_result(1, base=0.4), _scored(2, base=0.6), _result(3, base=0.5), _scored(4)]
    plain = [replace(r, scoring=None) for r in rows]
    assert aggregate(rows) == aggregate(plain)
    assert metric_samples(rows, "ap") == metric_samples(plain, "ap")


def test_aggregate_orders_hpcs_canonically():
    results = [
        _result(1, hpc="16_l_u"),
        _result(1, hpc="4_L_p"),
        _result(1, hpc="16_L_p"),
    ]
    table = aggregate(results)
    assert table.hpcs == ("4_L_p", "16_L_p", "16_l_u")


def test_aggregate_keeps_model_first_seen_order():
    results = [_result(1, model="zeta"), _result(1, model="alpha")]
    assert aggregate(results).models == ("zeta", "alpha")


# -- best combination


def _table_from_means(means_by_hpc, metric="ap", model="net"):
    cells = {
        (model, hpc, metric): AggregateCell(mean=m, std=0.01, n=25)
        for hpc, m in means_by_hpc.items()
    }
    hpcs = tuple(h for h in CANONICAL_HPC_ORDER if h in means_by_hpc)
    return AggregateTable(dataset="d", models=(model,), hpcs=hpcs, cells=cells)


def test_best_hpc_single_winner():
    table = _table_from_means({"4_L_p": 0.581, "4_L_u": 0.548, "16_L_p": 0.579})
    assert best_hpc(table, "ap") == ("4_L_p",)


def test_best_hpc_lists_all_ties_in_column_order():
    table = _table_from_means({"16_L_p": 0.908, "4_L_p": 0.908, "4_l_p": 0.871})
    assert best_hpc(table, "ap") == ("4_L_p", "16_L_p")


def test_best_hpc_requires_model_for_multi_model_table():
    results = [_result(1, model="a"), _result(1, model="b")]
    table = aggregate(results)
    with pytest.raises(ReportError, match="name one"):
        best_hpc(table, "ap")
    assert best_hpc(table, "ap", model="a") == ("4_L_p",)


def test_best_hpc_unknown_metric():
    with pytest.raises(ReportError):
        best_hpc(_table_from_means({"4_L_p": 0.5}), "accuracy")


def test_best_hpc_unknown_model():
    with pytest.raises(ReportError, match="^unknown model 'x'$"):
        best_hpc(_table_from_means({"4_L_p": 0.5}), "ap", model="x")


# -- cell formatting


def test_format_cell_period_and_comma():
    cell = AggregateCell(mean=0.581, std=0.023, n=25)
    assert format_cell(cell) == "58.1±2.3"
    assert format_cell(cell, decimal="comma") == "58,1±2,3"


def test_format_cell_rounds_half_up():
    # 0.58250 -> 58.25 -> 58.3 (not banker's 58.2)
    assert format_cell(AggregateCell(mean=0.5825, std=0.00050, n=25)) == "58.3±0.1"
    assert format_cell(AggregateCell(mean=0.58249, std=0.00049, n=25)) == "58.2±0.0"


def test_format_cell_survives_float_representation():
    # 0.615 stores as 0.61499...; repr-based rounding still sees 61.5
    assert format_cell(AggregateCell(mean=0.615, std=0.0, n=25)) == "61.5±0.0"


def test_format_cell_rejects_unknown_mode():
    with pytest.raises(ReportError):
        format_cell(AggregateCell(0.5, 0.1, 5), decimal="space")


# -- table rendering


def _two_hpc_results():
    out = []
    for run in (1, 2):
        out.append(_result(run, hpc="4_L_p", base=0.50 + 0.01 * run))
        out.append(_result(run, hpc="4_L_u", base=0.40 + 0.01 * run))
    return out


def test_emit_table_markdown_bolds_winner_row_wise():
    table = aggregate(_two_hpc_results())
    text = emit_table(table, style="markdown")
    lines = text.splitlines()
    assert lines[0] == "| Metric | 4_L_p | 4_L_u |"
    ap_row = next(l for l in lines if l.startswith("| AP |"))
    assert "**51.5±0.7**" in ap_row
    assert "**41.5" not in ap_row


def test_emit_table_marks_ties_bold_together():
    cells = {}
    for hpc in ("4_L_p", "16_L_p"):
        for metric in METRIC_NAMES:
            cells[("net", hpc, metric)] = AggregateCell(mean=0.9, std=0.01, n=5)
    table = AggregateTable(dataset="d", models=("net",), hpcs=("4_L_p", "16_L_p"), cells=cells)
    text = emit_table(table, style="markdown")
    ap_row = next(l for l in text.splitlines() if l.startswith("| AP |"))
    assert ap_row.count("**90.0±1.0**") == 2


def test_emit_table_csv_comma_mode_uses_semicolons():
    table = aggregate(_two_hpc_results())
    text = emit_table(table, style="csv", decimal="comma")
    lines = text.splitlines()
    assert lines[0] == "Metric;4_L_p;4_L_u"
    assert lines[1].startswith("AP;51,5±0,7;41,5±0,7")


def test_emit_table_csv_period_mode_uses_commas():
    table = aggregate(_two_hpc_results())
    lines = emit_table(table, style="csv").splitlines()
    assert lines[0] == "Metric,4_L_p,4_L_u"
    assert lines[1].startswith("AP,51.5±0.7")


def test_emit_table_blank_cell_for_missing_stratum():
    m = MetricReport(0.5, 0.6, 0.4, UNDEFINED, 0.5, 0.5, UNDEFINED, 0.5)
    table = aggregate([RunResult(model="net", hpc="4_L_p", run=1, dataset="d", metrics=m)])
    lines = emit_table(table, style="csv").splitlines()
    aps_row = next(l for l in lines if l.startswith("APs,"))
    assert aps_row == "APs,"


def test_emit_table_requires_model_choice():
    results = [_result(1, model="a"), _result(1, model="b")]
    table = aggregate(results)
    with pytest.raises(ReportError, match="name one"):
        emit_table(table)
    assert "| Metric |" in emit_table(table, model="a")


def test_emit_table_rejects_unknown_style():
    with pytest.raises(ReportError):
        emit_table(aggregate([_result(1)]), style="html")


@pytest.mark.parametrize("style", ["markdown", "csv"])
def test_emit_table_rejects_unknown_decimal_without_a_defined_cell(style):
    # no cell is formatted, so the mode has to be checked before any is
    table = aggregate([RunResult("m", "4_L_p", 1, "s", MetricReport(*[UNDEFINED] * 8))])
    with pytest.raises(ReportError, match="decimal must be 'period' or 'comma', got 'bogus'"):
        emit_table(table, style=style, decimal="bogus")


def test_metric_labels_cover_all_metrics():
    assert tuple(METRIC_LABELS) == METRIC_NAMES


# -- battery wiring


def _battery_results():
    # two models, two combinations; "good" clearly beats "bad"
    out = []
    for run in range(1, 9):
        for model, base in (("good", 0.70), ("bad", 0.40)):
            wiggle = 0.003 * run + (0.001 if run % 3 == 0 else 0.0)
            out.append(_result(run, model=model, hpc="4_L_p", base=base + wiggle))
            out.append(_result(run, model=model, hpc="4_L_u", base=base - 0.05 + wiggle))
    return out


def test_metric_samples_take_best_hpc_per_model():
    samples = metric_samples(_battery_results(), "ap")
    by_label = {s.label: s for s in samples}
    assert set(by_label) == {"good", "bad"}
    assert len(by_label["good"].values) == 8
    # values come from the winning combination, in run order
    assert by_label["good"].values[0] == pytest.approx(0.703)
    assert by_label["good"].values == tuple(sorted(by_label["good"].values))


def test_a_model_that_never_defines_a_metric_gives_the_battery_s_error():
    # each model's aps is undefined in every run, as on a corpus with no small puddles
    results = [
        replace(r, metrics=replace(r.metrics, aps=UNDEFINED)) for r in _battery_results()
    ]
    with pytest.raises(StatsError, match="^sample set 'good' needs at least 2 values$"):
        metric_samples(results, "aps")
    assert len(metric_samples(results, "ap")) == 2
    # rows that break the table's rules still fail as before
    with pytest.raises(ReportError, match="duplicate run"):
        metric_samples([*results, results[0]], "aps")
    with pytest.raises(ReportError, match="unknown metric"):
        metric_samples(results, "apx")


def test_figure_data_lists_metrics_models_and_letters():
    results = _battery_results()
    table = aggregate(results)
    stats = {m: run_battery(metric_samples(results, m)) for m in ("ap", "ar")}
    text = emit_significance_figure_data(stats, table)
    lines = text.splitlines()
    assert lines[0] == "metric,model,mean,std,letters"
    body = [l.split(",") for l in lines[1:]]
    assert [row[0] for row in body] == ["ap", "ap", "ar", "ar"]
    assert [row[1] for row in body] == ["good", "bad", "good", "bad"]
    letters = {(row[0], row[1]): row[4] for row in body}
    assert letters[("ap", "good")] != letters[("ap", "bad")]


def test_figure_data_requires_letters_for_every_model():
    results = _battery_results()
    table = aggregate(results)
    samples = metric_samples(results, "ap")
    renamed = [samples[0], SampleSet("stranger", samples[1].values)]
    stats = {"ap": run_battery(renamed)}
    with pytest.raises(ReportError, match="letters"):
        emit_significance_figure_data(stats, table)


def _run_ordered_results(n_runs=10):
    # three models x three combinations, runs in order; the values spread
    # widely enough that adding them in another order moves their bits
    rng = np.random.default_rng(20)
    out = []
    for run in range(1, n_runs + 1):
        for model, shift in (("a", 0.0), ("b", 0.1), ("c", 0.2)):
            for hpc in ("4_L_p", "16_l_u", "4_l_u"):
                values = (shift + 0.7 * rng.random(8)).tolist()
                if rng.random() < 0.2:
                    values[3] = UNDEFINED
                out.append(RunResult(model, hpc, run, "pond", MetricReport(*values)))
    return out


def _outputs(results):
    table = aggregate(results)
    samples = {m: metric_samples(results, m) for m in METRIC_NAMES}
    batteries = {m: run_battery(s) for m, s in samples.items()}
    return (
        [emit_table(table, style, model=m) for m in table.models for style in ("markdown", "csv")],
        emit_significance_figure_data(batteries, table),
        {m: b.as_dict() for m, b in batteries.items()},
        samples,
    )


def test_tables_figure_and_batteries_follow_run_order_not_row_order():
    ordered = _run_ordered_results()
    shuffled = list(ordered)
    rng = np.random.default_rng(3)
    for model in ("a", "b", "c"):
        # the model's rows trade places among its own slots, so each model
        # still first appears where it did
        slots = [i for i, r in enumerate(ordered) if r.model == model]
        for i, j in zip(slots, rng.permutation(slots).tolist()):
            shuffled[i] = ordered[j]
    assert shuffled != ordered
    tables, figure, batteries, samples = _outputs(ordered)
    assert _outputs(shuffled)[:3] == (tables, figure, batteries)
    # each figure mean is the mean of the sample the battery tested
    for line in figure.splitlines()[1:]:
        metric, model, mean = line.split(",")[:3]
        (values,) = [s.values for s in samples[metric] if s.label == model]
        assert float(mean) == _mean(values)
