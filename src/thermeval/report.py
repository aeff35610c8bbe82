"""Aggregation and presentation of per-run metric results: mean/std
tables per model and combination, best-combination selection with ties,
markdown/CSV rendering with period or comma decimals, and the flat data
file behind the significance figures.  The eight metric names and
``MetricReport`` live here, and ``metrics`` re-exports them, so that the
results tail (``stats`` and ``report``) runs with the standard library alone.

The results file is described once, in ``_COLUMNS``: each column's name,
how a field reads as its value, and how the writer spells a value.  The
writer emits the columns up to the last one that any row fills, and the
reader takes any header prefix that ends at or after ``arm`` and a row only
as the writer would write the values it reads as.  A row may record how
its run was scored (``Scoring``: the IoU sweep, the detection cap and the
SHA-256 of the ground-truth file) in the three columns after ``arm``;
``aggregate`` refuses rows whose known conditions differ, and a row whose
conditions are unknown (blank) goes with any other.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import reduce
from operator import add, attrgetter
from typing import TYPE_CHECKING, Mapping, Sequence

from ._checks import DatasetError, _check_as, _check_cap, _check_int, _check_number, _check_sweep

if TYPE_CHECKING:
    from .stats import SampleSet, StatReport

__all__ = [
    "UNDEFINED",
    "METRIC_NAMES",
    "CANONICAL_HPC_ORDER",
    "MetricReport",
    "ReportError",
    "RunResult",
    "Scoring",
    "AggregateCell",
    "AggregateTable",
    "aggregate",
    "best_hpc",
    "emit_table",
    "emit_significance_figure_data",
    "metric_samples",
    "read_results_csv",
    "write_results_csv",
    "METRIC_LABELS",
]

# reported when a size stratum holds no eligible ground truth
UNDEFINED = -1.0

METRIC_NAMES = ("ap", "ap50", "ap75", "aps", "apm", "ar", "ars", "arm")

METRIC_LABELS: Mapping[str, str] = {
    "ap": "AP",
    "ap50": "AP@50",
    "ap75": "AP@75",
    "aps": "APs",
    "apm": "APm",
    "ar": "AR",
    "ars": "ARs",
    "arm": "ARm",
}

# the results columns in header order: (name, the value a field reads as,
# the writer's spelling of a value); every file holds those through ``arm``,
# then ``Scoring``'s fields in its order, the sweep as repr floats one space apart
_COLUMNS = (
    ("run", int, str),
    *((name, str, str) for name in ("model", "hpc", "dataset")),
    *((name, float, repr) for name in METRIC_NAMES),
    ("iou_thresholds", lambda f: tuple(map(float, f.split(" "))), lambda s: " ".join(map(repr, s))),
    ("max_dets", int, str),
    ("gt_sha256", str, str),
)
_HEADER = tuple(name for name, _, _ in _COLUMNS)
_N_BASE = _HEADER.index("arm") + 1
_SCORING = slice(_N_BASE, _N_BASE + 3)  # ``Scoring``'s columns
_METRICS = attrgetter(*METRIC_NAMES)

# the column order of the results tables: batch 4 block first, then by
# weighting (original L before reduced l), then by status (pretrained p
# before untrained u); tests hold it to ``plan.hpc_grid``'s names
CANONICAL_HPC_ORDER: tuple[str, ...] = (
    "4_L_p", "4_L_u", "4_l_p", "4_l_u", "16_L_p", "16_L_u", "16_l_p", "16_l_u"
)


class ReportError(ValueError):
    """Raised for inconsistent result collections or rendering requests."""


@dataclass(frozen=True)
class MetricReport:
    """The eight-value summary, each in [0, 1]; -1 marks an undefined size stratum."""

    ap: float
    ap50: float
    ap75: float
    aps: float
    apm: float
    ar: float
    ars: float
    arm: float

    def __post_init__(self) -> None:
        try:
            for name in METRIC_NAMES:
                v = getattr(self, name)
                _check_number(v, name)
                if not (0.0 <= v <= 1.0 or v == UNDEFINED):  # NaN and inf fail both
                    raise ReportError(f"{name} {v!r} is neither in [0, 1] nor {UNDEFINED}")
                # a float subclass such as numpy's would leak its repr into the results file
                object.__setattr__(self, name, float(v))
        except DatasetError as exc:
            raise ReportError(str(exc)) from None

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass(frozen=True)
class Scoring:
    """How a run was scored: an IoU sweep and a per-image detection cap that
    ``metrics.evaluate`` accepts, as plain floats and a plain int, and the
    SHA-256 of the ground-truth file, as 64 lowercase hex digits."""

    iou_thresholds: tuple[float, ...]
    max_dets: int
    gt_sha256: str

    def __post_init__(self) -> None:
        sweep = self.iou_thresholds
        try:  # a numpy scalar would leak its repr into the results file
            sweep = _check_as(ReportError, _check_sweep, sweep)
        except TypeError:
            raise ReportError(f"iou_thresholds must be a sequence, got {sweep!r}") from None
        object.__setattr__(self, "iou_thresholds", sweep)
        object.__setattr__(self, "max_dets", _check_as(ReportError, _check_cap, self.max_dets))
        digest = self.gt_sha256
        if not isinstance(digest, str) or len(digest) != 64 or digest.strip("0123456789abcdef"):
            raise ReportError(f"gt_sha256 must be 64 lowercase hex digits, got {digest!r}")


@dataclass(frozen=True)
class RunResult:
    """One evaluated run of one model under one combination.

    ``run`` is a positive integer: run r of a split plan is its r-th,
    ``plan.runs[r - 1]``, so a run of 0 or below names no run.  ``scoring``
    is None when how the run was scored is unknown.
    """

    model: str
    hpc: str
    run: int
    dataset: str
    metrics: MetricReport
    scoring: Scoring | None = None

    def __post_init__(self) -> None:
        _check_as(ReportError, _check_int, self.run, "run")
        if self.run < 1:
            raise ReportError(f"run must be a positive integer, got {self.run}")
        if not all(isinstance(t, str) and t for t in (self.model, self.hpc, self.dataset)):
            raise ReportError("model, hpc, and dataset tags must be non-empty strings")
        if self.scoring is not None and not isinstance(self.scoring, Scoring):
            raise ReportError(f"scoring must be a Scoring or None, got {self.scoring!r}")


def _values(r: RunResult) -> list:
    """A record's value in each results column, None where it has none."""
    s = r.scoring
    scoring = (None,) * len(_HEADER[_SCORING]) if s is None else attrgetter(*_HEADER[_SCORING])(s)
    return [r.run, r.model, r.hpc, r.dataset, *_METRICS(r.metrics), *scoring]


def write_results_csv(results: Sequence[RunResult]) -> str:
    """The results file: the columns up to the last one that any row fills."""
    rows = [_values(r) for r in results]
    width = max((i + 1 for v in rows for i, x in enumerate(v) if x is not None), default=_N_BASE)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADER[:width])
    for v in rows:
        writer.writerow(["" if x is None else c[2](x) for c, x in zip(_COLUMNS[:width], v)])
    return buf.getvalue()


def _read_row(row: list[str]) -> RunResult:
    """A row's record: each field read by its column, and spelled as the writer spells that."""
    values, misspelt = [None] * len(_COLUMNS), None
    for i, ((name, read, write), field) in enumerate(zip(_COLUMNS, row)):
        if field or i < _N_BASE:  # a blank field after ``arm`` reads as None
            try:
                values[i] = read(field)
            except ValueError as exc:
                raise ReportError(f"{name} {field!r}: {exc}") from None
            if misspelt is None and (spelled := write(values[i])) != field:
                misspelt = f"{name} {field!r} is not what the writer writes, {spelled!r}"
    blank = [name for name, v in zip(_HEADER[_SCORING], values[_SCORING]) if v is None]
    if 0 < len(blank) < len(_HEADER[_SCORING]):
        raise ReportError(f"scoring fields {blank} are blank but not all of them")
    run, model, hpc, dataset, *metrics = values[:_N_BASE]
    scoring = None if blank else Scoring(*values[_SCORING])
    result = RunResult(model, hpc, run, dataset, MetricReport(*metrics), scoring)
    if misspelt is not None:  # after the record's own checks
        raise ReportError(misspelt)
    return result


def read_results_csv(text: str) -> tuple[RunResult, ...]:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ReportError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ReportError("empty results file")
    header = tuple(rows[0])
    n_fields = len(header)
    if n_fields < _N_BASE or header != _HEADER[:n_fields]:
        raise ReportError(f"unexpected results header {header!r}")
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise ReportError(f"line {ln}: expected {n_fields} fields, got {len(row)}")
        try:
            out.append(_read_row(row))
        except ValueError as exc:  # ReportError is one
            raise ReportError(f"line {ln}: {exc}") from None
    return tuple(out)


@dataclass(frozen=True)
class AggregateCell:
    """Sample mean and standard deviation (n-1 denominator) over runs."""

    mean: float
    std: float
    n: int


def _sum(values: Sequence[float]) -> float:
    """The sum of ``values`` in numpy's order of additions (plain below 8 values,
    8 interleaved partial sums up to 128, halves above), so that a mean or a
    standard deviation here equals numpy's bit for bit."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[j:m:8], 0.0) for j in range(8)]
        return reduce(add, values[m:], (r[0] + r[1] + (r[2] + r[3])) + (r[4] + r[5] + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _sum(values[:half]) + _sum(values[half:])


def _mean(values: Sequence[float]) -> float:
    return _sum(values) / len(values)


def _sum_sq_dev(values: Sequence[float], mean: float) -> float:
    """The sum of squared deviations from ``mean``, in ``_sum``'s order."""
    return _sum([(v - mean) * (v - mean) for v in values])


def _hpc_sort_key(name: str):
    try:
        return (0, CANONICAL_HPC_ORDER.index(name))
    except ValueError:
        return (1, name)


@dataclass(frozen=True)
class AggregateTable:
    """(model, hpc, metric) -> AggregateCell for one dataset tag."""

    dataset: str
    models: tuple[str, ...]
    hpcs: tuple[str, ...]
    cells: Mapping[tuple[str, str, str], AggregateCell]

    def cell(self, model: str, hpc: str, metric: str) -> AggregateCell:
        try:
            return self.cells[(model, hpc, metric)]
        except KeyError:
            raise ReportError(f"no aggregate cell for ({model!r}, {hpc!r}, {metric!r})") from None

    def has_cell(self, model: str, hpc: str, metric: str) -> bool:
        return (model, hpc, metric) in self.cells


def aggregate(results: Sequence[RunResult]) -> AggregateTable:
    """Collapse runs into mean/std cells.

    All results must carry the same dataset tag, the rows whose scoring is
    known must share one ``Scoring``, and no (model, hpc, run) may repeat.
    Undefined stratum values are left out of their cell; a single
    contributing run yields std 0 with n = 1.  A cell's mean and std add its
    values in run order, whatever order the rows come in.
    """
    return _aggregate(results, METRIC_NAMES)[0]


def _aggregate(
    results: Sequence[RunResult], metrics: Sequence[str]
) -> tuple[AggregateTable, dict[tuple[str, str, str], list[float]]]:
    """``aggregate`` with cells for the named metrics only, and each cell's
    defined values in run order."""
    if not results:
        raise ReportError("no results to aggregate")
    datasets = {r.dataset for r in results}
    if len(datasets) > 1:
        raise ReportError(f"mixed dataset tags {sorted(datasets)}")
    # the known conditions in row order; an unknown one goes with any
    scorings = list(dict.fromkeys(r.scoring for r in results if r.scoring is not None))
    if len(scorings) > 1:
        a, b = map(vars, scorings[:2])
        name = next(n for n in _HEADER[_SCORING] if a[n] != b[n])
        raise ReportError(f"rows scored differently: {name} {a[name]!r} and {b[name]!r}")
    seen_runs = set()
    models: list[str] = []
    hpcs: set[str] = set()
    by_cell: dict[tuple[str, str, str], list[tuple[int, float]]] = {}
    for r in results:
        key = (r.model, r.hpc, r.run)
        if key in seen_runs:
            raise ReportError(f"duplicate run {key!r}")
        seen_runs.add(key)
        if r.model not in models:
            models.append(r.model)
        hpcs.add(r.hpc)
        for name in metrics:
            v = getattr(r.metrics, name)
            if v != UNDEFINED:
                by_cell.setdefault((r.model, r.hpc, name), []).append((r.run, v))

    values, cells = {}, {}
    for key, pairs in by_cell.items():
        vals = values[key] = [v for _, v in sorted(pairs)]  # a cell's runs are distinct
        n, mean = len(vals), _mean(vals)
        std = math.sqrt(_sum_sq_dev(vals, mean) / (n - 1)) if n > 1 else 0.0
        cells[key] = AggregateCell(mean=mean, std=std, n=n)
    hpc_order = tuple(sorted(hpcs, key=_hpc_sort_key))
    return AggregateTable(results[0].dataset, tuple(models), hpc_order, cells), values


def _one_model(table: AggregateTable, model: str | None, purpose: str) -> str:
    """The table's single model, or the named one, which it must hold."""
    if model is None:
        if len(table.models) != 1:
            raise ReportError(f"table holds models {table.models}; name one to {purpose}")
        return table.models[0]
    if model not in table.models:
        raise ReportError(f"unknown model {model!r}")
    return model


def best_hpc(table: AggregateTable, metric: str, model: str | None = None) -> tuple[str, ...]:
    """Combinations with the highest mean for a metric; ties all listed.

    The table must hold exactly one model unless one is named.
    """
    if metric not in METRIC_NAMES:
        raise ReportError(f"unknown metric {metric!r}")
    model = _one_model(table, model, "pick a best combination")
    candidates = [h for h in table.hpcs if table.has_cell(model, h, metric)]
    if not candidates:
        raise ReportError(f"no defined {metric!r} cells for model {model!r}")
    best = max(table.cell(model, h, metric).mean for h in candidates)
    return tuple(h for h in candidates if table.cell(model, h, metric).mean == best)


def _round1(value: float) -> Decimal:
    # round-half-up at one decimal on the exact decimal expansion
    return (Decimal(repr(value)) * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def _check_decimal(decimal: str) -> str:
    if decimal not in ("period", "comma"):
        raise ReportError(f"decimal must be 'period' or 'comma', got {decimal!r}")
    return decimal


def format_cell(cell: AggregateCell, decimal: str = "period") -> str:
    """Render mean and std as percentages: ``58.1±2.3`` (or comma mode)."""
    text = f"{_round1(cell.mean)}±{_round1(cell.std)}"
    return text.replace(".", ",") if _check_decimal(decimal) == "comma" else text


def emit_table(
    table: AggregateTable,
    style: str = "markdown",
    decimal: str = "period",
    model: str | None = None,
) -> str:
    """Render one model's metric-by-combination table.

    Rows are the eight metrics, columns the combinations in canonical
    order.  In markdown the best cell of each row (every tie) is bold;
    CSV output uses a semicolon delimiter in comma mode so cells stay
    unquoted.
    """
    if style not in ("markdown", "csv"):
        raise ReportError(f"style must be 'markdown' or 'csv', got {style!r}")
    _check_decimal(decimal)
    model = _one_model(table, model, "render")

    rows: list[list[str]] = []
    for metric in METRIC_NAMES:
        row = [METRIC_LABELS[metric]]
        try:
            winners = set(best_hpc(table, metric, model))
        except ReportError:
            winners = set()
        for hpc in table.hpcs:
            if not table.has_cell(model, hpc, metric):
                row.append("")
                continue
            text = format_cell(table.cell(model, hpc, metric), decimal)
            if style == "markdown" and hpc in winners:
                text = f"**{text}**"
            row.append(text)
        rows.append(row)

    header = ["Metric", *table.hpcs]
    if style == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"

    buf = io.StringIO()
    delimiter = ";" if decimal == "comma" else ","
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def metric_samples(results: Sequence[RunResult], metric: str) -> list[SampleSet]:
    """Per model, the run values of its best combination for a metric.

    The best combination is picked by mean (first of any tie in canonical
    column order); values follow run order.  This is the grouping the
    significance battery consumes.
    """
    # an unknown metric fails in best_hpc, after the checks on the rows
    table, values = _aggregate(results, (metric,) if metric in METRIC_NAMES else ())
    return _samples(table, values, metric)


def _samples(
    table: AggregateTable, values: Mapping[tuple[str, str, str], list[float]], metric: str
) -> list[SampleSet]:
    """``metric_samples`` read from a table and the cell values that
    ``_aggregate`` returned with it, so one grouping serves every metric."""
    from .stats import SampleSet  # the battery's module, loaded only where it is used

    out = []
    for model in table.models:
        # a model that never defines the metric has no best combination and an empty
        # sample, which SampleSet rejects with the battery's own error
        undefined = metric in METRIC_NAMES and not any(
            table.has_cell(model, h, metric) for h in table.hpcs
        )
        hpc = None if undefined else best_hpc(table, metric, model)[0]
        out.append(SampleSet(label=model, values=tuple(values.get((model, hpc, metric), ()))))
    return out


def emit_significance_figure_data(
    stats_by_metric: Mapping[str, StatReport],
    table: AggregateTable,
) -> str:
    """Flat CSV behind the letter figures: metric, model, mean, std, letters.

    Means and stds come from each model's best combination for the
    metric; letters from the matching battery report.  Every listed
    metric must supply letters for every model.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("metric", "model", "mean", "std", "letters"))
    for metric in METRIC_NAMES:
        if metric not in stats_by_metric:
            continue
        stat = stats_by_metric[metric]
        for model in table.models:
            if model not in stat.letters:
                raise ReportError(f"no letters for model {model!r} on metric {metric!r}")
            hpc = best_hpc(table, metric, model)[0]
            cell = table.cell(model, hpc, metric)
            writer.writerow((metric, model, repr(cell.mean), repr(cell.std), stat.letters[model]))
    return buf.getvalue()
