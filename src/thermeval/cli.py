"""Command line front end.

Subcommands cover the full pipeline: convert raw frames, mark tiny
ground truth as ignore, plan nested splits, run mock detectors, score
detections, aggregate result tables, and run the significance battery.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__

if TYPE_CHECKING:
    from .report import AggregateTable
    from .stats import StatReport

# Each command imports the modules it runs inside its body, and the parser
# needs no thermeval module, so a process loads only what its command uses
# (``filter``, ``--help`` and ``--version`` load no numpy).  The same holds
# for the standard library: ``hashlib`` loads only for a manifest and for the
# GT digest of ``evaluate --append``, ``json`` only where a command writes
# JSON.  The two choice lists argparse checks at parse time are spelled out
# here; tests pin them to ``report.METRIC_NAMES`` and ``synth.PRESETS``.
_METRIC_CHOICES = ("ap", "ap50", "ap75", "aps", "apm", "ar", "ars", "arm", "all")
_PRESET_CHOICES = ("a", "b")

# every module error subclasses ValueError
_ERRORS = (ValueError, OSError)


def _write_manifest(
    args: argparse.Namespace, inputs: list[Path], outputs: list[Path], digests: dict | None = None
) -> None:
    """With ``--manifest``, record what produced the outputs next to the
    first of them, or in the ``--out`` directory when there is none: the
    command, its seed, the other options as parsed, and the inputs' digests:
    from ``digests`` where the command has one, else of the input read whole."""
    if not args.manifest:
        return
    import hashlib
    import json

    target_dir = outputs[0].parent if outputs else Path(args.out)
    manifest = {
        "tool": "thermeval",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "options": {
            k: v for k, v in vars(args).items() if k not in ("func", "command", "seed")
        },
        "inputs": {
            str(p): (digests or {}).get(p) or hashlib.sha256(p.read_bytes()).hexdigest()
            for p in inputs
        },
        "outputs": [str(p) for p in outputs],
    }
    path = target_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _replace_text(path: Path, text: str) -> None:
    """Write through a temp file beside ``path``, so a failure leaves it as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone once replaced


def _load_dataset(path: Path):
    from .coco import parse_coco

    return parse_coco(path.read_text(encoding="utf-8"))


def _parse_thresholds(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_convert(args: argparse.Namespace) -> int:
    from .thermal import CalibrationRange, ThermalError, normalize_frame, read_raw, write_pgm

    src = Path(args.src)
    out = Path(args.out)
    if not src.is_dir():
        raise NotADirectoryError(f"{src} is not a directory")
    cal = CalibrationRange(args.cal_lo, args.cal_hi)
    raw_files = sorted(src.glob("*.raw"))
    if not raw_files:
        print(f"thermeval convert: warning: no .raw files in {src}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    failed = 0
    for raw_path in raw_files:
        try:
            with open(raw_path, "rb") as fp:
                frame = read_raw(fp)
            gray = normalize_frame(frame, cal)
            dest = out / (raw_path.stem + ".pgm")
            with open(dest, "wb") as fp:
                write_pgm(gray, fp)
            written.append(dest)
        except (ThermalError, OSError) as exc:
            print(f"thermeval convert: error: {raw_path.name}: {exc}", file=sys.stderr)
            failed += 1
    print(f"converted {len(written)} of {len(raw_files)} frames")
    _write_manifest(args, raw_files, written)
    return 1 if failed else 0


def cmd_filter(args: argparse.Namespace) -> int:
    from .coco import filter_small_objects, write_coco

    ds = _load_dataset(Path(args.gt))
    filtered = filter_small_objects(ds, args.threshold)
    Path(args.out).write_text(write_coco(filtered), encoding="utf-8")
    flipped = sum(
        1
        for a, b in zip(ds.annotations, filtered.annotations)
        if b.ignore and not a.ignore
    )
    print(f"marked {flipped} of {len(ds.annotations)} annotations as ignore")
    _write_manifest(args, [Path(args.gt)], [Path(args.out)])
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    from .plan import plan_splits, write_plan

    ds = _load_dataset(Path(args.gt))
    plan = plan_splits(ds.image_ids(), args.k_outer, args.k_inner, args.seed)
    Path(args.out).write_text(write_plan(plan), encoding="utf-8")
    print(f"planned {len(plan.runs)} runs over {len(ds.image_ids())} images")
    _write_manifest(args, [Path(args.gt)], [Path(args.out)])
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .coco import parse_coco, parse_detections
    from .metrics import DEFAULT_MAX_DETS, METRIC_NAMES, evaluate, validate_thresholds
    from .report import RunResult, Scoring, aggregate, read_results_csv, write_results_csv

    if args.out is None and args.append is None:
        raise ValueError("nothing to do, pass --out and/or --append")
    if args.append is not None and None in (args.model, args.hpc, args.run, args.dataset):
        raise ValueError("--append needs --model, --hpc, --run and --dataset")
    gt_bytes = Path(args.gt).read_bytes()  # read once, for the dataset and its digest
    gt = parse_coco(gt_bytes.decode("utf-8"))
    dets = parse_detections(Path(args.dets).read_text(encoding="utf-8"), gt)
    thresholds = validate_thresholds(args.iou_thresholds)
    max_dets = DEFAULT_MAX_DETS if args.max_dets is None else args.max_dets
    report = evaluate(gt, dets, thresholds, max_dets)
    for name in METRIC_NAMES:
        print(f"{name} {getattr(report, name):.6f}")
    digests = {}  # the inputs hashed here, for the manifest
    if args.append is not None:
        import hashlib

        digests[Path(args.gt)] = hashlib.sha256(gt_bytes).hexdigest()
        path = Path(args.append)
        rows = list(read_results_csv(path.read_text(encoding="utf-8"))) if path.exists() else []
        rows.append(
            RunResult(
                model=args.model,
                hpc=args.hpc,
                run=args.run,
                dataset=args.dataset,
                metrics=report,
                scoring=Scoring(thresholds, max_dets, digests[Path(args.gt)]),
            )
        )
        # a repeated run, a second dataset tag or other scoring fails before any write
        aggregate(rows)
    outputs: list[Path] = []
    if args.out is not None:
        import json

        Path(args.out).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
        outputs.append(Path(args.out))
    if args.append is not None:
        _replace_text(path, write_results_csv(rows))
        outputs.append(path)
    _write_manifest(args, [Path(args.gt), Path(args.dets)], outputs, digests)
    return 0


def _batteries(
    table: AggregateTable,
    values: Mapping[tuple[str, str, str], list[float]],
    metrics: Sequence[str],
    alpha: float,
    prog: str | None = None,
) -> dict[str, StatReport]:
    """The battery's report for each metric it can test, read from the
    ``(table, values)`` that ``report._aggregate`` returned for ``metrics``.

    A metric it cannot test is skipped, with a note on stderr when ``prog``
    names the command; a lone metric's error is raised as it is, and a
    StatsError when no metric is left.
    """
    from .report import _samples
    from .stats import StatsError, run_battery

    batteries = {}
    for metric in metrics:
        try:
            batteries[metric] = run_battery(_samples(table, values, metric), alpha)
        except StatsError as exc:
            if len(metrics) == 1:
                raise
            if prog is not None:
                print(f"thermeval {prog}: skipping {metric}: {exc}", file=sys.stderr)
    if not batteries:
        raise StatsError("no metric supports the battery")
    return batteries


def _alpha(alpha: float | None) -> float:
    """The family level, checked: one outside (0, 1) fails before any battery runs."""
    from .stats import DEFAULT_ALPHA, check_alpha

    return DEFAULT_ALPHA if alpha is None else check_alpha(alpha)


def cmd_stats(args: argparse.Namespace) -> int:
    from .report import METRIC_NAMES, _aggregate, read_results_csv

    if args.manifest and args.out is None:
        raise ValueError("--manifest needs --out")
    results = read_results_csv(Path(args.results).read_text(encoding="utf-8"))
    metrics = METRIC_NAMES if args.metric == "all" else (args.metric,)
    alpha = _alpha(args.alpha)  # before the rows are grouped
    # the rows are checked and grouped once, for every metric
    batteries = _batteries(*_aggregate(results, metrics), metrics, alpha, "stats")
    for metric, battery in batteries.items():
        letters = " ".join(
            f"{name}={battery.letters[name]}" for name in battery.group_names
        )
        print(
            f"{metric}: omnibus={battery.omnibus_method}"
            f" p={battery.omnibus_p:.4g} {letters}"
        )
    outputs: list[Path] = []
    if args.out is not None:
        import json

        reports = {metric: battery.as_dict() for metric, battery in batteries.items()}
        Path(args.out).write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
        outputs.append(Path(args.out))
    _write_manifest(args, [Path(args.results)], outputs)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .report import METRIC_NAMES, _aggregate, emit_table, read_results_csv

    if args.alpha is not None and args.figure_data is None:
        raise ValueError("--alpha needs --figure-data")
    results = read_results_csv(Path(args.results).read_text(encoding="utf-8"))
    # one grouping serves the table and the figure data's batteries
    table, values = _aggregate(results, METRIC_NAMES)
    if args.model is None and len(table.models) > 1:
        # one table per model, with a heading line so the blocks stay apart
        parts = []
        for model in table.models:
            body = emit_table(table, style=args.style, decimal=args.decimal, model=model)
            head = f"## {model}" if args.style == "markdown" else f"# {model}"
            parts.append(f"{head}\n\n{body}" if args.style == "markdown" else f"{head}\n{body}")
        text = "\n".join(parts)
    else:
        text = emit_table(table, style=args.style, decimal=args.decimal, model=args.model)
    writes = [(Path(args.out), text)]
    if args.figure_data is not None:
        # only the figure data needs the battery; it fails before any write
        from .report import emit_significance_figure_data

        batteries = _batteries(table, values, METRIC_NAMES, _alpha(args.alpha))
        writes.append((Path(args.figure_data), emit_significance_figure_data(batteries, table)))
    for path, body in writes:
        path.write_text(body, encoding="utf-8")
    _write_manifest(args, [Path(args.results)], [path for path, _ in writes])
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .coco import write_coco
    from .synth import PRESETS, build_corpus, write_distractors
    from .thermal import write_raw

    spec = PRESETS[args.preset]
    render = args.frames is not None
    corpus = build_corpus(spec, args.n, args.seed, render=render)
    Path(args.out).write_text(write_coco(corpus.dataset), encoding="utf-8")
    outputs = [Path(args.out)]
    if render:
        frames_dir = Path(args.frames)
        frames_dir.mkdir(parents=True, exist_ok=True)
        for img, frame in zip(corpus.dataset.images, corpus.frames):
            dest = frames_dir / img.file_name
            with open(dest, "wb") as fp:
                write_raw(frame, fp)
            outputs.append(dest)
    if args.emit_distractors is not None:
        Path(args.emit_distractors).write_text(
            write_distractors(corpus.distractors), encoding="utf-8"
        )
        outputs.append(Path(args.emit_distractors))
    n_ann = len(corpus.dataset.annotations)
    print(f"generated {args.n} images with {n_ann} annotations (preset {args.preset})")
    _write_manifest(args, [], outputs)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from .coco import write_detections
    from .synth import MockDetectorSpec, mock_detect, parse_distractors

    gt = _load_dataset(Path(args.gt))
    spec = MockDetectorSpec(
        p_drop=args.p_drop,
        p_fp=args.p_fp,
        jitter_sigma=args.jitter_sigma,
        p_distractor_fp=args.p_distractor_fp,
    )
    distractors = None
    inputs = [Path(args.gt)]
    if args.distractors is not None:
        distractors = parse_distractors(Path(args.distractors).read_text(encoding="utf-8"))
        inputs.append(Path(args.distractors))
    dets = mock_detect(gt, spec, args.seed, distractors)
    Path(args.out).write_text(write_detections(dets), encoding="utf-8")
    print(f"emitted {len(dets)} detections over {len(gt.images)} images")
    _write_manifest(args, inputs, [Path(args.out)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermeval",
        description="Thermal detection evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="normalize raw frames to 8-bit PGM")
    p.add_argument("--src", required=True, help="directory of .raw frames")
    p.add_argument("--out", required=True, help="destination directory")
    p.add_argument("--cal-lo", type=float, required=True, help="calibration low bound")
    p.add_argument("--cal-hi", type=float, required=True, help="calibration high bound")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("filter", help="mark tiny ground-truth boxes as ignore")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--out", required=True, help="filtered JSON destination")
    p.add_argument("--threshold", type=float, default=10.0, help="side length cutoff")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("split", help="plan nested cross-validation runs")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--out", required=True, help="plan JSON destination")
    p.add_argument("--k-outer", type=int, default=5, help="outer fold count")
    p.add_argument("--k-inner", type=int, default=5, help="inner fold count")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="score detections against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--dets", required=True, help="detections JSON")
    p.add_argument("--out", help="metric report JSON destination")
    p.add_argument("--append", help="results CSV to append a tagged row to")
    p.add_argument(
        "--iou-thresholds",
        type=_parse_thresholds,
        default=None,
        help="comma-separated overlap thresholds (default 0.50:0.05:0.95)",
    )
    p.add_argument("--max-dets", type=int)
    p.add_argument("--model", help="model tag for --append")
    p.add_argument("--hpc", help="combination tag for --append")
    p.add_argument("--run", type=int, help="run index for --append")
    p.add_argument("--dataset", help="dataset tag for --append")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="run the significance battery on a results CSV")
    p.add_argument("--results", required=True, help="results CSV")
    p.add_argument(
        "--metric",
        choices=_METRIC_CHOICES,
        default="all",
        help="metric to test (default: every metric)",
    )
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", help="battery report JSON destination")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="render the aggregate metric table")
    p.add_argument("--results", required=True, help="results CSV")
    p.add_argument("--out", required=True, help="table destination")
    p.add_argument("--style", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--decimal", choices=("period", "comma"), default="period")
    p.add_argument("--model", help="restrict the table to one model")
    p.add_argument("--figure-data", help="also write letter figure data CSV here")
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("--preset", choices=_PRESET_CHOICES, required=True)
    p.add_argument("--n", type=int, default=200, help="number of images")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="ground-truth JSON destination")
    p.add_argument("--frames", help="directory to render .raw frames into")
    p.add_argument("--emit-distractors", help="write distractor boxes JSON here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run a mock detector over a corpus")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--out", required=True, help="detections JSON destination")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-drop", type=float, default=0.0, help="miss probability")
    p.add_argument("--p-fp", type=float, default=0.0, help="expected false boxes per image")
    p.add_argument("--jitter-sigma", type=float, default=0.0, help="corner noise, pixels")
    p.add_argument(
        "--p-distractor-fp",
        type=float,
        default=0.0,
        help="per-distractor confusion probability",
    )
    p.add_argument("--distractors", help="distractor boxes JSON from synth")
    p.set_defaults(func=cmd_detect)

    # added after each subcommand's own options, so --help lists it last
    for p in sub.choices.values():
        p.add_argument("--manifest", action="store_true", help="write manifest.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"thermeval {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
