from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from thermeval.cli import main
from thermeval.coco import parse_coco, parse_detections, write_coco, write_detections
from thermeval.metrics import DEFAULT_IOU_THRESHOLDS, METRIC_NAMES, MetricReport
from thermeval.report import RunResult, Scoring, read_results_csv, write_results_csv
from thermeval.synth import PRESET_A, PRESET_B, MockDetectorSpec, build_corpus, mock_detect
from thermeval.thermal import (
    RAW_MAGIC,
    CalibrationRange,
    RawFrame,
    normalize_frame,
    read_pgm,
    write_raw,
)


def _write_raw_file(path, values):
    frame = RawFrame(np.asarray(values, dtype=np.int16))
    with open(path, "wb") as fp:
        write_raw(frame, fp)
    return frame


def _gt_file(tmp_path, n=12, seed=3, name="gt.json"):
    corpus = build_corpus(PRESET_A, n=n, seed=seed)
    path = tmp_path / name
    path.write_text(write_coco(corpus.dataset))
    return path, corpus


def _results_csv(tmp_path, name="results.csv", models=(("good", 0.7), ("bad", 0.4))):
    rng = np.random.default_rng(0)
    rows = []
    for model, base in models:
        for hpc in ("4_L_p", "4_L_u"):
            offset = 0.0 if hpc == "4_L_p" else -0.05
            for run in range(1, 9):
                vals = np.clip(base + offset + rng.normal(0.0, 0.01, 8), 0.0, 1.0)
                rows.append(
                    RunResult(
                        model=model,
                        hpc=hpc,
                        run=run,
                        dataset="pond",
                        metrics=MetricReport(*(float(v) for v in vals)),
                    )
                )
    path = tmp_path / name
    path.write_text(write_results_csv(rows))
    return path


# -- framework behavior


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "thermeval" in capsys.readouterr().out


def test_domain_errors_carry_command_prefix(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["filter", "--gt", str(missing), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "thermeval filter: error:" in capsys.readouterr().err


# -- convert


def test_convert_directory_of_frames(tmp_path, capsys):
    src = tmp_path / "raw"
    out = tmp_path / "pgm"
    src.mkdir()
    frame = _write_raw_file(src / "a.raw", [[1000, 2000], [1500, 2500]])
    _write_raw_file(src / "b.raw", [[1200, 1800]])
    rc = main([
        "convert", "--src", str(src), "--out", str(out),
        "--cal-lo", "1000", "--cal-hi", "2500",
    ])
    assert rc == 0
    assert "converted 2 of 2 frames" in capsys.readouterr().out
    with open(out / "a.pgm", "rb") as fp:
        gray = read_pgm(fp)
    want = normalize_frame(frame, CalibrationRange(1000.0, 2500.0))
    assert gray == want


def test_convert_is_pinned(tmp_path, capsys):
    # three preset-b frames under an integer, a fractional and a wider-than-int16
    # window; the digest covers every PGM byte that convert writes
    src = tmp_path / "raw"
    src.mkdir()
    for i, frame in enumerate(build_corpus(PRESET_B, n=3, seed=5, render=True).frames):
        with open(src / f"f{i}.raw", "wb") as fp:
            write_raw(frame, fp)
    h = hashlib.sha256()
    for lo, hi in [("1800", "3200"), ("2000.5", "2600.25"), ("-40000", "40000")]:
        out = tmp_path / f"gray_{lo}_{hi}"
        argv = ["convert", "--src", str(src), "--out", str(out), "--cal-lo", lo, "--cal-hi", hi]
        assert main(argv) == 0
        for path in sorted(out.glob("*.pgm")):
            h.update(path.read_bytes())
    capsys.readouterr()
    assert h.hexdigest() == "e0c582e3787839d11f4a1802150725358812521a262c4d27e8b52d6b2f329601"


def test_convert_keeps_going_past_bad_files(tmp_path, capsys):
    src = tmp_path / "raw"
    out = tmp_path / "pgm"
    src.mkdir()
    _write_raw_file(src / "good.raw", [[1500]])
    (src / "bad.raw").write_bytes(b"JUNKJUNKJUNK")
    rc = main([
        "convert", "--src", str(src), "--out", str(out),
        "--cal-lo", "0", "--cal-hi", "3000",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert (out / "good.pgm").exists()
    assert "bad.raw" in captured.err
    assert "converted 1 of 2 frames" in captured.out


def test_convert_reports_a_header_larger_than_its_file(tmp_path, capsys):
    src = tmp_path / "raw"
    out = tmp_path / "pgm"
    src.mkdir()
    _write_raw_file(src / "good.raw", [[1500]])
    (src / "huge.raw").write_bytes(struct.pack("<4sIII", RAW_MAGIC, 2**32 - 1, 2**32 - 1, 0))
    rc = main([
        "convert", "--src", str(src), "--out", str(out),
        "--cal-lo", "0", "--cal-hi", "3000",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["good.pgm"]
    assert captured.err == (
        "thermeval convert: error: huge.raw: raw payload holds 0 bytes,"
        f" expected {2 * (2**32 - 1) ** 2}\n"
    )
    assert "converted 1 of 2 frames" in captured.out


def test_convert_empty_directory_warns(tmp_path, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    rc = main([
        "convert", "--src", str(src), "--out", str(tmp_path / "o"),
        "--cal-lo", "0", "--cal-hi", "100",
    ])
    assert rc == 0
    assert "no .raw files" in capsys.readouterr().err


@pytest.mark.parametrize("lo, hi", [("-inf", "inf"), ("0", "inf"), ("nan", "100")])
def test_convert_rejects_a_non_finite_calibration(tmp_path, capsys, lo, hi):
    src = tmp_path / "raw"
    src.mkdir()
    _write_raw_file(src / "a.raw", [[1500]])
    out = tmp_path / "pgm"
    rc = main([
        "convert", "--src", str(src), "--out", str(out), f"--cal-lo={lo}", f"--cal-hi={hi}",
    ])
    assert rc == 1
    assert "thermeval convert: error: calibration range" in capsys.readouterr().err
    assert not out.exists()


def test_convert_missing_source_dir(tmp_path, capsys):
    rc = main([
        "convert", "--src", str(tmp_path / "ghost"), "--out", str(tmp_path / "o"),
        "--cal-lo", "0", "--cal-hi", "100",
    ])
    assert rc == 1
    assert "not a directory" in capsys.readouterr().err


# -- filter / split


def test_filter_reports_flipped_count(tmp_path, capsys):
    gt_path, corpus = _gt_file(tmp_path)
    out = tmp_path / "filtered.json"
    rc = main(["filter", "--gt", str(gt_path), "--out", str(out), "--threshold", "10"])
    assert rc == 0
    filtered = parse_coco(out.read_text())
    flipped = sum(1 for a in filtered.annotations if a.ignore)
    assert f"marked {flipped} of {len(filtered.annotations)}" in capsys.readouterr().out
    small = [a for a in filtered.annotations if a.bbox.w <= 10 or a.bbox.h <= 10]
    assert all(a.ignore for a in small)


def test_filter_rejects_a_nan_threshold(tmp_path, capsys):
    gt_path, _ = _gt_file(tmp_path)
    out = tmp_path / "filtered.json"
    rc = main(["filter", "--gt", str(gt_path), "--out", str(out), "--threshold", "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "thermeval filter: error: size threshold must be a finite number, got nan" in err
    assert not out.exists()


def test_split_writes_a_readable_plan(tmp_path, capsys):
    gt_path, _ = _gt_file(tmp_path, n=30)
    out = tmp_path / "plan.json"
    rc = main([
        "split", "--gt", str(gt_path), "--out", str(out),
        "--k-outer", "3", "--k-inner", "3", "--seed", "5",
    ])
    assert rc == 0
    assert "planned 9 runs over 30 images" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["seed"] == 5
    assert len(doc["runs"]) == 9


def test_split_rejects_pool_too_small(tmp_path, capsys):
    gt_path, _ = _gt_file(tmp_path, n=8)
    rc = main(["split", "--gt", str(gt_path), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert "thermeval split: error:" in capsys.readouterr().err


def test_split_rejects_a_negative_seed(tmp_path, capsys):
    gt_path, _ = _gt_file(tmp_path, n=30)
    out = tmp_path / "p.json"
    rc = main(["split", "--gt", str(gt_path), "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "thermeval split: error: seed must be non-negative, got -1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "detect"])
def test_synth_and_detect_name_a_negative_seed(tmp_path, capsys, command):
    gt_path, _ = _gt_file(tmp_path, n=3)
    out = tmp_path / "out.json"
    args = ["--preset", "a", "--n", "3"] if command == "synth" else ["--gt", str(gt_path)]
    rc = main([command, *args, "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"thermeval {command}: error: seed must be non-negative, got -1\n"
    )
    assert not out.exists()


# -- evaluate


def _eval_inputs(tmp_path):
    gt_path, corpus = _gt_file(tmp_path, n=10, seed=7)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(), seed=1)
    dets_path = tmp_path / "dets.json"
    dets_path.write_text(write_detections(dets))
    return gt_path, dets_path


def test_evaluate_prints_all_metrics_and_writes_json(tmp_path, capsys):
    gt_path, dets_path = _eval_inputs(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--gt", str(gt_path), "--dets", str(dets_path), "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split()[0] for l in lines] == list(METRIC_NAMES)
    doc = json.loads(out.read_text())
    assert set(doc) == set(METRIC_NAMES)
    assert doc["ap"] == 1.0


def test_evaluate_with_nothing_to_do_fails(tmp_path, capsys):
    gt_path, dets_path = _eval_inputs(tmp_path)
    rc = main(["evaluate", "--gt", str(gt_path), "--dets", str(dets_path)])
    assert rc == 1
    assert "nothing to do" in capsys.readouterr().err


def test_evaluate_append_needs_all_tags(tmp_path, capsys):
    gt_path, dets_path = _eval_inputs(tmp_path)
    rc = main([
        "evaluate", "--gt", str(gt_path), "--dets", str(dets_path),
        "--append", str(tmp_path / "r.csv"), "--model", "net",
    ])
    assert rc == 1
    assert "--append needs" in capsys.readouterr().err


def _append_args(gt_path, dets_path, csv_path, run="1"):
    return [
        "evaluate", "--gt", str(gt_path), "--dets", str(dets_path),
        "--append", str(csv_path), "--model", "net", "--hpc", "4_L_p",
        "--run", run, "--dataset", "pond",
    ]


def test_evaluate_append_accumulates_rows(tmp_path):
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    for run in ("1", "2"):
        assert main(_append_args(gt_path, dets_path, csv_path, run)) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header plus two runs
    assert lines[1].startswith("1,net,4_L_p,pond,")
    assert lines[2].startswith("2,net,4_L_p,pond,")


def test_evaluate_append_rejects_a_repeated_run(tmp_path, capsys):
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    assert main(_append_args(gt_path, dets_path, csv_path)) == 0
    before = csv_path.read_bytes()
    rc = main(_append_args(gt_path, dets_path, csv_path))
    assert rc == 1
    assert "thermeval evaluate: error: duplicate run" in capsys.readouterr().err
    assert csv_path.read_bytes() == before


@pytest.mark.parametrize("run", ["0", "-3"])
def test_evaluate_append_rejects_a_run_below_1(tmp_path, capsys, run):
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    assert main(_append_args(gt_path, dets_path, csv_path)) == 0
    before = csv_path.read_bytes()
    rc = main(_append_args(gt_path, dets_path, csv_path, run))
    assert rc == 1
    assert f"error: run must be a positive integer, got {run}" in capsys.readouterr().err
    assert csv_path.read_bytes() == before


def test_evaluate_append_keeps_the_file_when_the_write_fails(tmp_path, capsys, monkeypatch):
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    assert main(_append_args(gt_path, dets_path, csv_path)) == 0
    before = csv_path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    rc = main(_append_args(gt_path, dets_path, csv_path, run="2"))
    assert rc == 1
    assert "thermeval evaluate: error: disk full" in capsys.readouterr().err
    assert csv_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dets.json", "gt.json", "r.csv"]


def test_evaluate_append_refuses_rows_scored_another_way(tmp_path, capsys):
    # one row capped at 5, one at the default 100, one against a stricter GT
    # at another sweep: only the first may go in, and the file stays as it was
    gt_path, dets_path = _eval_inputs(tmp_path)
    strict = tmp_path / "gt_40.json"
    assert main(["filter", "--gt", str(gt_path), "--out", str(strict), "--threshold", "40"]) == 0
    csv_path = tmp_path / "r.csv"
    assert main([*_append_args(gt_path, dets_path, csv_path, "1"), "--max-dets", "5"]) == 0
    before = csv_path.read_bytes()
    capsys.readouterr()
    assert main(_append_args(gt_path, dets_path, csv_path, "2")) == 1
    assert capsys.readouterr().err == (
        "thermeval evaluate: error: rows scored differently: max_dets 5 and 100\n"
    )
    argv = [*_append_args(strict, dets_path, csv_path, "3"), "--iou-thresholds", "0.1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "thermeval evaluate: error: rows scored differently:"
        f" iou_thresholds {DEFAULT_IOU_THRESHOLDS!r} and (0.1,)\n"
    )
    assert main([*_append_args(strict, dets_path, csv_path, "3"), "--max-dets", "5"]) == 1
    assert "rows scored differently: gt_sha256 " in capsys.readouterr().err
    assert csv_path.read_bytes() == before


def test_evaluate_append_records_how_each_row_was_scored(tmp_path):
    # the same three rows under one condition go in, and read as they did
    # before rows recorded their conditions
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    for run in ("1", "2", "3"):
        assert main([*_append_args(gt_path, dets_path, csv_path, run), "--max-dets", "5"]) == 0
    rows = read_results_csv(csv_path.read_text())
    digest = hashlib.sha256(gt_path.read_bytes()).hexdigest()
    assert {r.scoring for r in rows} == {Scoring(DEFAULT_IOU_THRESHOLDS, 5, digest)}
    lines = csv_path.read_text().splitlines()
    assert lines[0].endswith(",arm,iou_thresholds,max_dets,gt_sha256")
    sweep = "0.5 0.55 0.6 0.65 0.7 0.75 0.8 0.85 0.8999999999999999 0.95"
    assert lines[1].endswith(f",{sweep},5,{digest}")
    # the condition columns cut, as a file written before them
    cut = tmp_path / "cut.csv"
    cut.write_text("".join(",".join(line.split(",")[:12]) + "\n" for line in lines))
    tables = []
    for path in (csv_path, cut):
        out = tmp_path / f"{path.stem}.md"
        assert main(["report", "--results", str(path), "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "column, field",
    [
        ("ap", "0.50"),
        ("ap", "5e-1"),
        ("ap", ".5"),
        ("ap", "1"),
        ("iou_thresholds", "0.95 0.5"),
        ("iou_thresholds", "2.0"),
        ("iou_thresholds", "-1.0"),
        ("iou_thresholds", "0.0"),
        ("iou_thresholds", "0.5 0.5"),
    ],
)
def test_a_row_the_writer_would_not_write_fails_stats_report_and_append(
    tmp_path, capsys, column, field
):
    # a field the writer spells otherwise, or a sweep evaluate would refuse
    gt_path, dets_path = _eval_inputs(tmp_path)
    csv_path = tmp_path / "r.csv"
    assert main(_append_args(gt_path, dets_path, csv_path)) == 0
    header, row = csv_path.read_text().splitlines()
    fields = row.split(",")
    fields[header.split(",").index(column)] = field
    csv_path.write_text(f"{header}\n{','.join(fields)}\n")
    before = csv_path.read_bytes()
    capsys.readouterr()
    out = tmp_path / "out.txt"
    for argv in (
        ["stats", "--results", str(csv_path), "--out", str(out)],
        ["report", "--results", str(csv_path), "--out", str(out)],
        _append_args(gt_path, dets_path, csv_path, "2"),
    ):
        assert main(argv) == 1
        assert f"thermeval {argv[0]}: error: line 2: " in capsys.readouterr().err
    assert not out.exists()
    assert csv_path.read_bytes() == before


def test_evaluate_append_manifest_takes_the_gt_digest_from_the_bytes_it_scored(
    tmp_path, monkeypatch
):
    # with or without --append, the GT file is read once; the manifest reads only
    # the detections again
    gt_path, dets_path = _eval_inputs(tmp_path)
    read = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: read.append(p) or read_bytes(p))
    out_args = [
        "evaluate", "--gt", str(gt_path), "--dets", str(dets_path), "--out", str(tmp_path / "r.json")
    ]
    for argv in (_append_args(gt_path, dets_path, tmp_path / "r.csv"), out_args):
        read.clear()
        (tmp_path / "manifest.json").unlink(missing_ok=True)
        assert main([*argv, "--manifest"]) == 0
        assert read == [gt_path, dets_path]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(read_bytes(p)).hexdigest() for p in (gt_path, dets_path)
        }


def test_evaluate_custom_thresholds(tmp_path, capsys):
    gt_path, dets_path = _eval_inputs(tmp_path)
    out = tmp_path / "r.json"
    rc = main([
        "evaluate", "--gt", str(gt_path), "--dets", str(dets_path),
        "--out", str(out), "--iou-thresholds", "0.5",
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ap75"] == -1.0


# -- stats


def test_stats_single_metric(tmp_path, capsys):
    results = _results_csv(tmp_path)
    out = tmp_path / "stats.json"
    rc = main(["stats", "--results", str(results), "--metric", "ap", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("ap: omnibus=")
    assert "good=" in stdout and "bad=" in stdout
    doc = json.loads(out.read_text())
    assert set(doc) == {"ap"}
    assert doc["ap"]["letters"]["good"] != doc["ap"]["letters"]["bad"]


def test_stats_all_metrics(tmp_path, capsys):
    results = _results_csv(tmp_path)
    rc = main(["stats", "--results", str(results)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split(":")[0] for l in lines] == list(METRIC_NAMES)


def test_stats_all_metrics_equal_each_metric_alone(tmp_path):
    # --metric all groups the rows once for every metric; each battery must
    # be the one a single-metric call writes
    results = _results_csv(tmp_path, models=(("good", 0.7), ("mid", 0.55), ("bad", 0.4)))
    every = tmp_path / "all.json"
    assert main(["stats", "--results", str(results), "--out", str(every)]) == 0
    doc = json.loads(every.read_text())
    assert list(doc) == list(METRIC_NAMES)
    for metric in METRIC_NAMES:
        one = tmp_path / f"{metric}.json"
        assert main(["stats", "--results", str(results), "--metric", metric, "--out", str(one)]) == 0
        assert json.loads(one.read_text()) == {metric: doc[metric]}


def test_stats_with_one_model_fails(tmp_path, capsys):
    results = _results_csv(tmp_path, models=(("good", 0.7),))
    rc = main(["stats", "--results", str(results)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "thermeval stats: error: no metric supports the battery"
    )


@pytest.mark.parametrize("command", ["stats", "report"])
def test_no_testable_metric_fails_alike_in_stats_and_report(tmp_path, capsys, command):
    results = _results_csv(tmp_path, models=(("good", 0.7),))
    argv = [command, "--results", str(results)]
    if command == "report":
        argv += ["--out", str(tmp_path / "t.md"), "--figure-data", str(tmp_path / "figure.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"thermeval {command}: error: no metric supports the battery"
    # stats notes each skipped metric; report skips them quietly
    skipped = [line for line in err if "skipping" in line]
    assert len(skipped) == (len(METRIC_NAMES) if command == "stats" else 0)
    assert not (tmp_path / "figure.csv").exists()


def test_stats_single_metric_raises_its_own_error(tmp_path, capsys):
    results = _results_csv(tmp_path, models=(("good", 0.7),))
    assert main(["stats", "--results", str(results), "--metric", "ap"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "thermeval stats: error: need at least 2 groups, got 1\n"


def _undefined_aps_csv(tmp_path, name="undefined.csv"):
    """``_results_csv`` with aps undefined in every row, as on a corpus with no small puddles."""
    header, *rows = _results_csv(tmp_path).read_text().splitlines()
    col = header.split(",").index("aps")
    rows = [",".join(f if i != col else "-1.0" for i, f in enumerate(r.split(","))) for r in rows]
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_stats_all_metrics_skip_a_metric_that_no_model_defines(tmp_path, capsys):
    out = tmp_path / "stats.json"
    rc = main(["stats", "--results", str(_undefined_aps_csv(tmp_path)), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == "thermeval stats: skipping aps: sample set 'good' needs at least 2 values\n"
    assert list(json.loads(out.read_text())) == [m for m in METRIC_NAMES if m != "aps"]


def test_report_figure_data_skips_a_metric_that_no_model_defines(tmp_path):
    table, fig = tmp_path / "table.md", tmp_path / "figure.csv"
    results = _undefined_aps_csv(tmp_path)
    argv = ["report", "--results", str(results), "--out", str(table), "--figure-data", str(fig)]
    assert main(argv) == 0
    assert "## good" in table.read_text()
    metrics = [line.split(",")[0] for line in fig.read_text().splitlines()[1:]]
    assert metrics == [m for m in METRIC_NAMES if m != "aps" for _ in ("good", "bad")]


def test_stats_on_a_metric_that_no_model_defines_alone_fails(tmp_path, capsys):
    results = _undefined_aps_csv(tmp_path)
    assert main(["stats", "--results", str(results), "--metric", "aps"]) == 1
    assert capsys.readouterr().err == (
        "thermeval stats: error: sample set 'good' needs at least 2 values\n"
    )


@pytest.mark.parametrize("command", ["stats", "report"])
def test_a_repeated_run_fails_stats_and_report(tmp_path, capsys, command):
    results = _undefined_aps_csv(tmp_path)
    header, first, *rest = results.read_text().splitlines()
    results.write_text("\n".join([header, first, first, *rest]) + "\n")
    argv = [command, "--results", str(results), "--out", str(tmp_path / "out.txt")]
    if command == "report":
        argv += ["--figure-data", str(tmp_path / "figure.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"thermeval {command}: error: duplicate run ('good', '4_L_p', 1)\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv", "undefined.csv"]


@pytest.mark.parametrize("command", ["stats", "report"])
def test_stats_and_report_refuse_rows_scored_differently(tmp_path, capsys, command):
    digest = "0" * 64
    rows = [
        RunResult(model, "4_L_p", run, "pond", MetricReport(*[base] * 8),
                  Scoring((0.5,), cap, digest))
        for model, base, cap in (("good", 0.7, 100), ("bad", 0.4, 5))
        for run in (1, 2, 3)
    ]
    results = tmp_path / "results.csv"
    results.write_text(write_results_csv(rows))
    out = tmp_path / "out.txt"
    argv = [command, "--results", str(results), "--out", str(out)]
    if command == "report":
        argv += ["--figure-data", str(tmp_path / "figure.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"thermeval {command}: error: rows scored differently: max_dets 100 and 5\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


@pytest.mark.parametrize("command", ["stats", "report"])
def test_a_bad_alpha_fails_before_the_rows_are_grouped_in_stats_only(
    tmp_path, capsys, command
):
    # a file with a repeated run: stats checks --alpha first, report groups
    # the rows for its table first
    results = _results_csv(tmp_path)
    header, first, *rest = results.read_text().splitlines()
    results.write_text("\n".join([header, first, first, *rest]) + "\n")
    argv = [command, "--results", str(results), "--out", str(tmp_path / "out"), "--alpha", "2"]
    if command == "report":
        argv += ["--figure-data", str(tmp_path / "figure.csv")]
    assert main(argv) == 1
    want = "alpha 2.0 outside (0, 1)" if command == "stats" else "duplicate run"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "report"])
def test_stats_and_report_group_the_rows_once(tmp_path, monkeypatch, command):
    import thermeval.report as report

    calls = []
    grouped = report._aggregate
    monkeypatch.setattr(report, "_aggregate", lambda *a: calls.append(a) or grouped(*a))
    argv = [command, "--results", str(_results_csv(tmp_path)), "--out", str(tmp_path / "out")]
    if command == "report":
        argv += ["--figure-data", str(tmp_path / "figure.csv")]
    assert main(argv) == 0
    assert [metrics for _, metrics in calls] == [METRIC_NAMES]


@pytest.mark.parametrize("alpha", ["0", "1", "-0.5", "nan"])
def test_stats_rejects_an_alpha_before_any_battery(tmp_path, capsys, alpha):
    results = _results_csv(tmp_path)
    out = tmp_path / "stats.json"
    rc = main(["stats", "--results", str(results), "--alpha", alpha, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    refusal = "must be a finite number, got nan" if alpha == "nan" else f"{float(alpha)} outside (0, 1)"
    assert captured.err == f"thermeval stats: error: alpha {refusal}\n"
    assert captured.out == ""
    assert not out.exists()


def test_stats_manifest_needs_out(tmp_path, capsys):
    results = _results_csv(tmp_path)
    rc = main(["stats", "--results", str(results), "--manifest"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "thermeval stats: error: --manifest needs --out"
    assert captured.out == ""  # rejected before the battery runs
    assert not (tmp_path / "manifest.json").exists()


def test_stats_manifest_with_out(tmp_path):
    results = _results_csv(tmp_path)
    out = tmp_path / "stats.json"
    assert main(["stats", "--results", str(results), "--out", str(out), "--manifest"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stats"
    assert manifest["outputs"] == [str(out)]


@pytest.mark.parametrize("command", ["stats", "report"])
def test_an_out_of_range_metric_fails_before_any_output(tmp_path, capsys, command):
    # 1e200 once overflowed Shapiro-Wilk in stats and the half-up rounding in report
    results = _results_csv(tmp_path)
    header, first, *rest = results.read_text().splitlines()
    fields = first.split(",")
    fields[4] = "1e200"
    results.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    out = tmp_path / "out.txt"
    assert main([command, "--results", str(results), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"thermeval {command}: error: line 2: ap 1e+200 is neither in [0, 1] nor -1.0\n"
    )
    assert not out.exists()


# -- report


def test_report_single_model_markdown(tmp_path):
    results = _results_csv(tmp_path)
    out = tmp_path / "table.md"
    rc = main([
        "report", "--results", str(results), "--out", str(out), "--model", "good",
    ])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "| Metric | 4_L_p | 4_L_u |"
    assert "**" in text


def test_report_all_models_get_headed_blocks(tmp_path):
    results = _results_csv(tmp_path)
    out = tmp_path / "table.md"
    rc = main(["report", "--results", str(results), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "## good" in text
    assert "## bad" in text


def test_report_comma_csv_and_figure_data(tmp_path):
    results = _results_csv(tmp_path)
    out = tmp_path / "table.csv"
    fig = tmp_path / "figure.csv"
    rc = main([
        "report", "--results", str(results), "--out", str(out),
        "--style", "csv", "--decimal", "comma", "--model", "good",
        "--figure-data", str(fig),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "Metric;4_L_p;4_L_u"
    fig_lines = fig.read_text().splitlines()
    assert fig_lines[0] == "metric,model,mean,std,letters"
    assert any(line.startswith("ap,good,") for line in fig_lines)


def test_report_figure_data_with_one_model_fails(tmp_path, capsys):
    results = _results_csv(tmp_path, models=(("good", 0.7),))
    rc = main([
        "report", "--results", str(results), "--out", str(tmp_path / "t.md"),
        "--figure-data", str(tmp_path / "figure.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "thermeval report: error: no metric supports the battery\n"
    )
    assert not (tmp_path / "figure.csv").exists()
    assert not (tmp_path / "t.md").exists()


def test_report_rejects_an_alpha_without_figure_data(tmp_path, capsys):
    # only the figure data runs the battery, so an alpha without it is a mistake
    results = _results_csv(tmp_path)
    rc = main([
        "report", "--results", str(results), "--out", str(tmp_path / "t.md"),
        "--alpha", "5", "--manifest",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "thermeval report: error: --alpha needs --figure-data\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_report_rejects_an_alpha_before_any_write(tmp_path, capsys):
    results = _results_csv(tmp_path)
    rc = main([
        "report", "--results", str(results), "--out", str(tmp_path / "t.md"),
        "--figure-data", str(tmp_path / "figure.csv"), "--alpha", "1.5", "--manifest",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "thermeval report: error: alpha 1.5 outside (0, 1)\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


# -- synth / detect


def test_synth_writes_corpus_frames_and_distractors(tmp_path, capsys):
    out = tmp_path / "gt.json"
    frames = tmp_path / "frames"
    distractors = tmp_path / "distractors.json"
    rc = main([
        "synth", "--preset", "a", "--n", "6", "--seed", "3",
        "--out", str(out), "--frames", str(frames),
        "--emit-distractors", str(distractors), "--manifest",
    ])
    assert rc == 0
    assert "generated 6 images" in capsys.readouterr().out
    ds = parse_coco(out.read_text())
    assert len(ds.images) == 6
    raw_files = sorted(p.name for p in frames.glob("*.raw"))
    assert raw_files == [img.file_name for img in ds.images]
    dmap = json.loads(distractors.read_text())
    assert set(dmap) == {str(i) for i in range(1, 7)}

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "thermeval"
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert str(out) in manifest["outputs"]


def test_synth_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["synth", "--preset", "b", "--n", "5", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_detect_round_trips_through_files(tmp_path, capsys):
    gt_path, corpus = _gt_file(tmp_path, n=8, seed=2)
    out = tmp_path / "dets.json"
    rc = main(["detect", "--gt", str(gt_path), "--out", str(out), "--seed", "4"])
    assert rc == 0
    dets = parse_detections(out.read_text(), corpus.dataset)
    assert len(dets) == len(corpus.dataset.annotations)
    assert f"emitted {len(dets)} detections over 8 images" in capsys.readouterr().out


def test_detect_consumes_distractor_file(tmp_path):
    gt = tmp_path / "gt.json"
    distractors = tmp_path / "d.json"
    dets_out = tmp_path / "dets.json"
    assert main([
        "synth", "--preset", "b", "--n", "6", "--seed", "1",
        "--out", str(gt), "--emit-distractors", str(distractors),
    ]) == 0
    assert main([
        "detect", "--gt", str(gt), "--out", str(dets_out),
        "--p-distractor-fp", "1.0", "--seed", "2", "--distractors", str(distractors),
    ]) == 0
    ds = parse_coco(gt.read_text())
    dets = parse_detections(dets_out.read_text(), ds)
    n_distractors = sum(len(v) for v in json.loads(distractors.read_text()).values())
    assert len(dets) == len(ds.annotations) + n_distractors


@pytest.mark.parametrize(
    "flags",
    [
        ["--p-drop", "1", "--jitter-sigma", "nan"],
        ["--jitter-sigma", "inf"],
        ["--p-fp", "nan"],
        ["--p-fp", "inf"],
    ],
)
def test_detect_rejects_a_non_finite_rate(tmp_path, capsys, flags):
    gt_path, _ = _gt_file(tmp_path, n=4)
    out = tmp_path / "dets.json"
    rc = main(["detect", "--gt", str(gt_path), "--out", str(out), *flags])
    assert rc == 1
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        '{"1": [[1, 2]]}',
        '{"1": 5}',
        '{"1": [[0, 0, NaN, 1]]}',
        '{"1": [[true, 0, 5, 5]]}',
        '{"1": [["3", "4", 5, 5]]}',
        '{"1": {}}',
        '{"1": ""}',
        '{" 1": []}',
        # "01" is not image 1, so it cannot overwrite image 1's boxes
        '{"1": [[1, 2, 3, 4]], "01": []}',
    ],
)
def test_detect_rejects_malformed_distractor_file(tmp_path, capsys, doc):
    gt_path, _ = _gt_file(tmp_path, n=4)
    distractors = tmp_path / "d.json"
    distractors.write_text(doc)
    rc = main([
        "detect", "--gt", str(gt_path), "--out", str(tmp_path / "dets.json"),
        "--distractors", str(distractors),
    ])
    assert rc == 1
    assert "thermeval detect: error:" in capsys.readouterr().err


def test_manifest_hashes_inputs(tmp_path):
    gt_path, _ = _gt_file(tmp_path)
    out = tmp_path / "filtered.json"
    rc = main(["filter", "--gt", str(gt_path), "--out", str(out), "--manifest"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    digest = manifest["inputs"][str(gt_path)]
    assert len(digest) == 64
    assert all(c in "0123456789abcdef" for c in digest)
    assert manifest["outputs"] == [str(out)]


def _manifest_case(tmp_path, case):
    """One ``--manifest`` run of each command, as (argv, exit code, seed,
    inputs, outputs, directory the manifest must land in)."""
    out = tmp_path / "out"
    out.mkdir()
    if case == "convert-empty":  # no frame to convert: --out is made for the manifest
        (tmp_path / "raw").mkdir()
        dest = out / "gray"
        argv = ["convert", "--src", str(tmp_path / "raw"), "--out", str(dest)]
        return [*argv, "--cal-lo", "0", "--cal-hi", "9"], 0, None, [], [], dest
    if case.startswith("convert"):
        src = tmp_path / "raw"
        src.mkdir()
        raw = src / "a.raw"
        if case == "convert":
            _write_raw_file(raw, [[1500]])
        else:  # no frame converted: the manifest goes into --out
            raw.write_bytes(b"JUNK")
        argv = ["convert", "--src", str(src), "--out", str(out), "--cal-lo", "0", "--cal-hi", "9"]
        written = [out / "a.pgm"] if case == "convert" else []
        return argv, 0 if written else 1, None, [raw], written, out
    if case == "synth":
        gt, dist = out / "gt.json", out / "d.json"
        argv = [
            "synth", "--preset", "a", "--n", "2", "--seed", "3", "--out", str(gt),
            "--frames", str(out / "raw"), "--emit-distractors", str(dist),
        ]
        frames = [out / "raw" / f"scene_0000{i}.raw" for i in (1, 2)]
        return argv, 0, 3, [], [gt, *frames, dist], out
    if case in ("stats", "report"):
        results = _results_csv(tmp_path)
        first, fig = out / f"{case}.out", tmp_path / "fig.csv"
        argv = [case, "--results", str(results), "--out", str(first)]
        if case == "stats":
            return [*argv, "--metric", "ap"], 0, None, [results], [first], out
        return [*argv, "--figure-data", str(fig)], 0, None, [results], [first, fig], out
    gt, dets = _eval_inputs(tmp_path)
    if case == "evaluate":
        report, csv = out / "r.json", tmp_path / "r.csv"
        argv = [*_append_args(gt, dets, csv), "--out", str(report)]
        return argv, 0, None, [gt, dets], [report, csv], out
    dest = out / f"{case}.json"
    argv = [case, "--gt", str(gt), "--out", str(dest)]
    if case == "filter":
        return argv, 0, None, [gt], [dest], out
    if case == "split":
        argv += ["--k-outer", "2", "--k-inner", "2", "--seed", "5"]
        return argv, 0, 5, [gt], [dest], out
    dist = tmp_path / "d.json"
    dist.write_text('{"1": [[0, 0, 5, 5]]}')
    argv += ["--seed", "4", "--distractors", str(dist), "--p-distractor-fp", "1"]
    return argv, 0, 4, [gt, dist], [dest], out


@pytest.mark.parametrize(
    "case",
    "convert convert-none convert-empty filter split evaluate stats report synth detect".split(),
)
def test_every_command_writes_its_manifest(tmp_path, case):
    argv, rc, seed, inputs, outputs, where = _manifest_case(tmp_path, case)
    assert main([*argv, "--manifest"]) == rc
    manifest = json.loads((where / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["seed"] == seed
    assert manifest["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs
    }
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert all(p.exists() for p in outputs)
    assert list(tmp_path.rglob("manifest.json")) == [where / "manifest.json"]
    # every other parsed option, the flag itself included
    assert manifest["options"]["manifest"] is True
    assert not {"func", "command", "seed"} & set(manifest["options"])


def test_the_manifest_records_the_resolved_options(tmp_path):
    gt, dets = _eval_inputs(tmp_path)
    csv = tmp_path / "r.csv"
    argv = [*_append_args(gt, dets, csv), "--iou-thresholds", "0.5,0.75", "--max-dets", "5"]
    assert main([*argv, "--manifest"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["options"] == {
        "gt": str(gt), "dets": str(dets), "out": None, "append": str(csv),
        "iou_thresholds": [0.5, 0.75], "max_dets": 5, "model": "net", "hpc": "4_L_p",
        "run": 1, "dataset": "pond", "manifest": True,
    }
