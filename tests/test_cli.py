from __future__ import annotations

import json

import numpy as np
import pytest

from thermeval.cli import main
from thermeval.coco import parse_coco, parse_detections, write_coco, write_detections
from thermeval.metrics import METRIC_NAMES, MetricReport
from thermeval.report import RunResult, write_results_csv
from thermeval.synth import PRESET_A, MockDetectorSpec, build_corpus, mock_detect
from thermeval.thermal import CalibrationRange, RawFrame, normalize_frame, read_pgm, write_raw


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
    assert "thermeval filter: error: size threshold must be finite" in capsys.readouterr().err
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


def test_stats_with_one_model_fails(tmp_path, capsys):
    results = _results_csv(tmp_path, models=(("good", 0.7),))
    rc = main(["stats", "--results", str(results)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "thermeval stats: error: no metric could be tested"
    )


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
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        '{"1": [[1, 2]]}',
        '{"1": 5}',
        '{"1": [[0, 0, NaN, 1]]}',
        '{"1": [[true, 0, 5, 5]]}',
        '{"1": [["3", "4", 5, 5]]}',
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
