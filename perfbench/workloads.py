"""The three benchmark workloads.

A workload generates its inputs from the seed (untimed), measures its
set-up from a fresh interpreter, and then runs passes in a closed loop
with one caller.  It reads the host's speed next to every operation with
one of the references in ``hostref`` (``host_nominal`` names which,
``host_window`` how many neighbouring readings to pool).  A pass is the unit a user waits for: the whole nested-CV
protocol, one sweep over the detection files, or one shell session.  Each
pass times its operations one by one and returns the outputs that later
passes must reproduce exactly.

The workloads call only names listed in the modules' ``__all__``, the
``thermeval`` command and ``tools/make_fixtures.ref_evaluate``, so a
rewrite of the evaluator's internals cannot break them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostref
from inputs import (
    CV_MODELS,
    EvalWork,
    child_seed,
    crowded_corpus,
    crowded_inputs,
    cv_inputs,
    detections_doc,
)
import make_fixtures
from thermeval.coco import parse_coco, parse_detections, write_coco, write_detections
from thermeval.metrics import DEFAULT_IOU_THRESHOLDS, METRIC_NAMES, evaluate
from thermeval.plan import hpc_grid, plan_splits
from thermeval.report import (
    RunResult,
    aggregate,
    emit_significance_figure_data,
    emit_table,
    metric_samples,
    read_results_csv,
    write_results_csv,
)
from thermeval.stats import run_battery

# agreement required between the evaluator and the reference evaluator
REF_TOLERANCE = 1e-9

FULL = {
    "cv_protocol": {"n_images": 150},
    "crowded_eval": {"n_images": 300, "n_categories": 30, "crowded_cells": 4},
    "cli_session": {"frames": 30},
}
# sizes for the smoke test; the protocol shape (5x5 plan, 8 combinations,
# 3 models, every subcommand) is kept
TINY = {
    "cv_protocol": {"n_images": 60},
    "crowded_eval": {"n_images": 30, "n_categories": 6, "crowded_cells": 1},
    "cli_session": {"frames": 25},
}
# the reduced-size twin checked against the reference evaluator
CROWDED_TWIN = {"n_images": 40, "n_categories": 6, "crowded_cells": 1}


@dataclass(frozen=True)
class Checkout:
    root: Path        # checkout root; holds src/, tools/ and perfbench/
    work: Path        # scratch directory inside the checkout
    child_env: dict   # environment for every child process

    def probe(self, *args: str) -> float:
        """Seconds from starting ``probe.py`` until it reports ready."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "probe.py"), *args],
            env=self.child_env, capture_output=True, text=True, check=True,
        )
        return float(proc.stdout.split()[-1]) - t0

    def peak_rss_mb(self, *args: str) -> float:
        """Peak resident set, in MB, of a ``probe.py`` scoring child."""
        proc = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "probe.py"), *args],
            env=self.child_env, capture_output=True, text=True, check=True,
        )
        line = next(x for x in proc.stdout.splitlines() if x.startswith("maxrss_kb "))
        return int(line.split()[1]) / 1024.0


@dataclass
class PassResult:
    seconds: float                      # wall time of the pass, less its host readings
    op_seconds: list[float]             # latency of each timed operation, same order every pass
    op_host: list[float]                # host reading next to each operation, in seconds of host_nominal's reference
    dets: int                           # detections scored in the pass
    scoring: tuple[bool, ...]           # per operation: did it score detections
    outputs: object                     # must be identical on every pass
    failures: list[str] = field(default_factory=list)
    extra_ops: int = 0                  # untimed operations (protocol tail)


def add_work(tracer, work: EvalWork) -> None:
    tracer.count("metrics.evaluate_calls")
    tracer.count("metrics.dets_scored", work.dets)
    tracer.count("metrics.gts_scored", work.gts)
    tracer.count("metrics.cells", work.cells)
    tracer.count("metrics.capped_dets", work.capped_dets)
    tracer.count("metrics.iou_pairs", work.iou_pairs)


# The evaluator samples precision at np.linspace(0, 1, 101), as COCO does;
# ten of those points sit one ulp above the reference's i / 100.  When a
# recall value lands exactly on such a point the two disagree (by up to
# ~1e-3 in AP).  Such a mismatch is reported as a grid departure; any
# mismatch that remains on the evaluator's own grid is a failure.
_LINSPACE_GRID = np.linspace(0.0, 1.0, 101).tolist()


def _reference(gt_doc: dict, det_doc: list, grid: list[float]) -> dict:
    saved = make_fixtures.RECALL_SAMPLES
    make_fixtures.RECALL_SAMPLES = grid
    try:
        return make_fixtures.ref_evaluate(gt_doc, det_doc, list(DEFAULT_IOU_THRESHOLDS))
    finally:
        make_fixtures.RECALL_SAMPLES = saved


def _mismatch(report: dict, ref: dict) -> list[str]:
    return [
        f"{m}: evaluate {report[m]!r} vs reference {ref[m]!r}"
        for m in METRIC_NAMES
        if abs(report[m] - ref[m]) > REF_TOLERANCE
    ]


def compare_with_reference(what: str, report: dict, gt_doc: dict, det_doc: list) -> list[str]:
    """Failures of one report against the reference evaluator."""
    exact = _mismatch(report, _reference(gt_doc, det_doc, make_fixtures.RECALL_SAMPLES))
    if not exact:
        return []
    remaining = _mismatch(report, _reference(gt_doc, det_doc, _LINSPACE_GRID))
    if remaining:
        return [f"{what}: {m}" for m in remaining]
    print(f"# recall-grid departure from the reference on {what}: {'; '.join(exact)}")
    return []


# --------------------------------------------------------------------------


class CvProtocol:
    """The paper's protocol in one process: every model x combination x
    nested-CV run scored on its test fold, then the results CSV round trip,
    aggregation, the battery on all eight metrics, tables and figure data."""

    name = "cv_protocol"
    # an operation's host reading is the median of the blocks after the
    # 25 operations either side of it: about half a second of the run
    host_window = 25
    host_nominal = hostref.REF_BLOCK_S

    def __init__(self, checkout: Checkout, seed: int, n_images: int) -> None:
        self.checkout = checkout
        self.seed = seed
        self.n_images = n_images

    def prepare(self, tracer) -> dict:
        self.inputs = cv_inputs(self.seed, self.n_images, tracer)
        self.gt_path = self.checkout.work / "cv_gt.json"
        self.gt_path.write_bytes(self.inputs.gt_bytes)
        self.gt, self.plan = self.setup(tracer)
        self.hpcs = tuple(h.name for h in hpc_grid())
        self.models = tuple(m for m, _ in CV_MODELS)
        self.out_dir = self.checkout.work / "cv_out"
        self.out_dir.mkdir(exist_ok=True)
        # every model's 25 runs of the first combination, as files for the
        # scoring child whose peak memory is reported
        self.dets_dir = self.checkout.work / "cv_dets"
        self.dets_dir.mkdir(exist_ok=True)
        for (model, hpc, run), dets in self.inputs.dets.items():
            if hpc == self.hpcs[0]:
                (self.dets_dir / f"run{run:02d}_{model}.json").write_text(write_detections(dets))
        return self.inputs.shape

    def peak_rss_mb(self) -> float:
        return self.checkout.peak_rss_mb("cv_score", str(self.gt_path), str(self.seed), str(self.dets_dir))

    def setup_once(self) -> float:
        return self.checkout.probe(self.name, str(self.gt_path), str(self.seed))

    def setup(self, tracer):
        """What set-up does after imports: parse the ground truth, plan splits."""
        with tracer.span("coco.parse_coco"):
            gt = parse_coco(self.inputs.gt_bytes)
        tracer.count("coco.bytes_parsed", len(self.inputs.gt_bytes))
        tracer.count("coco.records_parsed", len(gt.images) + len(gt.annotations) + len(gt.categories))
        with tracer.span("plan.plan_splits"):
            plan = plan_splits(gt.image_ids(), 5, 5, self.seed)
        tracer.count("plan.runs", len(plan.runs))
        return gt, plan

    def run_pass(self, tracer) -> PassResult:
        gt, plan, dets = self.gt, self.plan, self.inputs.dets
        results = []
        op_seconds = []
        op_host = []
        start = time.perf_counter()
        with tracer.span("pass"):
            for model in self.models:
                for hpc in self.hpcs:
                    for ri, split in enumerate(plan.runs):
                        key = (model, hpc, ri + 1)
                        t0 = time.perf_counter()
                        with tracer.span("score"):
                            with tracer.span("coco.subset"):
                                fold = gt.subset(split.test_ids)
                            with tracer.span("metrics.evaluate"):
                                report = evaluate(fold, dets[key])
                        op_seconds.append(time.perf_counter() - t0)
                        with tracer.span("host.block"):
                            op_host.append(hostref.block())
                        add_work(tracer, self.inputs.work[key])
                        results.append(RunResult(model, hpc, ri + 1, "synth", report))
            outputs = self._tail(results, tracer)
        seconds = time.perf_counter() - start - sum(op_host)
        if tracer.enabled:
            # the cost of a call that does not grow with the detections, such
            # as preparing the fold's ground truth: the base of
            # score.overhead_share, taken next to the pass it is compared with
            for split in plan.runs:
                fold = gt.subset(split.test_ids)
                with tracer.span("metrics.evaluate_empty"):
                    evaluate(fold, ())

        failures = []
        letters = outputs[1]["ap"]
        weak = set(letters["delta"])
        for model in ("alpha", "bravo"):
            if weak & set(letters[model]):
                failures.append(f"weaker model shares a letter with {model}: {letters}")
        self.reports = {(r.model, r.hpc, r.run): r.metrics for r in results}
        return PassResult(
            seconds=seconds,
            op_seconds=op_seconds,
            op_host=op_host,
            dets=sum(w.dets for w in self.inputs.work.values()),
            scoring=(True,) * len(op_seconds),
            outputs=outputs,
            failures=failures,
            extra_ops=1,
        )

    def _tail(self, results, tracer):
        with tracer.span("protocol_tail"):
            with tracer.span("report.results_csv"):
                csv_text = write_results_csv(results)
                parsed = read_results_csv(csv_text)
            with tracer.span("report.aggregate"):
                table = aggregate(parsed)
            batteries = {}
            for metric in METRIC_NAMES:
                with tracer.span("report.metric_samples"):
                    groups = metric_samples(parsed, metric)
                with tracer.span("stats.run_battery"):
                    batteries[metric] = run_battery(groups)
                tracer.count("stats.batteries")
                tracer.count("stats.pairwise_tests", len(batteries[metric].pairwise))
                tracer.count("stats.nonparametric", batteries[metric].omnibus_method == "kruskal_wallis")
            with tracer.span("report.emit_table"):
                tables = [emit_table(table, model=m) for m in self.models]
                tables.append(emit_table(table, style="csv", decimal="comma", model=self.models[0]))
            with tracer.span("report.figure_data"):
                figure = emit_significance_figure_data(batteries, table)
            (self.out_dir / "results.csv").write_text(csv_text, encoding="utf-8")
            for i, text in enumerate(tables):
                (self.out_dir / f"table_{i}.txt").write_text(text, encoding="utf-8")
            (self.out_dir / "figure.csv").write_text(figure, encoding="utf-8")
        letters = {m: dict(b.letters) for m, b in batteries.items()}
        return csv_text, letters, tables, figure

    def check(self) -> tuple[int, list[str]]:
        """Sampled folds of the last pass agree with the reference evaluator."""
        rng = np.random.default_rng(child_seed(self.seed, 77))
        keys = sorted(self.reports)
        picks = [keys[i] for i in rng.choice(len(keys), size=min(3, len(keys)), replace=False)]
        failures = []
        for key in picks:
            ids = self.plan.runs[key[2] - 1].test_ids
            fold_doc = json.loads(write_coco(self.gt.subset(ids)))
            failures += compare_with_reference(
                f"fold {key}", self.reports[key].as_dict(), fold_doc,
                detections_doc(self.inputs.dets[key]),
            )
        return len(picks), failures


# --------------------------------------------------------------------------


class CrowdedEval:
    """One large detection file at a time, as ``thermeval evaluate`` does
    it minus interpreter start: parse both documents, evaluate, serialise."""

    name = "crowded_eval"
    host_window = 0
    host_nominal = hostref.REF_BLOCK_S

    def __init__(self, checkout: Checkout, seed: int, **size) -> None:
        self.checkout = checkout
        self.seed = seed
        self.size = size

    def prepare(self, tracer) -> dict:
        self.inputs = crowded_inputs(self.seed, **self.size)
        self.gt_records = self.inputs.shape["images"] + self.inputs.shape["gt"] + self.inputs.shape["categories"]
        self.files = [self.checkout.work / "crowded_gt.json"]
        self.files[0].write_bytes(self.inputs.gt_bytes)
        for i, det_bytes in enumerate(self.inputs.det_bytes):
            self.files.append(self.checkout.work / f"crowded_dets_{i}.json")
            self.files[-1].write_bytes(det_bytes)
        return self.inputs.shape

    def peak_rss_mb(self) -> float:
        return self.checkout.peak_rss_mb("crowded_score", *map(str, self.files))

    def setup_once(self) -> float:
        return self.checkout.probe(self.name)

    def setup(self, tracer):
        return None

    def run_pass(self, tracer) -> PassResult:
        gt_bytes = self.inputs.gt_bytes
        op_seconds = []
        op_host = []
        calibration = 0.0
        outputs = []
        start = time.perf_counter()
        with tracer.span("pass"):
            for det_bytes, work in zip(self.inputs.det_bytes, self.inputs.work):
                with tracer.span("host.block"):
                    before = hostref.batch(hostref.BATCH)
                calibration += sum(before)
                t0 = time.perf_counter()
                with tracer.span("operation"):
                    with tracer.span("coco.parse_coco"):
                        gt = parse_coco(gt_bytes)
                    with tracer.span("coco.parse_detections"):
                        dets = parse_detections(det_bytes, gt)
                    with tracer.span("metrics.evaluate"):
                        report = evaluate(gt, dets)
                    outputs.append(json.dumps(report.as_dict(), indent=2).encode())
                op_seconds.append(time.perf_counter() - t0)
                with tracer.span("host.block"):
                    after = hostref.batch(hostref.BATCH)
                calibration += sum(after)
                op_host.append(statistics.median(before + after))
                tracer.count("coco.bytes_parsed", len(gt_bytes) + len(det_bytes))
                tracer.count("coco.records_parsed", self.gt_records + work.dets)
                add_work(tracer, work)
        return PassResult(
            seconds=time.perf_counter() - start - calibration,
            op_seconds=op_seconds,
            op_host=op_host,
            dets=sum(w.dets for w in self.inputs.work),
            scoring=(True,) * len(op_seconds),
            outputs=tuple(outputs),
        )

    def check(self) -> tuple[int, list[str]]:
        """The reduced-size twin agrees with the reference evaluator."""
        gt_doc, det_docs = crowded_corpus(self.seed, **CROWDED_TWIN)
        gt = parse_coco(json.dumps(gt_doc))
        failures = []
        for i, det_doc in enumerate(det_docs):
            report = evaluate(gt, parse_detections(json.dumps(det_doc), gt)).as_dict()
            failures += compare_with_reference(f"twin file {i}", report, gt_doc, det_doc)
        return len(det_docs), failures


# --------------------------------------------------------------------------


class CliSession:
    """The README's shell workflow as sequential ``thermeval`` processes."""

    name = "cli_session"
    # a command's host reading is the median of the two starts around it
    # and of those around its neighbours
    host_window = 1
    host_nominal = hostref.REF_START_S
    # model tag -> miss probability; three runs each.  Ten false boxes per
    # image keep the detection count, and so dets_per_s, from depending
    # much on how many puddles a 30-frame corpus happens to hold: over
    # seeds 101-110 the quartiles of the count lie 0.04 of the median apart,
    # against 0.12 with three.
    MODELS = (("strong", 0.1), ("weak", 0.5))
    RUNS = 3

    def __init__(self, checkout: Checkout, seed: int, frames: int) -> None:
        self.checkout = checkout
        self.seed = seed
        self.frames = frames

    def prepare(self, tracer) -> dict:
        self.session = self.checkout.work / "session"
        seed = str(self.seed)
        cmds = [
            ["synth", "--preset", "b", "--n", str(self.frames), "--seed", seed, "--out", "gt.json",
             "--frames", "raw", "--emit-distractors", "distractors.json"],
            ["convert", "--src", "raw", "--out", "gray", "--cal-lo", "1800", "--cal-hi", "3200"],
            ["filter", "--gt", "gt.json", "--out", "gt_f.json"],
            ["split", "--gt", "gt_f.json", "--out", "plan.json", "--seed", seed],
        ]
        self.evaluated = []
        for mi, (model, p_drop) in enumerate(self.MODELS):
            for run in range(1, self.RUNS + 1):
                dets = f"dets_{model}_{run}.json"
                cmds.append([
                    "detect", "--gt", "gt_f.json", "--out", dets,
                    "--seed", str(child_seed(self.seed, mi, run)), "--p-drop", str(p_drop),
                    "--p-fp", "10", "--jitter-sigma", "0.5", "--p-distractor-fp", "0.2",
                    "--distractors", "distractors.json",
                ])
                self.evaluated.append(dets)
        for mi, (model, _) in enumerate(self.MODELS):
            for run in range(1, self.RUNS + 1):
                cmd = ["evaluate", "--gt", "gt_f.json", "--dets", f"dets_{model}_{run}.json",
                       "--append", "results.csv", "--model", model, "--hpc", "4_L_p",
                       "--run", str(run), "--dataset", "synth"]
                if mi == 0 and run == 1:
                    cmd += ["--out", "report.json"]
                cmds.append(cmd)
        cmds += [
            ["stats", "--results", "results.csv", "--out", "stats.json"],
            ["report", "--results", "results.csv", "--out", "table.md", "--figure-data", "figure.csv"],
            ["report", "--results", "results.csv", "--out", "table.csv", "--style", "csv",
             "--decimal", "comma"],
        ]
        self.commands = cmds
        self.dets_total: int | None = None
        return {"frames": self.frames, "frame_size": "640x480", "commands": len(cmds),
                "subcommands": sorted({c[0] for c in cmds}),
                "evaluated_runs": len(self.evaluated)}

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        proc = self.thermeval("--version", cwd=self.checkout.work)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"thermeval --version exited {proc.returncode}: {proc.stderr[-300:]}")
        return seconds

    def setup(self, tracer):
        return None

    def peak_rss_mb(self) -> float:
        """The largest of the session's processes."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def thermeval(self, *args: str, cwd: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "thermeval.cli", *args],
            cwd=cwd, env=self.checkout.child_env, capture_output=True, text=True,
        )

    def run_pass(self, tracer) -> PassResult:
        shutil.rmtree(self.session, ignore_errors=True)
        self.session.mkdir(parents=True)
        if tracer.enabled:
            # the base of the derived per-frame figures, taken next to the
            # session it is subtracted from
            with tracer.span("cli.version"):
                self.setup_once()
        op_seconds = []
        starts = []
        failures = []
        start = time.perf_counter()
        with tracer.span("pass"):
            for cmd in self.commands:
                with tracer.span("host.start"):
                    starts.append(hostref.start())
                t0 = time.perf_counter()
                with tracer.span(f"cli.{cmd[0]}"):
                    proc = self.thermeval(*cmd, cwd=self.session)
                op_seconds.append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    failures.append(f"{cmd[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
            with tracer.span("host.start"):
                starts.append(hostref.start())
        seconds = time.perf_counter() - start - sum(starts)
        op_host = [(a + b) / 2 for a, b in zip(starts, starts[1:])]
        tracer.count("thermal.frames", self.frames)

        outputs = {
            str(p.relative_to(self.session)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.session.rglob("*")) if p.is_file()
        }
        if self.dets_total is None and not failures:
            failures += self._check_evaluate()
            self.dets_total = sum(
                len(json.loads((self.session / name).read_bytes())) for name in self.evaluated
            )
        return PassResult(
            seconds=seconds,
            op_seconds=op_seconds,
            op_host=op_host,
            dets=self.dets_total or 0,
            scoring=tuple(cmd[0] == "evaluate" for cmd in self.commands),
            outputs=outputs,
            failures=failures,
        )

    def _check_evaluate(self) -> list[str]:
        """``evaluate --out`` equals in-process evaluate on the same files."""
        gt = parse_coco((self.session / "gt_f.json").read_bytes())
        dets = parse_detections((self.session / self.evaluated[0]).read_bytes(), gt)
        want = evaluate(gt, dets).as_dict()
        got = json.loads((self.session / "report.json").read_bytes())
        return [] if got == want else [f"evaluate --out {got} != in-process {want}"]

    def check(self) -> tuple[int, list[str]]:
        return 0, []

    def import_seconds(self) -> float:
        """Import time of the CLI module over a bare interpreter start, as
        the difference of the medians of five starts each."""
        bare = [self.checkout.probe("bare") for _ in range(5)]
        imported = [self.checkout.probe("cli_import") for _ in range(5)]
        return statistics.median(imported) - statistics.median(bare)


WORKLOADS = {w.name: w for w in (CvProtocol, CrowdedEval, CliSession)}

