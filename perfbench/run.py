#!/usr/bin/env python3
"""thermeval benchmark: one command per workload, run from the checkout root.

    python3 perfbench/run.py --workload cv_protocol --seed 1 --seconds 50 --trace 0

The run generates its inputs from ``--seed``, times set-up from fresh
interpreters, runs passes of the workload for about ``--seconds``, checks
every output, and prints one line per metric followed by a JSON result as
the last line.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics, taken from traced passes that alternate
with untraced ones so that the tracing overhead can be reported.  Every
end-to-end time is normalised to the host's speed read next to it (see
``hostref.py``); the times as measured are printed on a comment line.

Exit codes: 0 when every correctness gate passed, 1 when one failed,
2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostref
from spans import Tracer, median_layers, span_table

ROOT = Path(__file__).resolve().parent.parent

# fresh interpreters timed for set-up, at least: one before the first pass
# and one between passes, after one untimed warm-up start
SETUP_REPEATS = 5

# BLAS/OpenMP pools: every workload has a single caller, so one thread
# each keeps timings free of pool start-up and oversubscription
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "dets_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric reporting its busy seconds per pass
LAYER_SPANS = (
    "coco.parse_coco",
    "coco.subset",
    "metrics.evaluate",
    "plan.plan_splits",
    "stats.run_battery",
    "report.results_csv",
    "report.aggregate",
    "report.metric_samples",
    "report.emit_table",
    "report.figure_data",
    "synth.build_corpus",
    "synth.mock_detect",
)
COUNTS = (
    "coco.bytes_parsed",
    "coco.records_parsed",
    "metrics.evaluate_calls",
    "metrics.dets_scored",
    "metrics.gts_scored",
    "metrics.cells",
    "metrics.capped_dets",
    "metrics.iou_pairs",
    "plan.runs",
    "stats.batteries",
    "stats.pairwise_tests",
    "thermal.frames",
)
# `thermeval --version` and each subcommand of the session
CLI_SPANS = ("version", "synth", "convert", "filter", "split", "detect", "evaluate", "stats", "report")
# spans the benchmark opens around its own steps; their self time is glue
BENCH_SPANS = ("pass", "score", "operation", "protocol_tail", "host.block", "host.start")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units.update({name: "count" for name in COUNTS})
    units.update({
        "metrics.ns_per_pair": "ns",
        "stats.nonparametric_share": "share",
        "cli.import_ms": "ms",
        **{f"cli.{name}_ms": "ms" for name in CLI_SPANS},
        "synth.render_ms_per_frame": "ms",
        "thermal.convert_ms_per_frame": "ms",
        "bench.self_s": "s",
        "host.reading_ms": "ms",
        "score.overhead_share": "share",
        "trace.overhead_pct": "%",
    })
    return units


def p90(samples: list[float]) -> float:
    """The 90th percentile, interpolated linearly between samples.

    A higher percentile would read the host's millisecond hiccups more
    than the program: on the shared host the benchmark was built on, the
    p98 of one pass's normalised scoring times moved by 0.2-0.3 between
    passes of the same run, the p90 by 0.05.
    """
    s = sorted(samples)
    pos = 0.9 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q: float) -> float:
    s = sorted(xs)
    return s[min(int(q * len(s)), len(s) - 1)] if s else 0.0


class Run:
    """One benchmark run: inputs, set-up timing, passes, gates, result."""

    def __init__(self, workload, trace: bool, seconds: float, setup_repeats: int) -> None:
        self.wl = workload
        self.trace = trace
        self.seconds = seconds
        self.setup_repeats = setup_repeats
        self.attempted = 0
        self.failures: list[str] = []
        self.plain = []     # (PassResult, Tracer) of untraced passes
        self.traced = []
        self.setup_tracers = []
        self.setup_raw: list[float] = []    # seconds as measured
        self.setup_s: list[float] = []      # normalised to the host readings around each

    def _setup_sample(self) -> None:
        before = hostref.start()
        seconds = self.wl.setup_once()
        after = hostref.start()
        self.setup_raw.append(seconds)
        self.setup_s.append(seconds * hostref.scale([before, after], hostref.REF_START_S))

    def execute(self) -> None:
        inputs_tracer = Tracer(self.trace)
        self.shape = self.wl.prepare(inputs_tracer)
        self.inputs_tracer = inputs_tracer
        print("shape " + json.dumps(self.shape, sort_keys=True))

        self.wl.setup_once()  # warm-up: bytecode caches, page cache
        self._setup_sample()
        if self.trace:
            for _ in range(self.setup_repeats):
                t = Tracer(True)
                self.wl.setup(t)
                self.setup_tracers.append(t)

        start = time.perf_counter()
        first_outputs = None
        walls = []
        i = 0
        while True:
            traced = self.trace and i % 2 == 1
            if i and not self.trace:
                # set-up samples spread over the run, one between passes
                self._setup_sample()
            tracer = Tracer(traced)
            t0 = time.perf_counter()
            result = self.wl.run_pass(tracer)
            walls.append(time.perf_counter() - t0)
            self.attempted += len(result.op_seconds) + result.extra_ops
            for f in result.failures:
                self.failures.append(f)
            if first_outputs is None:
                first_outputs = result.outputs
            elif result.outputs != first_outputs:
                self.failures.append(f"pass {i}: outputs differ from the first pass")
            (self.traced if traced else self.plain).append((result, tracer))
            i += 1
            if result.failures:
                break
            # start another pass only if it would end nearer the deadline
            # than this one did, so a run lasts about --seconds
            ahead = time.perf_counter() - start + statistics.median(walls) / 2
            if ahead >= self.seconds and self.plain and (self.traced or not self.trace):
                break

        while not self.trace and len(self.setup_s) < self.setup_repeats:
            self._setup_sample()
        readings = [h for r, _ in self.plain + self.traced for h in r.op_host]
        self.host_ms = 1e3 * _median(readings)
        print(f"host reading_ms median {self.host_ms:.4f} p10 {1e3 * _quantile(readings, 0.1):.4f} "
              f"p90 {1e3 * _quantile(readings, 0.9):.4f} of {len(readings)} readings "
              f"(nominal {1e3 * self.wl.host_nominal:g})")
        print("outputs " + hashlib.sha256(repr(first_outputs).encode()).hexdigest()[:16])
        checks, failures = self.wl.check()
        self.attempted += checks
        for f in failures:
            self.failures.append(f)
        self._check_counts()

    def _check_counts(self) -> None:
        """Work counts are a function of the inputs: every traced pass must
        report the same ones."""
        counts = [dict(t.counts) for _, t in self.traced]
        if any(c != counts[0] for c in counts[1:]):
            self.failures.append(f"work counts differ between passes: {counts}")

    # ----------------------------------------------------------------------

    def normalised(self, result) -> tuple[list[float], float, float]:
        """One pass's operation times, its whole time and its scoring time,
        each normalised to the host readings taken next to it."""
        nominal = self.wl.host_nominal
        scales = hostref.rolling_scales(result.op_host, self.wl.host_window, nominal)
        ops = [t * s for t, s in zip(result.op_seconds, scales)]
        rest = (result.seconds - sum(result.op_seconds)) * hostref.scale(result.op_host, nominal)
        scoring = sum(t for t, scored in zip(ops, result.scoring) if scored)
        return ops, sum(ops) + rest, scoring

    def end_to_end(self) -> dict[str, float]:
        """Medians over the whole run of host-normalised times (see hostref).

        Every pass runs the same operations on the same inputs, so each
        operation's time is its median over the untraced passes, and
        ``op_ms_*`` are taken over those.  ``pass_s`` and the scoring time
        behind ``dets_per_s`` are medians over passes.
        """
        results = [r for r, _ in self.plain]
        per_pass, passes, scoring = [], [], []
        for r in results:
            o, p, sc = self.normalised(r)
            per_pass.append(o)
            passes.append(p)
            scoring.append(sc)
        ops = [statistics.median(col) for col in zip(*per_pass)]
        raw_ops = [statistics.median(col) for col in zip(*(r.op_seconds for r in results))]
        print(f"# {len(ops)} operations, each the median of {len(results)} passes; "
              f"setup_s the median of {len(self.setup_s)} fresh interpreters")
        print(f"# as measured, before normalising: setup_s {_median(self.setup_raw):.6f} "
              f"pass_s {_median([r.seconds for r in results]):.6f} "
              f"op_ms_p50 {1e3 * _median(raw_ops):.6f} op_ms_p90 {1e3 * p90(raw_ops):.6f}")
        return {
            "setup_s": _median(self.setup_s),
            "pass_s": _median(passes),
            "op_ms_p50": 1e3 * _median(ops),
            "op_ms_p90": 1e3 * p90(ops),
            "dets_per_s": results[0].dets / _median(scoring),
            "peak_rss_mb": self.wl.peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        tracers = [t for _, t in self.traced]
        groups = [tracers, self.setup_tracers, [self.inputs_tracer]]
        layers: dict = {}
        for g in groups:
            for name, row in median_layers(g).items():
                layers.setdefault(name, row)
        counts: dict = {}
        for g in groups:
            for t in g[:1]:
                for name, value in t.counts.items():
                    counts.setdefault(name, value)

        out = {name: 0.0 for name in per_layer_units()}
        for name in LAYER_SPANS:
            if name in layers:
                out[f"{name}_s"] = layers[name][1]
        for name in COUNTS:
            out[name] = float(counts.get(name, 0))
        pairs = counts.get("metrics.iou_pairs", 0)
        if pairs and "metrics.evaluate" in layers:
            from thermeval.metrics import DEFAULT_IOU_THRESHOLDS

            # three strata (all, small, medium) are matched per threshold
            base = pairs * len(DEFAULT_IOU_THRESHOLDS) * 3
            out["metrics.ns_per_pair"] = layers["metrics.evaluate"][1] * 1e9 / base
            print(f"# metrics.ns_per_pair base: {pairs} pairs x "
                  f"{len(DEFAULT_IOU_THRESHOLDS)} thresholds x 3 strata = {base}")
        if counts.get("stats.batteries"):
            out["stats.nonparametric_share"] = counts.get("stats.nonparametric", 0) / counts["stats.batteries"]
            print(f"# stats.nonparametric_share base: {counts['stats.batteries']} batteries")
        if "metrics.evaluate_empty" in layers:
            # cv_protocol: the part of scoring that does not grow with the
            # detections, which a prepared ground truth and folds as masks
            # would remove
            calls, score, _ = layers["score"]
            empty_calls, empty, _ = layers["metrics.evaluate_empty"]
            subset = layers["coco.subset"][1]
            fixed = calls * empty / empty_calls
            out["score.overhead_share"] = (subset + fixed) / score
            print(f"# score.overhead_share base: {score:.6f} s of scoring per pass; "
                  f"fold subsets {subset:.6f} s, {calls:.0f} calls x {empty / empty_calls * 1e3:.3f} ms "
                  f"of evaluate with no detections")
        out["host.reading_ms"] = self.host_ms
        out["bench.self_s"] = sum(layers[name][2] for name in BENCH_SPANS if name in layers)

        if self.wl.name == "cli_session":
            out["cli.import_ms"] = self.wl.import_seconds() * 1e3
            for name in CLI_SPANS:
                calls, busy, _ = layers[f"cli.{name}"]
                out[f"cli.{name}_ms"] = busy / calls * 1e3
            frames = counts["thermal.frames"]
            # derived: subcommand time less a bare --version, per frame
            out["synth.render_ms_per_frame"] = (out["cli.synth_ms"] - out["cli.version_ms"]) / frames
            out["thermal.convert_ms_per_frame"] = (out["cli.convert_ms"] - out["cli.version_ms"]) / frames
            print(f"# per-frame figures are derived over {frames} frames")

        plain = _median([self.normalised(r)[1] for r, _ in self.plain])
        traced = _median([self.normalised(r)[1] for r, _ in self.traced])
        out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        print(f"# tracing overhead: traced pass {traced:.6f} s vs untraced {plain:.6f} s "
              f"({len(self.traced)} traced, {len(self.plain)} untraced passes)")
        for line in span_table(tracers + self.setup_tracers + [self.inputs_tracer]):
            print("# " + line)
        return out


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cv_protocol", "crowded_eval", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "thermeval" / "__init__.py").is_file() or not (ROOT / "tools" / "make_fixtures.py").is_file():
        print(f"perfbench: error: {ROOT} holds no src/thermeval or tools/make_fixtures.py",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for p in (str(ROOT / "perfbench"), str(ROOT / "tools"), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)

    import workloads

    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    checkout = workloads.Checkout(ROOT, work, child_env)
    sizes = (workloads.TINY if tiny else workloads.FULL)[args.workload]
    workload = workloads.WORKLOADS[args.workload](checkout, args.seed, **sizes)
    run = Run(workload, bool(args.trace), args.seconds, 2 if tiny else SETUP_REPEATS)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        run.execute()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except Exception:  # a crash is a failed run, reported like any other
        traceback.print_exc()
        run.failures.append("run aborted: " + traceback.format_exc().strip().splitlines()[-1])
        run.attempted += 1
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass

    units = per_layer_units() if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"# error_rate {len(run.failures)}/{run.attempted}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
