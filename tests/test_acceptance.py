"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] ...: PASS`` or ``FAIL`` line
(visible under ``pytest -s`` or in captured output) and then asserts, so
the suite doubles as a checklist.
"""
from __future__ import annotations

import json
import time
from itertools import combinations
from pathlib import Path

import numpy as np

from thermeval.coco import (
    AnnotationRecord,
    BBox,
    CategoryRecord,
    Dataset,
    ImageRecord,
    SizeClass,
    classify_size,
    filter_small_objects,
    parse_coco,
    parse_detections,
)
from thermeval.metrics import METRIC_NAMES, evaluate
from thermeval.plan import plan_splits
from thermeval.report import (
    CANONICAL_HPC_ORDER,
    AggregateCell,
    AggregateTable,
    RunResult,
    aggregate,
    best_hpc,
    emit_significance_figure_data,
    format_cell,
    metric_samples,
    read_results_csv,
    write_results_csv,
)
from thermeval.stats import (
    bonferroni,
    compact_letters,
    dunn_test,
    kruskal_wallis,
    one_way_anova,
    run_battery,
    shapiro_wilk,
    t_test_welch,
)
from thermeval.synth import PRESET_A, PRESET_B, MockDetectorSpec, build_corpus, mock_detect
from thermeval.thermal import (
    AugmentPolicy,
    CalibrationRange,
    RawFrame,
    augment_sample,
    flip,
    normalize_frame,
    rotate,
)

DATA = Path(__file__).parent / "data"


def _verdict(number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {label}: {status}")
    assert not failures, "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# -- 1: metric engine against the stored reference evaluation


def test_criterion_1_metric_engine_matches_reference():
    failures: list[str] = []
    t0 = time.perf_counter()
    gt = parse_coco((DATA / "ref_eval_gt.json").read_text())
    dets = parse_detections((DATA / "ref_eval_dets.json").read_text(), gt)
    expected = json.loads((DATA / "ref_eval_expected.json").read_text())
    report = evaluate(
        gt, dets, thresholds=expected["thresholds"], max_dets=expected["max_dets"]
    )
    elapsed = time.perf_counter() - t0

    _check(failures, len(gt.images) == 50, f"corpus has {len(gt.images)} images, wanted 50")
    for name, want in expected["metrics"].items():
        got = getattr(report, name)
        _check(failures, abs(got - want) <= 1e-6, f"{name}: {got!r} vs reference {want!r}")
    _check(failures, elapsed < 5.0, f"evaluation took {elapsed:.2f} s")
    _verdict(1, "metric engine matches stored reference within 1e-6", failures)


# -- 2: mock-detector statistics


def test_criterion_2_mock_detector_statistics():
    failures: list[str] = []

    corpus = build_corpus(PRESET_A, n=700, seed=42)
    n_gt = len(corpus.dataset.annotations)
    _check(failures, n_gt >= 1000, f"only {n_gt} ground-truth objects, wanted >= 1000")

    dets = mock_detect(corpus.dataset, MockDetectorSpec(p_drop=0.3), seed=9)
    recall = evaluate(corpus.dataset, dets, thresholds=[0.5]).ar
    _check(
        failures,
        abs(recall - 0.70) <= 0.03,
        f"recall@0.5 with p_drop=0.3 is {recall:.4f}, outside 0.70 +/- 0.03",
    )

    small = build_corpus(PRESET_A, n=25, seed=7)
    perfect = mock_detect(small.dataset, MockDetectorSpec(), seed=1)
    scores = evaluate(small.dataset, perfect).as_dict()
    _check(
        failures,
        scores == {name: 1.0 for name in METRIC_NAMES},
        f"perfect detector does not score exactly 1.0 everywhere: {scores}",
    )
    _verdict(2, "mock detector hits recall and perfect-score targets", failures)


# -- 3: split-plan invariants


def _plan_failures(ids: list[int], seed: int) -> list[str]:
    out: list[str] = []
    universe = set(ids)
    plan = plan_splits(ids, seed=seed)
    by_outer: dict[int, tuple[int, ...]] = {}
    for run in plan.runs:
        train, val, test = set(run.train_ids), set(run.val_ids), set(run.test_ids)
        if train & val or train & test or val & test:
            out.append(f"overlap inside run {run.outer_fold}/{run.inner_fold}")
        if train | val | test != universe:
            out.append(f"run {run.outer_fold}/{run.inner_fold} does not cover the pool")
        if by_outer.setdefault(run.outer_fold, run.test_ids) != run.test_ids:
            out.append(f"outer fold {run.outer_fold} has inconsistent test sets")
    folds = list(by_outer.values())
    if set().union(*(set(f) for f in folds)) != universe:
        out.append("outer test folds do not cover the pool")
    if sum(len(f) for f in folds) != len(universe):
        out.append("outer test folds overlap")
    if plan_splits(ids, seed=seed) != plan:
        out.append("plan is not deterministic under a fixed seed")
    return out


def test_criterion_3_split_plan_invariants():
    failures: list[str] = []

    plan = plan_splits(range(1000), seed=0)
    _check(failures, len(plan.runs) == 25, f"{len(plan.runs)} runs, wanted 25")
    sizes = {
        (len(r.train_ids), len(r.val_ids), len(r.test_ids)) for r in plan.runs
    }
    _check(failures, sizes == {(640, 160, 200)}, f"split sizes {sizes}")
    failures += _plan_failures(list(range(1000)), seed=0)

    rng = np.random.default_rng(2026)
    for _ in range(50):
        n = int(rng.integers(25, 1500))
        seed = int(rng.integers(0, 10**6))
        for msg in _plan_failures(list(range(n)), seed):
            failures.append(f"(n={n}, seed={seed}) {msg}")
    _verdict(3, "nested split plans partition deterministically", failures)


# -- 4: size classification and the small-object filter


def _random_dataset(rng: np.random.Generator) -> Dataset:
    images, anns = [], []
    ann_id = 1
    for image_id in range(1, int(rng.integers(1, 4)) + 1):
        images.append(ImageRecord(image_id, f"img_{image_id}.raw", 64, 64))
        for _ in range(int(rng.integers(0, 6))):
            x, y = rng.uniform(0.0, 20.0, 2)
            w, h = rng.uniform(0.5, 30.0, 2)
            anns.append(
                AnnotationRecord(
                    ann_id,
                    image_id,
                    1,
                    BBox(float(x), float(y), float(w), float(h)),
                    ignore=bool(rng.random() < 0.2),
                )
            )
            ann_id += 1
    return Dataset(
        images=tuple(images),
        annotations=tuple(anns),
        categories=(CategoryRecord(1, "pig"),),
    )


def test_criterion_4_size_rules_and_filter_properties():
    failures: list[str] = []

    boundary = [
        (1024.0, SizeClass.SMALL),
        (float(np.nextafter(1024.0, np.inf)), SizeClass.MEDIUM),
        (9216.0, SizeClass.MEDIUM),
        (float(np.nextafter(9216.0, np.inf)), SizeClass.LARGE),
    ]
    for area, want in boundary:
        got = classify_size(area)
        _check(failures, got is want, f"classify_size({area!r}) = {got}, wanted {want}")

    ds = Dataset(
        images=(ImageRecord(1, "a.raw", 64, 64),),
        annotations=(
            AnnotationRecord(1, 1, 1, BBox(0, 0, 10.0, 20.0)),
            AnnotationRecord(2, 1, 1, BBox(0, 0, 10.01, 20.0)),
            AnnotationRecord(3, 1, 1, BBox(0, 0, 20.0, 9.0)),
        ),
        categories=(CategoryRecord(1, "pig"),),
    )
    flags = {a.id: a.ignore for a in filter_small_objects(ds, 10.0).annotations}
    _check(
        failures,
        flags == {1: True, 2: False, 3: True},
        f"threshold is not strict at 10 px: {flags}",
    )

    rng = np.random.default_rng(404)
    for i in range(1000):
        ds = _random_dataset(rng)
        t_low, t_high = sorted(rng.uniform(0.0, 20.0, 2))
        once = filter_small_objects(ds, t_low)
        twice = filter_small_objects(once, t_low)
        if once != twice:
            failures.append(f"dataset {i}: filter not idempotent at {t_low:.3f}")
        low_ignored = {a.id for a in once.annotations if a.ignore}
        high_ignored = {
            a.id for a in filter_small_objects(ds, t_high).annotations if a.ignore
        }
        if not low_ignored <= high_ignored:
            failures.append(f"dataset {i}: filter not monotone {t_low:.3f}->{t_high:.3f}")
    _verdict(4, "size boundaries exact; filter idempotent and monotone", failures)


# -- 5: statistics against stored reference values, plus letter minimality


def _close(got, want, tol=1e-3) -> bool:
    return bool(np.allclose(got, want, rtol=tol, atol=tol))


def _min_letter_cover(nodes: tuple[str, ...], nonsig: set[frozenset]) -> int:
    cliques = [
        set(c)
        for r in range(1, len(nodes) + 1)
        for c in combinations(nodes, r)
        if all(frozenset(p) in nonsig for p in combinations(c, 2))
    ]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    # triangle-free graphs need one clique per edge, which can exceed the
    # node count, so search all the way up to the full maximal-clique set
    for k in range(1, len(maximal) + 1):
        for cover in combinations(maximal, k):
            if all(any(v in c for c in cover) for v in nodes) and all(
                any(e <= c for c in cover) for e in nonsig
            ):
                return k
    raise AssertionError("uncoverable graph")


def test_criterion_5_statistics_match_reference_and_letters_are_minimal():
    failures: list[str] = []
    fixtures = json.loads((DATA / "stats_expected.json").read_text())

    runners = {
        "shapiro": lambda c: _close(shapiro_wilk(c["values"]), (c["w"], c["p"])),
        "anova": lambda c: _close(one_way_anova(c["groups"]), (c["f"], c["p"])),
        "kruskal": lambda c: _close(kruskal_wallis(c["groups"]), (c["h"], c["p"])),
        "welch": lambda c: _close(t_test_welch(c["a"], c["b"]), (c["t"], c["p"])),
        "dunn": lambda c: _close(dunn_test(c["groups"])[0], np.asarray(c["z"]))
        and _close(dunn_test(c["groups"])[1], np.asarray(c["p"])),
    }
    for family, matches in runners.items():
        cases = fixtures[family]
        _check(failures, len(cases) >= 5, f"{family}: only {len(cases)} fixtures")
        for i, case in enumerate(cases):
            _check(failures, matches(case), f"{family} fixture {i} off by more than 1e-3")

    _check(
        failures,
        round(bonferroni(0.05, 6), 4) == 0.0083,
        f"bonferroni(0.05, 6) rounds to {round(bonferroni(0.05, 6), 4)}",
    )

    for n in range(2, 6):
        nodes = tuple(f"g{i}" for i in range(n))
        all_pairs = list(combinations(nodes, 2))
        for mask in range(2 ** len(all_pairs)):
            nonsig = {
                frozenset(p) for i, p in enumerate(all_pairs) if mask >> i & 1
            }
            letters = compact_letters(nodes, [tuple(p) for p in nonsig])
            for a, b in all_pairs:
                share = bool(set(letters[a]) & set(letters[b]))
                if share != (frozenset((a, b)) in nonsig):
                    failures.append(f"n={n} mask={mask}: axiom broken on ({a}, {b})")
            used = len(set("".join(letters.values())))
            want = _min_letter_cover(nodes, nonsig)
            if used != want:
                failures.append(f"n={n} mask={mask}: {used} letters, minimum is {want}")
    _verdict(5, "statistics match reference; letter displays are minimal", failures)


# -- 6: reporting golden values
#
# Mean scores (percent) of the two detector families across the eight
# training combinations, column order CANONICAL_HPC_ORDER.

_TABLE_FRCNN = {
    "ap": (58.1, 54.8, 51.7, 41.9, 57.9, 53.6, 49.8, 35.7),
    "ap50": (91.9, 91.6, 82.5, 73.3, 91.8, 91.3, 80.3, 65.7),
    "ap75": (67.8, 60.6, 59.6, 44.8, 67.2, 58.2, 57.4, 34.8),
    "aps": (56.1, 53.3, 50.1, 41.6, 56.0, 52.2, 48.7, 36.3),
    "apm": (69.4, 63.1, 64.7, 53.9, 68.4, 61.5, 62.9, 46.1),
    "ar": (65.1, 62.2, 65.9, 59.5, 65.0, 61.1, 65.6, 55.9),
    "ars": (63.4, 61.0, 64.5, 58.7, 63.4, 60.1, 64.3, 55.5),
    "arm": (74.7, 69.0, 73.8, 64.5, 73.8, 67.2, 73.0, 58.6),
}

_TABLE_YOLO = {
    "ap": (59.3, 56.1, 56.3, 49.9, 58.4, 57.3, 56.2, 51.6),
    "ap50": (90.8, 90.0, 87.1, 79.3, 90.8, 90.7, 87.4, 80.5),
    "ap75": (68.6, 63.9, 64.7, 57.3, 67.4, 65.4, 65.2, 60.2),
    "aps": (56.0, 53.1, 52.9, 46.9, 55.4, 54.4, 53.1, 48.5),
    "apm": (74.4, 70.2, 71.5, 65.0, 72.5, 71.1, 71.1, 67.0),
    "ar": (67.0, 65.1, 67.3, 65.6, 66.2, 65.7, 67.0, 66.4),
    "ars": (64.9, 63.2, 65.4, 63.9, 64.1, 63.8, 65.0, 64.6),
    "arm": (78.7, 75.5, 77.8, 75.2, 77.5, 76.3, 78.1, 76.6),
}


def _golden_table(model: str, rows: dict[str, tuple[float, ...]]) -> AggregateTable:
    cells = {}
    for metric, means in rows.items():
        for hpc, mean in zip(CANONICAL_HPC_ORDER, means):
            cells[(model, hpc, metric)] = AggregateCell(mean / 100.0, 0.02, 25)
    return AggregateTable(
        dataset="field", models=(model,), hpcs=CANONICAL_HPC_ORDER, cells=cells
    )


def test_criterion_6_reporting_reproduces_golden_winners():
    failures: list[str] = []

    frcnn = _golden_table("frcnn", _TABLE_FRCNN)
    got = best_hpc(frcnn, "ap")
    _check(failures, got == ("4_L_p",), f"frcnn ap winner {got}, wanted ('4_L_p',)")

    yolo = _golden_table("yolo", _TABLE_YOLO)
    got = best_hpc(yolo, "ap50")
    _check(
        failures,
        got == ("4_L_p", "16_L_p"),
        f"yolo ap50 winners {got}, wanted the two-way tie in column order",
    )

    rendered = format_cell(AggregateCell(0.581, 0.023, 25), decimal="comma")
    _check(failures, rendered == "58,1±2,3", f"comma rendering {rendered!r}")
    _verdict(6, "golden winners and comma rendering reproduced", failures)


# -- 7: end-to-end pipeline


def _run_pipeline() -> tuple[str, dict[str, str], str]:
    corpus = build_corpus(PRESET_B, n=200, seed=1)
    specs = {
        "alpha": MockDetectorSpec(p_drop=0.05, jitter_sigma=0.3),
        "bravo": MockDetectorSpec(p_drop=0.05, jitter_sigma=0.3),
        "charlie": MockDetectorSpec(p_drop=0.05, jitter_sigma=0.3),
        "delta": MockDetectorSpec(p_drop=0.5, jitter_sigma=0.3),
    }
    results = []
    for mi, (model, spec) in enumerate(specs.items()):
        for run in range(1, 11):
            dets = mock_detect(corpus.dataset, spec, seed=1000 + 17 * mi + run)
            report = evaluate(corpus.dataset, dets)
            results.append(
                RunResult(
                    model=model, hpc="4_L_p", run=run, dataset="synth", metrics=report
                )
            )
    csv_text = write_results_csv(results)
    parsed = read_results_csv(csv_text)
    battery = run_battery(metric_samples(parsed, "ap"))
    figure = emit_significance_figure_data({"ap": battery}, aggregate(parsed))
    return csv_text, dict(battery.letters), figure


def test_criterion_7_end_to_end_pipeline():
    failures: list[str] = []
    t0 = time.perf_counter()
    csv_a, letters_a, figure_a = _run_pipeline()
    csv_b, letters_b, figure_b = _run_pipeline()
    elapsed = time.perf_counter() - t0

    _check(failures, csv_a == csv_b, "results CSV differs between executions")
    _check(failures, letters_a == letters_b, "letters differ between executions")
    _check(failures, figure_a == figure_b, "figure data differs between executions")
    for model in ("alpha", "bravo", "charlie"):
        shared = set(letters_a["delta"]) & set(letters_a[model])
        _check(
            failures,
            not shared,
            f"shifted model shares letter {shared} with {model}: {letters_a}",
        )
    _check(failures, elapsed < 60.0, f"two pipeline executions took {elapsed:.1f} s")
    _verdict(7, "pipeline is deterministic, fast, and separates the shifted model", failures)


# -- 8: preprocessing


def _random_box(rng: np.random.Generator, width: int, height: int) -> tuple:
    x = int(rng.integers(0, width - 1))
    y = int(rng.integers(0, height - 1))
    w = int(rng.integers(1, width - x))
    h = int(rng.integers(1, height - y))
    return (x, y, w, h)


def test_criterion_8_preprocessing_properties():
    failures: list[str] = []

    frame = RawFrame(np.array([[500, 1000, 3000, 3500, 2000]], dtype=np.int16))
    gray = normalize_frame(frame, CalibrationRange(1000.0, 3000.0))
    want = np.array([[0, 0, 255, 255, 128]], dtype=np.uint8)
    _check(
        failures,
        np.array_equal(gray.pixels, want),
        f"normalize endpoints/clamps {gray.pixels.tolist()}",
    )
    rounded = normalize_frame(
        RawFrame(np.array([[1]], dtype=np.int16)), CalibrationRange(0.0, 510.0)
    )
    _check(failures, rounded.pixels[0, 0] == 1, "half-up rounding at 0.5 off")

    rng = np.random.default_rng(88)
    for i in range(1000):
        h, w = (int(v) for v in rng.integers(4, 25, 2))
        img = rng.integers(-2000, 2000, (h, w)).astype(np.int16)
        boxes = np.array(
            [_random_box(rng, w, h) for _ in range(int(rng.integers(1, 4)))],
            dtype=np.float64,
        )
        for axis in ("horizontal", "vertical"):
            img1, boxes1 = flip(img, boxes, axis)
            img2, boxes2 = flip(img1, boxes1, axis)
            if not (np.array_equal(img2, img) and np.array_equal(boxes2, boxes)):
                failures.append(f"frame {i}: {axis} flip is not an involution")
        img0, boxes0 = rotate(img, boxes, 0.0)
        if not (np.array_equal(img0, img) and np.array_equal(boxes0, boxes)):
            failures.append(f"frame {i}: rotate(0) is not the identity")

    base = np.random.default_rng(5).integers(-500, 500, (16, 16)).astype(np.int16)
    base_boxes = np.array([[2.0, 3.0, 5.0, 4.0]])
    changed = 0
    policy = AugmentPolicy()
    for seed in range(10000):
        out, out_boxes = augment_sample(base, base_boxes, policy, rng_seed=seed)
        if not (np.array_equal(out, base) and np.array_equal(out_boxes, base_boxes)):
            changed += 1
    rate = changed / 10000
    _check(
        failures,
        abs(rate - 0.488) <= 0.015,
        f"any-transform rate {rate:.4f}, outside 0.488 +/- 0.015",
    )
    _verdict(8, "normalization exact; geometry involutive; augment rate on target", failures)
