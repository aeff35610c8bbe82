"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments, so the
same seed gives byte-identical inputs.  Generation always happens outside
the timed region.  Work counts that later PRs cite (cells, IoU pairs,
capped detections) are computed here from the inputs, not by the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass

import numpy as np

from thermeval.coco import parse_coco, write_coco
from thermeval.metrics import DEFAULT_MAX_DETS
from thermeval.plan import hpc_grid, plan_splits
from thermeval.synth import PRESET_B, MockDetectorSpec, build_corpus, mock_detect

# stratum boundaries of the size classes, in px^2 (32^2 and 96^2)
_SMALL_MAX = 1024.0
_MEDIUM_MAX = 9216.0


def child_seed(*parts: int) -> int:
    """A 32-bit seed derived from the run seed and a position."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class EvalWork:
    """Exact work of one evaluate call, derived from its inputs."""

    dets: int
    gts: int
    cells: int
    capped_dets: int
    iou_pairs: int
    over_cap_cells: int

    def __add__(self, other: "EvalWork") -> "EvalWork":
        return EvalWork(*(a + b for a, b in zip(astuple(self), astuple(other))))


ZERO_WORK = EvalWork(0, 0, 0, 0, 0, 0)


def eval_work(gt_cells: dict, det_cells: dict, max_dets: int = DEFAULT_MAX_DETS) -> EvalWork:
    """Count the work of scoring detections against ground truth.

    Both arguments map an (image, category) cell to its box count.  A
    cell is scored when it holds ground truth or detections; its IoU
    pairs are its capped detections times its ground truth.
    """
    cells = capped = pairs = over = 0
    for key in set(gt_cells) | set(det_cells):
        g = gt_cells.get(key, 0)
        d = det_cells.get(key, 0)
        cells += 1
        c = min(d, max_dets)
        capped += c
        pairs += c * g
        over += d > max_dets
    return EvalWork(
        dets=sum(det_cells.values()),
        gts=sum(gt_cells.values()),
        cells=cells,
        capped_dets=capped,
        iou_pairs=pairs,
        over_cap_cells=over,
    )


def _cell_counts(records) -> dict:
    out: dict = {}
    for r in records:
        key = (r["image_id"], r["category_id"])
        out[key] = out.get(key, 0) + 1
    return out


def _strata_mix(boxes) -> dict[str, float]:
    counts = {"small": 0, "medium": 0, "large": 0}
    for w, h in boxes:
        a = w * h
        counts["small" if a <= _SMALL_MAX else "medium" if a <= _MEDIUM_MAX else "large"] += 1
    total = max(sum(counts.values()), 1)
    return {k: round(v / total, 3) for k, v in counts.items()}


# --------------------------------------------------------------------------
# crowded_eval: many categories, crowded images, ignore regions, all strata


@dataclass(frozen=True)
class CrowdedInputs:
    gt_bytes: bytes
    det_bytes: tuple[bytes, ...]
    work: tuple[EvalWork, ...]
    shape: dict


# Three detector profiles, one detection file each: recall, false boxes
# per present category, and localisation noise in pixels.
_CROWDED_MODELS = ((0.9, 1.0, 1.5), (0.75, 2.0, 3.0), (0.6, 3.0, 5.0))

# box side ranges whose areas fall in the small, medium and large classes
_STRATA_SIDES = ((4.0, 32.0), (33.0, 96.0), (97.0, 200.0))
_STRATA_P = (0.5, 0.35, 0.15)


def _box(rng, width, height):
    lo, hi = _STRATA_SIDES[int(rng.choice(3, p=_STRATA_P))]
    w = float(rng.uniform(lo, hi))
    h = float(rng.uniform(lo, hi))
    x = float(rng.uniform(0.0, width - w))
    y = float(rng.uniform(0.0, height - h))
    return [x, y, w, h]


def crowded_corpus(
    seed: int,
    n_images: int,
    n_categories: int,
    crowded_cells: int,
    crowded_gt: int = 24,
    crowded_dets: tuple[int, int] = (110, 140),
    ignore_share: float = 0.1,
) -> tuple[dict, list[list[dict]]]:
    """COCO ground truth plus one detection list per detector profile.

    Each image holds a few categories with a few boxes each; in
    ``crowded_cells`` randomly chosen (image, category) cells the ground
    truth is dense and the detections exceed the per-cell cap of 100.
    """
    rng = np.random.default_rng(seed)
    width, height = 640, 512
    images = [
        {"id": i + 1, "file_name": f"crowd_{i + 1:05d}.png", "width": width, "height": height}
        for i in range(n_images)
    ]
    categories = [{"id": c + 1, "name": f"class_{c + 1:02d}"} for c in range(n_categories)]
    cells = []
    for img in images:
        k = min(1 + int(rng.poisson(2.0)), n_categories)
        for cat in sorted(rng.choice(n_categories, size=k, replace=False).tolist()):
            cells.append((img["id"], cat + 1, 1 + int(rng.poisson(1.5))))
    crowded = set(rng.choice(len(cells), size=min(crowded_cells, len(cells)), replace=False).tolist())

    annotations = []
    gt_by_cell = []
    for ci, (image_id, cat_id, n_gt) in enumerate(cells):
        if ci in crowded:
            n_gt = crowded_gt
        boxes = []
        for _ in range(n_gt):
            box = _box(rng, width, height)
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "category_id": cat_id,
                "bbox": box,
                "area": box[2] * box[3],
                "ignore": int(rng.random() < ignore_share),
            })
            boxes.append(box)
        gt_by_cell.append(boxes)

    det_lists = []
    for mi, (recall, fp_rate, sigma) in enumerate(_CROWDED_MODELS):
        mrng = np.random.default_rng(child_seed(seed, 1000 + mi))
        dets = []
        for ci, (image_id, cat_id, _) in enumerate(cells):
            for x, y, w, h in gt_by_cell[ci]:
                if mrng.random() >= recall:
                    continue
                n = mrng.normal(0.0, sigma, size=4)
                dets.append({
                    "image_id": image_id,
                    "category_id": cat_id,
                    "bbox": [x + n[0], y + n[1], max(w + n[2], 1.0), max(h + n[3], 1.0)],
                    "score": float(mrng.uniform(0.3, 1.0)),
                })
            n_fp = int(mrng.poisson(fp_rate))
            if ci in crowded:
                n_fp = int(mrng.integers(*crowded_dets))
            for _ in range(n_fp):
                dets.append({
                    "image_id": image_id,
                    "category_id": cat_id,
                    "bbox": _box(mrng, width, height),
                    "score": float(mrng.uniform(0.01, 0.8)),
                })
        det_lists.append(dets)
    gt = {"images": images, "annotations": annotations, "categories": categories}
    return gt, det_lists


def crowded_inputs(seed: int, n_images: int, n_categories: int, crowded_cells: int) -> CrowdedInputs:
    gt, det_lists = crowded_corpus(seed, n_images, n_categories, crowded_cells)
    gt_bytes = json.dumps(gt).encode()
    det_bytes = tuple(json.dumps(d).encode() for d in det_lists)
    gt_cells = _cell_counts(gt["annotations"])
    work = tuple(eval_work(gt_cells, _cell_counts(d)) for d in det_lists)
    shape = {
        "images": n_images,
        "categories": n_categories,
        "gt": len(gt["annotations"]),
        "detections": [w.dets for w in work],
        "cells_over_cap": [w.over_cap_cells for w in work],
        "ignore_share": round(sum(a["ignore"] for a in gt["annotations"]) / len(gt["annotations"]), 3),
        "gt_strata": _strata_mix((a["bbox"][2], a["bbox"][3]) for a in gt["annotations"]),
        "gt_bytes": len(gt_bytes),
        "det_bytes": [len(b) for b in det_bytes],
        "digest": digest(gt_bytes, *det_bytes),
    }
    return CrowdedInputs(gt_bytes, det_bytes, work, shape)


# --------------------------------------------------------------------------
# cv_protocol: synthetic preset-B corpus, 5x5 plan, models x grid x runs

# model name -> miss probability; delta is the deliberately weaker model
CV_MODELS = (("alpha", 0.10), ("bravo", 0.10), ("delta", 0.45))
CV_K = 5


@dataclass(frozen=True)
class CvInputs:
    gt_bytes: bytes
    dets: dict          # (model, hpc name, run) -> tuple[Detection, ...]
    work: dict          # same keys as dets -> EvalWork
    shape: dict


def cv_inputs(seed: int, n_images: int, tracer) -> CvInputs:
    """Ground truth bytes plus every run's detections on its test fold.

    Each (model, combination) pair gets its own mock-detector spec, so
    the combinations differ a little and the best one is well defined.
    """
    with tracer.span("synth.build_corpus"):
        corpus = build_corpus(PRESET_B, n=n_images, seed=seed)
    gt_bytes = write_coco(corpus.dataset).encode()
    # parse back so the folds hold exactly what the workload parses
    gt = parse_coco(gt_bytes)
    plan = plan_splits(gt.image_ids(), CV_K, CV_K, seed)
    test_ids = tuple(run.test_ids for run in plan.runs)
    folds = {ids: gt.subset(ids) for ids in set(test_ids)}
    fold_cells = {
        ids: _cell_counts(
            {"image_id": a.image_id, "category_id": a.category_id} for a in fold.annotations
        )
        for ids, fold in folds.items()
    }
    dets: dict = {}
    work: dict = {}
    for mi, (model, p_drop) in enumerate(CV_MODELS):
        for hi, hpc in enumerate(hpc_grid()):
            spec = MockDetectorSpec(
                p_drop=p_drop + 0.01 * hi,
                p_fp=0.5,
                jitter_sigma=0.3 + 0.1 * hi,
                p_distractor_fp=0.2,
            )
            for ri, ids in enumerate(test_ids):
                with tracer.span("synth.mock_detect"):
                    d = mock_detect(folds[ids], spec, child_seed(seed, mi, hi, ri), corpus.distractors)
                key = (model, hpc.name, ri + 1)
                dets[key] = d
                work[key] = eval_work(
                    fold_cells[ids],
                    _cell_counts({"image_id": x.image_id, "category_id": x.category_id} for x in d),
                )
    total = sum(work.values(), ZERO_WORK)
    shape = {
        "images": n_images,
        "categories": 1,
        "gt": len(gt.annotations),
        "fold_images": sorted({len(ids) for ids in test_ids}),
        "models": len(CV_MODELS),
        "combinations": len(hpc_grid()),
        "runs": len(plan.runs),
        "scored_runs": len(dets),
        "detections": total.dets,
        "cells_over_cap": total.over_cap_cells,
        "gt_strata": _strata_mix((a.bbox.w, a.bbox.h) for a in gt.annotations),
        "gt_bytes": len(gt_bytes),
        "digest": digest(gt_bytes, *(repr(dets[k]).encode() for k in sorted(dets))),
    }
    return CvInputs(gt_bytes, dets, work, shape)


def detections_doc(dets) -> list[dict]:
    """Plain-dict form of Detection records, as the reference evaluator reads them."""
    return [
        {"image_id": d.image_id, "category_id": d.category_id,
         "bbox": d.bbox.as_list(), "score": d.score}
        for d in dets
    ]

