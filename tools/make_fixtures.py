#!/usr/bin/env python3
"""Regenerate the stored oracle fixtures under tests/data/.

Everything here is an independent reference route: the detection-metric
evaluator below is a deliberately plain re-derivation of the evaluation
protocol (pure Python, explicit loops), and the statistics expectations
come from scipy's reference routines plus a rank-arithmetic Dunn
implementation validated through the two-group Kruskal-Wallis identity.
The package under src/ is imported only to cross-check, never to
produce an expected value.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

# COCO's recall grid; equal to np.linspace(0, 1, 101), unlike i / 100 at ten points
RECALL_SAMPLES = [i * 0.01 for i in range(100)] + [1.0]


# --------------------------------------------------------------------------
# reference detection evaluator (independent route, plain Python)


def ref_iou(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix1 = max(ax, bx)
    iy1 = max(ay, by)
    ix2 = min(ax + aw, bx + bw)
    iy2 = min(ay + ah, by + bh)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    if union <= 0:
        return 0.0
    return inter / union


def ref_size_class(area):
    if area <= 1024.0:
        return "small"
    if area <= 9216.0:
        return "medium"
    return "large"


def _ref_match(gts, gt_ignore, dets, thr):
    """Greedy assignment for one image; returns per-detection outcome.

    Outcomes: ("tp", None), ("absorbed", None), ("fp", None).  Detections
    arrive score-sorted.  Each ignore region absorbs at most one
    detection.
    """
    taken = set()
    outcomes = []
    for d in dets:
        best = None
        best_v = -1.0
        best_id = None
        for gi, g in enumerate(gts):
            if gt_ignore[gi] or gi in taken:
                continue
            v = ref_iou(d["bbox"], g["bbox"])
            if v < thr:
                continue
            if v > best_v or (v == best_v and g["id"] < best_id):
                best, best_v, best_id = gi, v, g["id"]
        if best is not None:
            taken.add(best)
            outcomes.append("tp")
            continue
        best = None
        best_v = -1.0
        best_id = None
        for gi, g in enumerate(gts):
            if not gt_ignore[gi] or gi in taken:
                continue
            v = ref_iou(d["bbox"], g["bbox"])
            if v < thr:
                continue
            if v > best_v or (v == best_v and g["id"] < best_id):
                best, best_v, best_id = gi, v, g["id"]
        if best is not None:
            taken.add(best)
            outcomes.append("absorbed")
        else:
            outcomes.append("fp")
    return outcomes


def _ref_curve(entries, npig):
    """101-point interpolated precision samples and final recall.

    entries: (score, kind) in corpus construction order, kind one of
    "tp", "fp", "ignored".
    """
    order = sorted(range(len(entries)), key=lambda i: -entries[i][0])
    tp = 0
    fp = 0
    rc = []
    pr = []
    for i in order:
        kind = entries[i][1]
        if kind == "tp":
            tp += 1
        elif kind == "fp":
            fp += 1
        rc.append(tp / npig)
        pr.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
    for i in range(len(pr) - 1, 0, -1):
        if pr[i] > pr[i - 1]:
            pr[i - 1] = pr[i]
    sampled = []
    for s in RECALL_SAMPLES:
        idx = None
        for i, r in enumerate(rc):
            if r >= s:
                idx = i
                break
        sampled.append(pr[idx] if idx is not None else 0.0)
    final = rc[-1] if rc else 0.0
    return sampled, final


def ref_evaluate(gt, dets, thresholds, max_dets=100):
    images = sorted(gt["images"], key=lambda im: im["id"])
    cats = sorted(gt["categories"], key=lambda c: c["id"])
    anns_by = {}
    for a in gt["annotations"]:
        anns_by.setdefault((a["image_id"], a["category_id"]), []).append(a)
    dets_by = {}
    for i, d in enumerate(dets):
        dets_by.setdefault((d["image_id"], d["category_id"]), []).append((i, d))

    strata = ("all", "small", "medium")
    # per stratum: list over defined categories of (per-thr sampled precision, per-thr recall)
    tables = {s: [] for s in strata}
    for cat in cats:
        work = []
        for im in images:
            g = anns_by.get((im["id"], cat["id"]), [])
            cand = dets_by.get((im["id"], cat["id"]), [])
            cand = sorted(cand, key=lambda t: (-t[1]["score"], t[0]))[:max_dets]
            d = [c[1] for c in cand]
            if not g and not d:
                continue
            work.append((g, d))
        for stratum in strata:
            npig = 0
            for g, _ in work:
                for a in g:
                    ignored = bool(a.get("ignore")) or (
                        stratum != "all"
                        and ref_size_class(a["bbox"][2] * a["bbox"][3]) != stratum
                    )
                    if not ignored:
                        npig += 1
            if npig == 0:
                continue
            per_thr_prec = []
            per_thr_rec = []
            for thr in thresholds:
                entries = []
                for g, d in work:
                    gt_ignore = [
                        bool(a.get("ignore"))
                        or (
                            stratum != "all"
                            and ref_size_class(a["bbox"][2] * a["bbox"][3]) != stratum
                        )
                        for a in g
                    ]
                    outcomes = _ref_match(g, gt_ignore, d, thr)
                    for det, outcome in zip(d, outcomes):
                        if outcome == "tp":
                            kind = "tp"
                        elif outcome == "absorbed":
                            kind = "ignored"
                        else:
                            det_area = det["bbox"][2] * det["bbox"][3]
                            if stratum != "all" and ref_size_class(det_area) != stratum:
                                kind = "ignored"
                            else:
                                kind = "fp"
                        entries.append((det["score"], kind))
                sampled, final = _ref_curve(entries, npig)
                per_thr_prec.append(sampled)
                per_thr_rec.append(final)
            tables[stratum].append((per_thr_prec, per_thr_rec))

    def mean_ap(stratum, thr_index=None):
        rows = tables[stratum]
        if not rows:
            return -1.0
        vals = []
        for per_thr_prec, _ in rows:
            if thr_index is None:
                for sampled in per_thr_prec:
                    vals.extend(sampled)
            else:
                vals.extend(per_thr_prec[thr_index])
        return sum(vals) / len(vals)

    def mean_ar(stratum):
        rows = tables[stratum]
        if not rows:
            return -1.0
        vals = []
        for _, per_thr_rec in rows:
            vals.extend(per_thr_rec)
        return sum(vals) / len(vals)

    i50 = next(i for i, t in enumerate(thresholds) if abs(t - 0.50) < 1e-9)
    i75 = next(i for i, t in enumerate(thresholds) if abs(t - 0.75) < 1e-9)
    return {
        "ap": mean_ap("all"),
        "ap50": mean_ap("all", i50),
        "ap75": mean_ap("all", i75),
        "aps": mean_ap("small"),
        "apm": mean_ap("medium"),
        "ar": mean_ar("all"),
        "ars": mean_ar("small"),
        "arm": mean_ar("medium"),
    }


def ref_image_counts(gt, dets, thresholds, max_dets=100):
    """Per-image [TP, FP, absorbed, missed GT] counts over all categories.

    Returns counts[s][t][i] for stratum s in (all, small, medium),
    threshold index t and image i in id order.  Detections are capped per
    (image, category) as in ``ref_evaluate``; an unmatched detection
    outside the stratum's size class is ignored there, so it is no FP.
    """
    images = sorted(im["id"] for im in gt["images"])
    cats = sorted(c["id"] for c in gt["categories"])
    anns_by = {}
    for a in gt["annotations"]:
        anns_by.setdefault((a["image_id"], a["category_id"]), []).append(a)
    dets_by = {}
    for i, d in enumerate(dets):
        dets_by.setdefault((d["image_id"], d["category_id"]), []).append((i, d))

    def outside(bbox, stratum):
        return stratum != "all" and ref_size_class(bbox[2] * bbox[3]) != stratum

    counts = []
    for stratum in ("all", "small", "medium"):
        per_thr = []
        for thr in thresholds:
            per_img = []
            for im in images:
                c = [0, 0, 0, 0]
                for cat in cats:
                    g = anns_by.get((im, cat), [])
                    cand = sorted(dets_by.get((im, cat), []), key=lambda t: (-t[1]["score"], t[0]))
                    d = [det for _, det in cand[:max_dets]]
                    gt_ignore = [bool(a.get("ignore")) or outside(a["bbox"], stratum) for a in g]
                    c[3] += gt_ignore.count(False)
                    for det, outcome in zip(d, _ref_match(g, gt_ignore, d, thr)):
                        if outcome == "tp":
                            c[0] += 1
                            c[3] -= 1
                        elif outcome == "absorbed":
                            c[2] += 1
                        elif not outside(det["bbox"], stratum):
                            c[1] += 1
                per_img.append(c)
            per_thr.append(per_img)
        counts.append(per_thr)
    return counts


# --------------------------------------------------------------------------
# fixture corpus generation


def _gen_corpus(seed):
    """50-image two-category corpus with ignore regions and mock dets."""
    rng = random.Random(seed)
    width, height = 640, 480
    images = [
        {"id": i + 1, "file_name": f"img_{i + 1:04d}.raw", "width": width, "height": height}
        for i in range(50)
    ]
    annotations = []
    detections = []
    ann_id = 1
    for im in images:
        for cat_id in (1, 2):
            for _ in range(rng.randint(0, 4)):
                w = round(rng.uniform(6.0, 110.0), 2)
                h = round(rng.uniform(6.0, 110.0), 2)
                x = round(rng.uniform(0.0, width - w), 2)
                y = round(rng.uniform(0.0, height - h), 2)
                ignore = rng.random() < 0.15
                annotations.append(
                    {
                        "id": ann_id,
                        "image_id": im["id"],
                        "category_id": cat_id,
                        "bbox": [x, y, w, h],
                        "area": w * h,
                        "ignore": int(ignore),
                    }
                )
                ann_id += 1
                # jittered hit most of the time, sometimes dropped
                if rng.random() < 0.85:
                    jx = x + rng.uniform(-4.0, 4.0)
                    jy = y + rng.uniform(-4.0, 4.0)
                    jw = max(w + rng.uniform(-5.0, 5.0), 2.0)
                    jh = max(h + rng.uniform(-5.0, 5.0), 2.0)
                    detections.append(
                        {
                            "image_id": im["id"],
                            "category_id": cat_id,
                            "bbox": [round(jx, 2), round(jy, 2), round(jw, 2), round(jh, 2)],
                            "score": round(rng.uniform(0.3, 1.0), 3),
                        }
                    )
        # random false boxes, possibly duplicated scores across images
        for _ in range(rng.randint(0, 2)):
            w = round(rng.uniform(5.0, 120.0), 2)
            h = round(rng.uniform(5.0, 120.0), 2)
            detections.append(
                {
                    "image_id": im["id"],
                    "category_id": rng.choice((1, 2)),
                    "bbox": [
                        round(rng.uniform(0.0, width - w), 2),
                        round(rng.uniform(0.0, height - h), 2),
                        w,
                        h,
                    ],
                    "score": round(rng.uniform(0.05, 0.9), 3),
                }
            )
    gt = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": "object_a"}, {"id": 2, "name": "object_b"}],
    }
    return gt, detections


def _stratum_counts(gt):
    """Eligible GT count per (category, stratum)."""
    counts = {}
    for cat in gt["categories"]:
        for stratum in ("all", "small", "medium"):
            n = 0
            for a in gt["annotations"]:
                if a["category_id"] != cat["id"] or a["ignore"]:
                    continue
                cls = ref_size_class(a["bbox"][2] * a["bbox"][3])
                if stratum == "all" or cls == stratum:
                    n += 1
            counts[(cat["id"], stratum)] = n
    return counts


def make_metric_fixture():
    # the sampling grid equality argument needs every eligible count
    # coprime to 100, so keep drawing corpora until that holds
    thresholds = [0.5 + 0.05 * i for i in range(10)]
    # use the same doubles as the production sweep
    import numpy as np

    thresholds = [float(t) for t in np.linspace(0.5, 0.95, 10)]
    for seed in range(1000):
        gt, dets = _gen_corpus(seed)
        counts = _stratum_counts(gt)
        if all(n > 0 and math.gcd(n, 100) == 1 for n in counts.values()):
            break
    else:
        raise RuntimeError("no corpus satisfied the coprime constraint")
    print(f"metric corpus: seed={seed} eligible counts={counts}")
    expected = ref_evaluate(gt, dets, thresholds, max_dets=100)
    print("reference metrics:", json.dumps(expected, indent=2))

    (DATA_DIR / "ref_eval_gt.json").write_text(json.dumps(gt, indent=2) + "\n")
    (DATA_DIR / "ref_eval_dets.json").write_text(json.dumps(dets, indent=2) + "\n")
    (DATA_DIR / "ref_eval_expected.json").write_text(
        json.dumps(
            {"thresholds": thresholds, "max_dets": 100, "metrics": expected}, indent=2
        )
        + "\n"
    )

    # cross-check the production route; a disagreement means one side
    # misreads the protocol and must be debugged before freezing
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from thermeval.coco import parse_coco, parse_detections
    from thermeval.metrics import evaluate

    ds = parse_coco(json.dumps(gt))
    parsed = parse_detections(json.dumps(dets), ds)
    got = evaluate(ds, parsed, thresholds, 100).as_dict()
    worst = max(abs(got[k] - expected[k]) for k in expected)
    print(f"production-route cross-check: max abs diff = {worst:.3e}")
    if worst > 1e-9:
        for k in expected:
            print(f"  {k}: ref={expected[k]!r} prod={got[k]!r}")
        raise RuntimeError("routes disagree; investigate before freezing")


# --------------------------------------------------------------------------
# statistics fixtures (scipy as the reference oracle)


def ref_dunn(groups):
    """Rank-based pairwise z statistics with tie correction.

    Independent of the package: pooled midranks via scipy.stats.rankdata,
    variance N(N+1)/12 - sum(t^3-t)/(12(N-1)), two-sided normal p.
    """
    import numpy as np
    from scipy.stats import norm, rankdata

    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    n = pooled.size
    ranks = rankdata(pooled)
    sizes = [len(g) for g in groups]
    mean_ranks = []
    start = 0
    for size in sizes:
        mean_ranks.append(float(np.mean(ranks[start : start + size])))
        start += size
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    var = n * (n + 1) / 12.0 - tie_term / (12.0 * (n - 1))
    k = len(groups)
    z = [[0.0] * k for _ in range(k)]
    p = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(var * (1.0 / sizes[i] + 1.0 / sizes[j]))
            zij = (mean_ranks[i] - mean_ranks[j]) / se
            z[i][j] = zij
            z[j][i] = -zij
            pij = min(2.0 * float(norm.sf(abs(zij))), 1.0)
            p[i][j] = pij
            p[j][i] = pij
    return z, p


def make_stats_fixtures():
    import numpy as np
    from scipy import stats as sps

    rng = np.random.default_rng(20240817)
    out = {"shapiro": [], "anova": [], "kruskal": [], "welch": [], "dunn": []}

    # -- normality test samples: varied sizes, shapes, and the n=3 branch
    shapiro_samples = [
        rng.normal(0.0, 1.0, 25),
        rng.exponential(1.0, 25),
        rng.uniform(-2.0, 5.0, 12),
        rng.lognormal(0.0, 0.8, 8),
        rng.normal(5.0, 2.0, 40),
        np.array([0.62, 1.41, 2.77]),
        np.round(rng.normal(10.0, 0.5, 25), 1),  # heavy ties from rounding
    ]
    for sample in shapiro_samples:
        w, p = sps.shapiro(sample)
        out["shapiro"].append(
            {"values": [float(v) for v in sample], "w": float(w), "p": float(p)}
        )

    # -- one-way ANOVA
    anova_groups = [
        [list(rng.normal(m, 1.0, 25)) for m in (0.0, 0.1, 0.05, 0.2)],
        [list(rng.normal(m, 1.0, 25)) for m in (0.0, 2.0, 4.0, 6.0)],
        [
            [v + float(e) for v, e in zip([0.0] * 4, rng.normal(0, 1e-6, 4))],
            [v + float(e) for v, e in zip([1.0] * 4, rng.normal(0, 1e-6, 4))],
        ],
        [list(rng.normal(0.0, s, 12)) for s in (0.5, 1.0, 2.0)],
        [list(rng.uniform(0, 1, 10)), list(rng.uniform(0.2, 1.2, 14))],
    ]
    for groups in anova_groups:
        f, p = sps.f_oneway(*groups)
        out["anova"].append(
            {"groups": [[float(v) for v in g] for g in groups], "f": float(f), "p": float(p)}
        )

    # -- Kruskal-Wallis, with and without ties
    kruskal_groups = [
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [list(rng.normal(m, 1.0, 25)) for m in (0.0, 0.5, 3.0, 3.2)],
        [list(np.round(rng.normal(0, 1, 15), 0)) for _ in range(3)],  # many ties
        [list(rng.exponential(s, 20)) for s in (1.0, 1.5, 3.0, 0.5, 2.0)],
        [list(rng.uniform(0, 1, 8)), list(rng.uniform(0.5, 1.5, 9)), [0.2, 0.8, 0.4]],
    ]
    for groups in kruskal_groups:
        h, p = sps.kruskal(*groups)
        out["kruskal"].append(
            {"groups": [[float(v) for v in g] for g in groups], "h": float(h), "p": float(p)}
        )

    # -- Welch two-sample t
    welch_pairs = [
        (rng.normal(0, 1, 25), rng.normal(0.5, 1, 25)),
        (rng.normal(0, 1, 10), rng.normal(0, 3, 30)),
        (rng.normal(5, 0.1, 6), rng.normal(5.2, 2.0, 8)),
        (rng.uniform(0, 1, 15), rng.uniform(0, 1, 15)),
        (rng.normal(-2, 1, 40), rng.normal(2, 1, 5)),
    ]
    for a, b in welch_pairs:
        t, p = sps.ttest_ind(a, b, equal_var=False)
        out["welch"].append(
            {
                "a": [float(v) for v in a],
                "b": [float(v) for v in b],
                "t": float(t),
                "p": float(p),
            }
        )

    # -- Dunn pairwise z; two-group cases double as identity checks
    dunn_groups = [
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
        [list(rng.normal(m, 1.0, 25)) for m in (0.0, 0.5, 3.0, 3.2)],
        [list(np.round(rng.normal(0, 1, 12), 0)) for _ in range(4)],  # ties
        [list(rng.normal(0, 1, 10)), list(rng.normal(4, 1, 14))],
        [list(rng.exponential(s, 9)) for s in (0.5, 1.0, 2.0, 4.0, 8.0)],
    ]
    for groups in dunn_groups:
        z, p = ref_dunn(groups)
        if len(groups) == 2:
            h, _ = sps.kruskal(*groups)
            if abs(z[0][1] ** 2 - h) > 1e-9:
                raise RuntimeError(
                    f"Dunn identity failed: z^2={z[0][1] ** 2!r} vs H={h!r}"
                )
            print(f"dunn 2-group identity ok: z^2={z[0][1] ** 2:.6f} H={h:.6f}")
        out["dunn"].append(
            {"groups": [[float(v) for v in g] for g in groups], "z": z, "p": p}
        )

    (DATA_DIR / "stats_expected.json").write_text(json.dumps(out, indent=2) + "\n")
    print(
        "stats fixtures:",
        {k: len(v) for k, v in out.items()},
    )


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    make_metric_fixture()
    make_stats_fixtures()
    print("fixtures written to", DATA_DIR)


if __name__ == "__main__":
    main()
