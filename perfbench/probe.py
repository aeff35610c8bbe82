"""Child process for set-up timing and for the program's peak memory.

A set-up kind prints ``time.monotonic()`` once the named workload is ready
for its first operation.  The parent reads the clock just before starting
the child, so the difference covers interpreter start, imports and any
set-up work (the clock is system-wide on Linux).

    python perfbench/probe.py bare
    python perfbench/probe.py crowded_eval
    python perfbench/probe.py cv_protocol GT_JSON SEED
    python perfbench/probe.py cli_import

A scoring kind does the workload's scoring as a user of the library
would, from files, and prints ``maxrss_kb N``: the peak resident set of
this process, which holds nothing of the benchmark's.

    python perfbench/probe.py cv_score GT_JSON SEED DETS_DIR
    python perfbench/probe.py crowded_score GT_JSON DETS_JSON...

``cv_score`` scores every ``runNN_*.json`` in ``DETS_DIR`` on the test fold
of plan run ``NN``.  ``src`` must be on PYTHONPATH for every kind except
``bare``.
"""

import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "crowded_eval":
        from thermeval.coco import parse_coco, parse_detections  # noqa: F401
        from thermeval.metrics import evaluate  # noqa: F401
    elif kind in ("cv_protocol", "cv_score"):
        from thermeval.coco import parse_coco, parse_detections
        from thermeval.metrics import evaluate
        from thermeval.plan import plan_splits
        from thermeval.report import aggregate  # noqa: F401
        from thermeval.stats import run_battery  # noqa: F401

        gt = parse_coco(Path(argv[1]).read_bytes())
        plan = plan_splits(gt.image_ids(), 5, 5, int(argv[2]))
        if kind == "cv_score":
            reports = []  # kept, as the protocol keeps them for its tables
            for path in sorted(Path(argv[3]).glob("run*.json")):
                fold = gt.subset(plan.runs[int(path.name[3:5]) - 1].test_ids)
                reports.append(evaluate(fold, parse_detections(path.read_bytes(), fold)))
    elif kind == "crowded_score":
        from thermeval.coco import parse_coco, parse_detections
        from thermeval.metrics import evaluate

        gt = parse_coco(Path(argv[1]).read_bytes())
        for path in argv[2:]:
            evaluate(gt, parse_detections(Path(path).read_bytes(), gt))
    elif kind == "cli_import":
        import thermeval.cli  # noqa: F401
    elif kind != "bare":
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    if kind.endswith("_score"):
        print(f"maxrss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
