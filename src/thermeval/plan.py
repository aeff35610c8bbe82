"""Experiment planning: the hyperparameter-combination grid, nested
cross-validation split plans, and best-epoch selection.

The split scheme shuffles once per seed, carves the pool into k_outer
near-equal test folds, and partitions each fold's remainder into k_inner
validation folds; every (outer, inner) pair is one run whose training
set is the remainder.  Inner models are evaluated on the outer test fold
directly, so a plan with k_outer = k_inner = 5 yields 25 runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._checks import DatasetError, _check_as, _check_int, _check_seed
from .coco import _as_dict, _as_list, _image_id_set, _load_json, _require

__all__ = [
    "PlanError",
    "HPC",
    "hpc_grid",
    "RunSplit",
    "SplitPlan",
    "plan_splits",
    "write_plan",
    "read_plan",
    "select_best_epoch",
]

_BATCH_SIZES = (16, 4)
_WEIGHTINGS = ("original", "reduced")   # reduced = class weights scaled down 100x
_STATUSES = ("pretrained", "untrained")


class PlanError(ValueError):
    """Raised for invalid grid names or infeasible split requests."""


@dataclass(frozen=True)
class HPC:
    """One training-configuration cell of the 2x2x2 grid."""

    batch_size: int
    loss_weighting: str
    training_status: str

    def __post_init__(self) -> None:
        _check_as(PlanError, _check_int, self.batch_size, "batch_size")
        if self.batch_size not in _BATCH_SIZES:
            raise PlanError(f"batch_size must be one of {_BATCH_SIZES}, got {self.batch_size}")
        if self.loss_weighting not in _WEIGHTINGS:
            raise PlanError(
                f"loss_weighting must be one of {_WEIGHTINGS}, got {self.loss_weighting!r}"
            )
        if self.training_status not in _STATUSES:
            raise PlanError(
                f"training_status must be one of {_STATUSES}, got {self.training_status!r}"
            )

    @property
    def name(self) -> str:
        """Canonical short name: batch, weighting letter, status letter.

        Original weighting is uppercase L, the reduced variant lowercase;
        pretrained is p, untrained u.  Example: ``16_L_p``.
        """
        weight = "L" if self.loss_weighting == "original" else "l"
        status = "p" if self.training_status == "pretrained" else "u"
        return f"{self.batch_size}_{weight}_{status}"

    @classmethod
    def from_name(cls, name: str) -> "HPC":
        """The grid's combination with this canonical name; no other spelling is one."""
        try:
            return next(h for h in hpc_grid() if h.name == name)
        except StopIteration:
            raise PlanError(f"malformed combination name {name!r}") from None


def hpc_grid() -> tuple[HPC, ...]:
    """All eight combinations, pretrained rows first, larger batch first."""
    return tuple(
        HPC(batch, weight, status)
        for status in _STATUSES
        for batch in _BATCH_SIZES
        for weight in _WEIGHTINGS
    )


@dataclass(frozen=True)
class RunSplit:
    """One run of the plan: indexes of its outer/inner fold plus id sets."""

    outer_fold: int
    inner_fold: int
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]
    test_ids: tuple[int, ...]


def _check_folds(k_outer: int, k_inner: int) -> None:
    if k_outer < 2 or k_inner < 2:
        raise PlanError(f"fold counts must be at least 2, got {k_outer}/{k_inner}")


@dataclass(frozen=True)
class SplitPlan:
    """A nested split plan, whose structure is checked on construction.

    ``runs`` holds the k_outer x k_inner (outer, inner) fold pairs in
    outer-major order, so run r (from 1) is ``runs[r - 1]``.  Within a
    run no id repeats in or across train, val and test; every run covers
    the same pool; the runs of an outer fold share its test ids, and the
    outer test folds partition the pool.  Anything else raises
    ``PlanError``, so a plan file can hold only what ``plan_splits`` writes.
    """

    seed: int
    k_outer: int
    k_inner: int
    runs: tuple[RunSplit, ...]

    def __post_init__(self) -> None:
        _check_folds(self.k_outer, self.k_inner)
        if len(self.runs) != self.k_outer * self.k_inner:
            raise PlanError(f"{len(self.runs)} runs in a {self.k_outer}x{self.k_inner} plan")
        first = self.runs[0]
        pool = set(first.train_ids + first.val_ids + first.test_ids)
        tests: dict[int, set[int]] = {}
        for number, r in enumerate(self.runs, start=1):
            pair, got = divmod(number - 1, self.k_inner), (r.outer_fold, r.inner_fold)
            if got != pair:
                raise PlanError(f"run {number} is fold pair {got}, expected {pair}")
            ids = r.train_ids + r.val_ids + r.test_ids
            if len(set(ids)) != len(ids):
                raise PlanError(f"run {pair}: train, val and test ids overlap or repeat")
            if set(ids) != pool:
                raise PlanError(f"run {pair}: its ids are not the pool of run (0, 0)")
            if tests.setdefault(r.outer_fold, set(r.test_ids)) != set(r.test_ids):
                raise PlanError(f"run {pair}: its test ids are not those of run ({pair[0]}, 0)")
        folds = tests.values()
        if sum(map(len, folds)) != len(pool) or set().union(*folds) != pool:
            raise PlanError("the outer test folds do not partition the pool")


def plan_splits(
    image_ids: Iterable[int],
    k_outer: int = 5,
    k_inner: int = 5,
    seed: int = 0,
) -> SplitPlan:
    """Build the full nested split plan; a pure function of its arguments.

    Ids, fold counts and the seed must be integers (a bool, float or
    string is not), and the seed non-negative.  Ids are deduplicated,
    shuffled once with the seeded generator, and divided as described in
    the module docstring.  Within each run the three id sets are disjoint
    and cover the pool.
    """
    try:
        ids = sorted(_image_id_set(image_ids))
        for value, what in ((k_outer, "k_outer"), (k_inner, "k_inner")):
            _check_int(value, what)
        _check_seed(seed)
    except DatasetError as exc:
        raise PlanError(str(exc)) from None
    _check_folds(k_outer, k_inner)
    if len(ids) < k_outer * k_inner:
        raise PlanError(
            f"{len(ids)} ids cannot fill {k_outer}x{k_inner} folds"
        )
    import numpy as np  # only the seeded shuffle needs it; the grid and plan files do not

    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(len(ids))]

    # near-equal contiguous chunks; the remainder goes one per leading chunk
    runs = []
    outer_chunks = [c.tolist() for c in np.array_split(shuffled, k_outer)]
    for oi in range(k_outer):
        test = outer_chunks[oi]
        rest = [v for ci, chunk in enumerate(outer_chunks) if ci != oi for v in chunk]
        inner_chunks = [c.tolist() for c in np.array_split(rest, k_inner)]
        for ii in range(k_inner):
            val = inner_chunks[ii]
            val_set = set(val)
            train = [v for v in rest if v not in val_set]
            runs.append(
                RunSplit(
                    outer_fold=oi,
                    inner_fold=ii,
                    train_ids=tuple(sorted(train)),
                    val_ids=tuple(sorted(val)),
                    test_ids=tuple(sorted(test)),
                )
            )
    return SplitPlan(seed=seed, k_outer=k_outer, k_inner=k_inner, runs=tuple(runs))


def write_plan(plan: SplitPlan) -> str:
    doc = {
        "seed": plan.seed,
        "k_outer": plan.k_outer,
        "k_inner": plan.k_inner,
        "runs": [
            {
                "outer_fold": r.outer_fold,
                "inner_fold": r.inner_fold,
                "train": list(r.train_ids),
                "val": list(r.val_ids),
                "test": list(r.test_ids),
            }
            for r in plan.runs
        ],
    }
    return json.dumps(doc, indent=2)


def read_plan(text: str | bytes) -> SplitPlan:
    """Parse a plan document; every number in it must be a JSON integer.

    The plan must also have the structure ``SplitPlan`` checks, the one
    ``plan_splits`` writes; a plan that breaks it raises ``PlanError``.
    """
    try:
        doc = _as_dict(_load_json(text, "JSON"), "document root")
        runs = []
        for r in _as_list(_require(doc, "runs", "plan"), "runs"):
            r = _as_dict(r, "run")
            folds = (_check_int(_require(r, k, "run"), k) for k in ("outer_fold", "inner_fold"))
            ids = (
                tuple(_check_int(v, f"{k} id") for v in _as_list(_require(r, k, "run"), k))
                for k in ("train", "val", "test")
            )
            runs.append(RunSplit(*folds, *ids))
        seed = _check_seed(_require(doc, "seed", "plan"))
        k_outer, k_inner = (_check_int(_require(doc, k, "plan"), k) for k in ("k_outer", "k_inner"))
    except DatasetError as exc:
        raise PlanError(f"malformed plan document: {exc}") from None
    return SplitPlan(seed, k_outer, k_inner, tuple(runs))


def select_best_epoch(ap_log: Sequence[float]) -> int:
    """1-based epoch with the highest validation AP; ties take the earliest."""
    if len(ap_log) == 0:
        raise PlanError("empty epoch log")
    if not all(map(math.isfinite, ap_log)):
        raise PlanError(f"non-finite validation AP in {list(ap_log)}")
    return max(range(len(ap_log)), key=ap_log.__getitem__) + 1  # max keeps the first maximum
