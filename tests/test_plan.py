from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval.plan import (
    HPC,
    PlanError,
    hpc_grid,
    plan_splits,
    read_plan,
    select_best_epoch,
    write_plan,
)
from thermeval.report import CANONICAL_HPC_ORDER


# -- the configuration grid


def test_hpc_names_encode_all_fields():
    assert HPC(16, "original", "pretrained").name == "16_L_p"
    assert HPC(4, "reduced", "untrained").name == "4_l_u"


def test_hpc_name_round_trip():
    for hpc in hpc_grid():
        assert HPC.from_name(hpc.name) == hpc


def test_hpc_grid_has_eight_unique_cells():
    grid = hpc_grid()
    assert len(grid) == 8
    assert len({h.name for h in grid}) == 8


def test_canonical_order_covers_the_grid():
    # report spells the table order out, so the results tail loads no plan
    assert len(CANONICAL_HPC_ORDER) == 8
    assert set(CANONICAL_HPC_ORDER) == {h.name for h in hpc_grid()}
    # table layout: batch-4 block first, pretrained before untrained
    assert CANONICAL_HPC_ORDER[:4] == ("4_L_p", "4_L_u", "4_l_p", "4_l_u")
    assert CANONICAL_HPC_ORDER[4:] == ("16_L_p", "16_L_u", "16_l_p", "16_l_u")


@pytest.mark.parametrize(
    "bad",
    [
        "", "16_L", "16_L_p_x", "7_L_p", "16_X_p", "16_L_z",
        # int() once read each of these as a batch size of the grid
        " 4_L_p", "+4_L_p", "\u0664_L_p", "016_L_p",
    ],
)
def test_hpc_from_name_rejects_malformed(bad):
    with pytest.raises(PlanError):
        HPC.from_name(bad)


def test_hpc_rejects_unknown_batch_size():
    with pytest.raises(PlanError):
        HPC(8, "original", "pretrained")


@pytest.mark.parametrize(
    "weighting, status, message",
    [
        ("x", "pretrained", "loss_weighting must be one of ('original', 'reduced'), got 'x'"),
        ("original", "x", "training_status must be one of ('pretrained', 'untrained'), got 'x'"),
    ],
)
def test_hpc_rejects_an_unknown_weighting_or_status(weighting, status, message):
    with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
        HPC(16, weighting, status)


@pytest.mark.parametrize(
    "batch", [16.0, True, "16", np.int64(16)], ids=["float", "bool", "str", "numpy"]
)
def test_hpc_rejects_a_batch_size_that_is_not_an_int(batch):
    # 16.0 once made a combination named 16.0_L_p
    message = f"^batch_size must be an integer, got {re.escape(repr(batch))}$"
    with pytest.raises(PlanError, match=message):
        HPC(batch, "original", "pretrained")


# -- nested split plans


def test_plan_shape_and_fold_sizes():
    plan = plan_splits(range(1, 1001), k_outer=5, k_inner=5, seed=0)
    assert len(plan.runs) == 25
    for run in plan.runs:
        assert len(run.test_ids) == 200
        assert len(run.val_ids) == 160
        assert len(run.train_ids) == 640


def test_plan_runs_partition_the_pool():
    ids = list(range(1, 101))
    plan = plan_splits(ids, k_outer=4, k_inner=3, seed=5)
    assert len(plan.runs) == 12
    for run in plan.runs:
        train, val, test = set(run.train_ids), set(run.val_ids), set(run.test_ids)
        assert not train & val
        assert not train & test
        assert not val & test
        assert train | val | test == set(ids)


def test_plan_outer_test_fold_is_shared_across_inner_runs():
    plan = plan_splits(range(60), k_outer=3, k_inner=2, seed=1)
    by_outer = {}
    for run in plan.runs:
        by_outer.setdefault(run.outer_fold, set()).add(run.test_ids)
    assert all(len(tests) == 1 for tests in by_outer.values())
    # the outer test folds are themselves a partition
    folds = [next(iter(t)) for t in by_outer.values()]
    assert sorted(v for fold in folds for v in fold) == list(range(60))


def test_plan_is_deterministic_and_seed_sensitive():
    a = plan_splits(range(200), seed=7)
    b = plan_splits(range(200), seed=7)
    c = plan_splits(range(200), seed=8)
    assert a == b
    assert a != c


def test_plan_deduplicates_ids():
    plan = plan_splits([1, 1, 2, 3, 4] + list(range(5, 60)), k_outer=3, k_inner=3)
    run = plan.runs[0]
    assert len(run.train_ids) + len(run.val_ids) + len(run.test_ids) == 59


@pytest.mark.parametrize(
    "ids, bad",
    [
        ([i + 0.5 for i in range(25)], 0.5),  # int() would read these as 0, 1, ...
        ([True, *range(2, 26)], True),
        ("0123456789", "0123456789"),  # would iterate as ten one-digit ids
        (b"0123456789", b"0123456789"),
    ],
    ids=["float", "bool", "str", "bytes"],
)
def test_plan_rejects_ids_that_are_not_integers(ids, bad):
    message = f"^image id must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(PlanError, match=message):
        plan_splits(ids, k_outer=2, k_inner=2)


def test_plan_takes_numpy_integer_ids():
    plan = plan_splits(np.arange(1, 11, dtype=np.int32), k_outer=2, k_inner=2, seed=4)
    assert plan == plan_splits(range(1, 11), k_outer=2, k_inner=2, seed=4)
    assert {type(i) for run in plan.runs for i in run.train_ids} == {int}


@pytest.mark.parametrize("k_outer,k_inner", [(1, 5), (5, 1), (0, 0), (2.0, 2), (2, 2.5), (True, 2)])
def test_plan_rejects_degenerate_folds(k_outer, k_inner):
    with pytest.raises(PlanError):
        plan_splits(range(100), k_outer=k_outer, k_inner=k_inner)


@pytest.mark.parametrize("seed", [1.5, True, "1", None], ids=["float", "bool", "str", "none"])
def test_plan_rejects_a_seed_that_is_not_an_int(seed):
    # True was planned as seed 1, which read_plan then rejected
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(PlanError, match=message):
        plan_splits(range(100), k_outer=2, k_inner=2, seed=seed)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_plan_rejects_a_negative_seed(seed):
    # numpy's generator raised its own ValueError, which named no seed
    with pytest.raises(PlanError, match=f"^seed must be non-negative, got {seed}$"):
        plan_splits(range(20), 2, 2, seed)


def test_read_plan_rejects_a_negative_seed():
    # plan_splits refuses the seed, so a plan file that holds it is malformed
    doc = json.loads(write_plan(plan_splits(range(20), 2, 2, seed=3)))
    doc["seed"] = -1
    message = "^malformed plan document: seed must be non-negative, got -1$"
    with pytest.raises(PlanError, match=message):
        read_plan(json.dumps(doc))


def test_plan_rejects_pool_too_small():
    with pytest.raises(PlanError):
        plan_splits(range(20), k_outer=5, k_inner=5)


def test_plan_round_trip():
    plan = plan_splits(range(70), k_outer=3, k_inner=2, seed=99)
    assert read_plan(write_plan(plan)) == plan


@given(
    n=st.integers(min_value=4, max_value=60),
    k_outer=st.integers(min_value=2, max_value=4),
    k_inner=st.integers(min_value=2, max_value=4),
    # a seed is any integer numpy takes, not only a 64-bit id
    seed=st.just(2**70) | st.integers(min_value=0, max_value=2**80),
)
@settings(max_examples=30, deadline=None)
def test_plan_round_trips_any_seed(n, k_outer, k_inner, seed):
    plan = plan_splits(range(max(n, k_outer * k_inner)), k_outer, k_inner, seed)
    assert read_plan(write_plan(plan)) == plan


def test_read_plan_rejects_malformed():
    with pytest.raises(PlanError):
        read_plan("{not json")
    with pytest.raises(PlanError, match="malformed plan document"):
        read_plan(b"\xff\xfe\x00")  # decodes as no UTF-8/16/32 text
    with pytest.raises(PlanError, match="^malformed plan document: malformed JSON: Exceeds"):
        read_plan(f'{{"seed": {"9" * 5000}}}')  # more digits than json reads
    with pytest.raises(PlanError):
        read_plan('{"seed": 0}')
    # a run whose val ids overlap its test ids
    doc = json.loads(write_plan(plan_splits(range(70), k_outer=3, k_inner=2, seed=99)))
    doc["runs"][0]["val"].append(doc["runs"][0]["test"][0])
    with pytest.raises(PlanError, match="overlap"):
        read_plan(json.dumps(doc))
    # every number must be a JSON integer: int() would read these as 3, 0, 1 and (9, 8, 7)
    valid = json.loads(write_plan(plan_splits(range(70), k_outer=3, k_inner=2, seed=99)))
    cases = [
        (("runs", 0, "train", 0), 3.9),
        (("seed",), 0.5),
        (("k_outer",), True),
        (("runs", 0, "val"), "987"),
        (("runs", 1, "outer_fold"), "1"),
        (("k_inner",), float("inf")),
        (("runs", 0, "test", 0), float("-inf")),
        (("runs", 0, "inner_fold"), float("nan")),
    ]
    for path, bad in cases:
        doc = json.loads(json.dumps(valid))
        *parents, leaf = path
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = bad
        with pytest.raises(PlanError, match="malformed plan document"):
            read_plan(json.dumps(doc))


def _swap_a_test_id_into_train(doc):
    run = doc["runs"][1]  # (0, 1): the pool holds, the test ids move off (0, 0)'s
    run["test"][0], run["train"][0] = run["train"][0], run["test"][0]


def _copy_outer_fold_0_over_fold_1(doc):
    # every run still covers the pool and shares its fold's test ids
    for inner in range(2):
        doc["runs"][2 + inner] = {**doc["runs"][inner], "outer_fold": 1}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(k_outer=-3), r"^fold counts must be at least 2, got -3/2$"),
        (
            lambda d: d["runs"][2].update(outer_fold=9),
            r"^run 3 is fold pair \(9, 0\), expected \(1, 0\)$",
        ),
        (lambda d: d.update(runs=d["runs"][:1]), r"^1 runs in a 2x2 plan$"),
        (  # a plan file's fold counts can be far larger than its list of runs
            lambda d: d.update(k_outer=10**18),
            r"^4 runs in a 1000000000000000000x2 plan$",
        ),
        (  # 9 test entries for 8 ids: a set of them hides the repeat
            lambda d: d["runs"][0]["test"].append(d["runs"][0]["test"][0]),
            r"^run \(0, 0\): train, val and test ids overlap or repeat$",
        ),
        (
            _swap_a_test_id_into_train,
            r"^run \(0, 1\): its test ids are not those of run \(0, 0\)$",
        ),
        (
            lambda d: d["runs"][3]["train"].pop(),
            r"^run \(1, 1\): its ids are not the pool of run \(0, 0\)$",
        ),
        (_copy_outer_fold_0_over_fold_1, r"^the outer test folds do not partition the pool$"),
    ],
    ids=[
        "fold-count", "fold-pair", "run-count", "huge-fold-count", "repeated-id", "test-fold",
        "pool", "partition",
    ],
)
def test_read_plan_rejects_a_plan_plan_splits_cannot_write(edit, message):
    doc = json.loads(write_plan(plan_splits(range(16), 2, 2, seed=4)))
    edit(doc)
    with pytest.raises(PlanError, match=message):
        read_plan(json.dumps(doc))


@given(
    n=st.integers(min_value=30, max_value=120),
    k_outer=st.integers(min_value=2, max_value=5),
    k_inner=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_plan_partition_property(n, k_outer, k_inner, seed):
    if n < k_outer * k_inner:
        n = k_outer * k_inner
    plan = plan_splits(range(n), k_outer=k_outer, k_inner=k_inner, seed=seed)
    assert len(plan.runs) == k_outer * k_inner
    for run in plan.runs:
        parts = set(run.train_ids) | set(run.val_ids) | set(run.test_ids)
        assert parts == set(range(n))
        assert len(run.train_ids) + len(run.val_ids) + len(run.test_ids) == n


# -- epoch selection


def test_select_best_epoch_is_one_based():
    assert select_best_epoch([0.1, 0.5, 0.3]) == 2


def test_select_best_epoch_breaks_ties_early():
    assert select_best_epoch([0.2, 0.7, 0.7, 0.1]) == 2


def test_select_best_epoch_flat_log_collapses_to_first():
    assert select_best_epoch([0.4] * 12) == 1


def test_select_best_epoch_rejects_empty():
    with pytest.raises(PlanError):
        select_best_epoch([])
    with pytest.raises(PlanError):
        select_best_epoch([float("nan"), 0.1, 0.9])
