"""Leaf-mutation fuzz of the JSON readers.

Each case starts from a valid document and replaces one leaf or subtree
(the root included) with an arbitrary JSON value, NaN, +-Infinity and
integers too large for a float among them.  The reader must either
return a value or raise its module's error, never anything else.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval.coco import DatasetError, parse_coco, parse_detections
from thermeval.plan import PlanError, plan_splits, read_plan, write_plan
from thermeval.synth import SynthError, parse_distractors

_GT = {
    "images": [
        {"id": 1, "file_name": "a.raw", "width": 64, "height": 48},
        {"id": 2, "file_name": "b.raw", "width": 64, "height": 48},
    ],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 2, 10, 20], "area": 200},
        {"id": 2, "image_id": 2, "category_id": 1, "bbox": [0.5, 0, 3, 4], "iscrowd": 1},
    ],
    "categories": [{"id": 1, "name": "puddle"}],
}
_DETS = [
    {"image_id": 1, "category_id": 1, "bbox": [1.5, 2, 10, 20], "score": 0.9},
    {"image_id": 2, "category_id": 1, "bbox": [0, 0, 3, 4], "score": 1},
]
_PLAN = json.loads(write_plan(plan_splits(range(8), k_outer=2, k_inner=2, seed=3)))
_DISTRACTORS = {"1": [[5, 6, 40, 30], [0, 0, 2, 2.5]], "2": []}

_GT_DATASET = parse_coco(json.dumps(_GT))

_CASES = {
    "parse_coco": (_GT, parse_coco, DatasetError),
    "parse_detections": (_DETS, lambda text: parse_detections(text, _GT_DATASET), DatasetError),
    "read_plan": (_PLAN, read_plan, PlanError),
    "parse_distractors": (_DISTRACTORS, parse_distractors, SynthError),
}

# values that a lax reader could take for a number, or that overflow a float
_EDGES = (
    float("nan"), float("inf"), float("-inf"), 2**63, -(2**63) - 1, 10**400, -(10**400),
    True, False, None, 0.5, -1, "7", "0.5", "nan", "",
)
_leaves = st.one_of(st.sampled_from(_EDGES), st.integers(), st.floats(), st.text(max_size=6))
# half leaves: left alone, the recursive strategy draws mostly lists and objects
_json_values = _leaves | st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The path of every node in a JSON tree, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", sorted(_CASES))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reader_returns_or_raises_its_own_error(name, data):
    doc, read, error = _CASES[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(_json_values, label="value")
    try:
        read(json.dumps(_replaced(doc, path, value)))
    except error:
        pass


@pytest.mark.parametrize("name", sorted(_CASES))
def test_reader_rejects_deep_nesting_with_its_own_error(name):
    # json.loads gives up on nesting this deep with a RecursionError
    _, read, error = _CASES[name]
    with pytest.raises(error, match="malformed"):
        read("[" * 100_000)


def _with_first_key_repeated(doc) -> str:
    """``doc`` as JSON, with the first member of its first object written twice."""
    obj = next(node for node in _nodes(doc) if isinstance(node, dict))
    key, value = next(iter(obj.items()))
    return json.dumps(doc).replace("{", "{" + json.dumps({key: value})[1:-1] + ", ", 1)


def _nodes(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _nodes(child)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_reader_rejects_a_repeated_key_with_its_own_error(name):
    # json.loads alone keeps the last of two equal keys without a word
    doc, read, error = _CASES[name]
    read(json.dumps(doc))
    with pytest.raises(error, match="malformed.*repeated key"):
        read(_with_first_key_repeated(doc))


@pytest.mark.parametrize(
    "read, text, error",
    [
        (parse_distractors, '{"1": [[1, 2, 3, 4]], "1": []}', SynthError),
        (parse_coco, json.dumps(_GT).replace('"bbox"', '"bbox": [0, 0, 1, 1], "bbox"', 1),
         DatasetError),
    ],
    ids=["distractor image", "annotation bbox"],
)
def test_a_repeated_key_deep_in_a_document_is_rejected(read, text, error):
    with pytest.raises(error, match="repeated key"):
        read(text)
