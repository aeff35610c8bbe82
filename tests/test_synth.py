from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
import pytest

from thermeval.coco import (
    AnnotationRecord,
    BBox,
    CategoryRecord,
    Dataset,
    ImageRecord,
    SizeClass,
    write_detections,
)
from thermeval.metrics import evaluate
from thermeval.synth import (
    PRESET_A,
    PRESET_B,
    PRESETS,
    MockDetectorSpec,
    SceneSpec,
    SynthError,
    build_corpus,
    generate_scene,
    mock_detect,
    parse_distractors,
    write_distractors,
)


def _clean_spec(**kw):
    """Single deterministic puddle, no noise, no distractors."""
    defaults = dict(
        width=200,
        height=200,
        empty_prob=0.0,
        puddle_extra_lambda=0.0,
        puddle_axis=(3.0, 8.0),
        noise_sigma=0.0,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


# -- spec validation


def test_spec_rejects_bad_canvas():
    with pytest.raises(SynthError):
        SceneSpec(width=0)


def test_spec_rejects_bad_empty_prob():
    for bad in (1.5, -0.1):
        with pytest.raises(SynthError, match=rf"^empty_prob {bad} outside \[0, 1\]$"):
            SceneSpec(empty_prob=bad)
    with pytest.raises(SynthError, match="^empty_prob must be a finite number, got nan$"):
        SceneSpec(empty_prob=math.nan)


def test_spec_rejects_objects_larger_than_canvas():
    with pytest.raises(SynthError, match="fit"):
        SceneSpec(width=30, height=30, puddle_axis=(2.0, 20.0))


def test_a_stripe_thinner_than_a_pixel_center_keeps_one_pixel():
    # seed 71 lays one 1 px stripe whose rectangle holds no pixel center
    spec = SceneSpec(
        width=4, height=4, empty_prob=1.0, puddle_axis=(1.0, 1.0), pig_axis=(1.0, 1.0),
        bird_axis=(1.0, 1.0), stripe_count=(1, 1), stripe_thickness=(1.0, 1.0),
        warm_delta=(400.0, 400.0), noise_sigma=0.0,
    )
    scene = generate_scene(spec, 71)
    assert scene.puddles == () and scene.distractors == (BBox(1.0, 1.0, 1.0, 1.0),)
    want = np.full((4, 4), 2000, dtype=np.int16)
    want[1, 1] = 2400
    assert np.array_equal(scene.frame.pixels, want)


def test_spec_rejects_stripes_thicker_than_the_canvas():
    # the default stripe_thickness (3, 8) on a 6 px canvas: build_corpus once
    # failed inside numpy with "high - low < 0"
    small = dict(puddle_axis=(1.0, 2.0), pig_axis=(1.0, 2.0), bird_axis=(1.0, 2.0))
    with pytest.raises(SynthError, match="^stripe_thickness objects do not fit the canvas$"):
        SceneSpec(width=6, height=6, stripe_count=(1, 1), **small)
    spec = SceneSpec(width=8, height=8, stripe_count=(1, 1), **small)
    for seed in range(5):  # a stripe as thick as the canvas still fits
        build_corpus(spec, 4, seed)


def test_spec_rejects_sample_overflow():
    with pytest.raises(SynthError, match="16-bit"):
        SceneSpec(background_level=32000, warm_delta=(400.0, 900.0))


def test_spec_rejects_inverted_count_range():
    with pytest.raises(SynthError):
        SceneSpec(pig_count=(3, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field",
    ["puddle_axis", "pig_axis", "bird_axis", "warm_delta", "stripe_thickness"],
)
def test_spec_rejects_a_non_finite_range(field, bad):
    message = f"^{field} bound must be a finite number, got {bad}$"
    with pytest.raises(SynthError, match=message):
        SceneSpec(**{field: (2.0, bad)})
    with pytest.raises(SynthError, match=message):
        SceneSpec(**{field: (bad, 3.0)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("field", ["puddle_extra_lambda", "noise_sigma"])
def test_spec_rejects_a_non_finite_or_negative_rate(field, bad):
    refusal = "non-negative" if bad < 0 else "a finite number"
    with pytest.raises(SynthError, match=f"^{field} must be {refusal}, got {bad}$"):
        SceneSpec(**{field: bad})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MockDetectorSpec(p_drop=True), "p_drop must be a number, got True"),
        (lambda: MockDetectorSpec(p_fp="1"), "p_fp must be a number, got '1'"),
        (lambda: SceneSpec(empty_prob=True), "empty_prob must be a number, got True"),
        (lambda: SceneSpec(width="64"), "width must be an integer, got '64'"),
        (lambda: SceneSpec(height=480.0), "height must be an integer, got 480.0"),
        (lambda: SceneSpec(pig_count=(0.5, 1.5)), "pig_count bound must be an integer, got 0.5"),
        (lambda: build_corpus(PRESET_A, True, 0), "corpus size must be an integer, got True"),
        (lambda: build_corpus(PRESET_A, "3", 0), "corpus size must be an integer, got '3'"),
    ],
    ids=["p_drop", "p_fp", "empty_prob", "width", "height", "pig_count", "n-bool", "n-str"],
)
def test_specs_and_corpus_size_refuse_values_of_the_wrong_type(make, message):
    # True passed as 1, 0.5 pigs built a corpus, and "64" raised TypeError
    with pytest.raises(SynthError, match=f"^{re.escape(message)}$"):
        make()


def test_presets_are_registered():
    assert PRESETS == {"a": PRESET_A, "b": PRESET_B}


# -- scene generation


def test_scene_is_deterministic():
    spec = _clean_spec(noise_sigma=10.0)
    a = generate_scene(spec, seed=42)
    b = generate_scene(spec, seed=42)
    assert a.puddles == b.puddles
    assert a.frame == b.frame
    assert generate_scene(spec, seed=43).frame != a.frame


def test_preset_b_scene_is_pinned():
    # seed 14 lays out puddles, pigs, stripes and birds; the digest covers
    # the rendered samples and every box
    scene = generate_scene(PRESET_B, seed=14)
    h = hashlib.sha256(scene.frame.pixels.astype("<i2").tobytes())
    boxes = [[b.as_list() for b in scene.puddles], [b.as_list() for b in scene.distractors]]
    h.update(json.dumps(boxes).encode())
    assert len(scene.puddles) == 2 and len(scene.distractors) == 7
    assert h.hexdigest() == "222411a557eb7e3b3cddf6e225437afef0b487cd1369a09f35325ebad4c055c3"


def test_scene_accepts_seed_sequence():
    spec = _clean_spec()
    from_int = generate_scene(spec, seed=5)
    from_ss = generate_scene(spec, np.random.SeedSequence(5))
    assert from_int.puddles == from_ss.puddles


def test_scene_boxes_do_not_depend_on_rendering():
    spec = _clean_spec(noise_sigma=25.0)
    with_frame = generate_scene(spec, seed=9, render=True)
    bare = generate_scene(spec, seed=9, render=False)
    assert bare.frame is None
    assert with_frame.puddles == bare.puddles
    assert with_frame.distractors == bare.distractors


def test_scene_box_matches_warm_pixels_exactly():
    spec = _clean_spec()
    scene = generate_scene(spec, seed=3)
    assert len(scene.puddles) == 1
    warm = scene.frame.pixels > spec.background_level
    rows = np.nonzero(warm.any(axis=1))[0]
    cols = np.nonzero(warm.any(axis=0))[0]
    box = scene.puddles[0]
    assert box.x == float(cols[0])
    assert box.y == float(rows[0])
    assert box.w == float(cols[-1] - cols[0] + 1)
    assert box.h == float(rows[-1] - rows[0] + 1)


def test_empty_scene_is_flat_background():
    spec = _clean_spec(empty_prob=1.0)
    scene = generate_scene(spec, seed=0)
    assert scene.puddles == ()
    assert np.all(scene.frame.pixels == spec.background_level)


def test_noise_free_scene_has_two_levels_per_blob():
    spec = _clean_spec()
    scene = generate_scene(spec, seed=17)
    values = set(np.unique(scene.frame.pixels).tolist())
    assert spec.background_level in values
    assert len(values) == 2  # background plus one warm delta


# -- corpus assembly


def test_corpus_ids_files_and_category():
    corpus = build_corpus(_clean_spec(), n=5, seed=0)
    ds = corpus.dataset
    assert ds.image_ids() == (1, 2, 3, 4, 5)
    assert ds.images[0].file_name == "scene_00001.raw"
    assert ds.images[4].file_name == "scene_00005.raw"
    assert [c.name for c in ds.categories] == ["puddle"]
    assert [a.id for a in ds.annotations] == list(range(1, len(ds.annotations) + 1))


def test_corpus_is_deterministic():
    spec = _clean_spec()
    a = build_corpus(spec, n=8, seed=21)
    b = build_corpus(spec, n=8, seed=21)
    assert a.dataset == b.dataset
    assert a.distractors == b.distractors


def test_corpus_render_flag_controls_frames_only():
    spec = _clean_spec()
    lazy = build_corpus(spec, n=4, seed=2)
    full = build_corpus(spec, n=4, seed=2, render=True)
    assert lazy.frames is None
    assert len(full.frames) == 4
    assert lazy.dataset == full.dataset


def test_corpus_rejects_empty_request():
    with pytest.raises(SynthError):
        build_corpus(_clean_spec(), n=0, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**70)], ids=["-1", "-2**70"])
@pytest.mark.parametrize("function", ["generate_scene", "build_corpus", "mock_detect"])
def test_a_negative_seed_is_named(function, seed):
    # numpy's own refusal, "expected non-negative integer", names no seed
    with pytest.raises(SynthError, match=f"^seed must be non-negative, got {seed}$"):
        if function == "generate_scene":
            generate_scene(_clean_spec(), seed)
        elif function == "build_corpus":
            build_corpus(_clean_spec(), n=2, seed=seed)
        else:
            mock_detect(build_corpus(_clean_spec(), n=2, seed=0).dataset, MockDetectorSpec(), seed)


def test_preset_a_empty_fraction_matches_spec():
    corpus = build_corpus(PRESET_A, n=1000, seed=123)
    with_objects = {a.image_id for a in corpus.dataset.annotations}
    frac = 1.0 - len(with_objects) / 1000.0
    assert abs(frac - PRESET_A.empty_prob) < 0.045


def test_preset_a_stays_below_the_large_stratum():
    corpus = build_corpus(PRESET_A, n=300, seed=11)
    classes = {a.size_class for a in corpus.dataset.annotations}
    assert SizeClass.LARGE not in classes
    assert SizeClass.SMALL in classes
    assert all(not v for v in corpus.distractors.values())


def test_preset_b_reaches_every_stratum_and_emits_distractors():
    corpus = build_corpus(PRESET_B, n=200, seed=1)
    classes = {a.size_class for a in corpus.dataset.annotations}
    assert classes == {SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE}
    n_distractors = sum(len(v) for v in corpus.distractors.values())
    assert n_distractors > 100
    # distractors are side information, never annotations
    assert set(corpus.distractors) == set(corpus.dataset.image_ids())


def test_distractor_file_round_trips():
    distractors = build_corpus(PRESET_B, n=12, seed=4).distractors
    text = write_distractors(distractors)
    payload = {str(k): [b.as_list() for b in boxes] for k, boxes in distractors.items()}
    assert text == json.dumps(payload, indent=2) + "\n"
    assert parse_distractors(text) == distractors
    assert parse_distractors('{"-3": [[1, 2, 3, 4]], "0": []}') == {
        -3: (BBox(1.0, 2.0, 3.0, 4.0),),
        0: (),
    }


@pytest.mark.parametrize(
    "doc",
    # the command-line tests cover lists, boxes, " 1" and "01"
    [
        "[]", '{"-0": []}', '{"1_0": []}', '{"x": []}', '{"2e3": []}', '{"9223372036854775808": []}',
        pytest.param(f'{{"1": [[{"9" * 5000}, 0, 1, 1]]}}', id="5000-digit-int"),
    ],
)
def test_parse_distractors_rejects_malformed_files(doc):
    with pytest.raises(SynthError, match="^malformed distractor file: "):
        parse_distractors(doc)


# -- mock detectors


def test_detector_spec_validation():
    with pytest.raises(SynthError):
        MockDetectorSpec(p_drop=1.5)
    with pytest.raises(SynthError):
        MockDetectorSpec(jitter_sigma=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detector_spec_rejects_non_finite_values(bad):
    for field in ("p_drop", "p_distractor_fp", "p_fp", "jitter_sigma"):
        with pytest.raises(SynthError, match=f"^{field} must be a finite number, got {bad}$"):
            MockDetectorSpec(**{field: bad})


def test_mock_detect_refuses_a_dataset_without_categories():
    ds = Dataset((ImageRecord(id=1, file_name="f1.raw", width=8, height=8),), (), ())
    with pytest.raises(SynthError, match="^dataset has no categories$"):
        mock_detect(ds, MockDetectorSpec(), seed=0)


def test_mock_detect_follows_dataset_order():
    # images listed out of id order, annotations of different images
    # interleaved and their ids out of order
    images = tuple(ImageRecord(id=i, file_name=f"f{i}.raw", width=64, height=48) for i in (3, 1, 2))
    placed = [(9, 1), (4, 3), (5, 1), (1, 2), (2, 3)]  # (annotation id, image id)
    annotations = tuple(
        AnnotationRecord(id=a, image_id=i, category_id=1, bbox=BBox(float(a), 1.0, 4.0, 4.0))
        for a, i in placed
    )
    ds = Dataset(images, annotations, (CategoryRecord(id=1, name="puddle"),))
    dets = mock_detect(ds, MockDetectorSpec(), seed=0)
    # image by image in listing order, each image's annotations in dataset order
    assert [(d.image_id, d.bbox.x) for d in dets] == [(3, 4.0), (3, 2.0), (1, 9.0), (1, 5.0), (2, 1.0)]
    # each image draws from its own stream, so where an image's annotations
    # sit among other images' changes nothing
    moved = Dataset(images, annotations[3:4] + annotations[:3] + annotations[4:], ds.categories)
    assert mock_detect(moved, MockDetectorSpec(p_drop=0.3, jitter_sigma=1.0), seed=4) == (
        mock_detect(ds, MockDetectorSpec(p_drop=0.3, jitter_sigma=1.0), seed=4)
    )


_PINNED_SPECS = (
    MockDetectorSpec(),
    MockDetectorSpec(p_drop=0.3, p_fp=1.5, jitter_sigma=2.0, p_distractor_fp=0.5),
    MockDetectorSpec(p_drop=0.1, p_fp=0.5, jitter_sigma=0.5, p_distractor_fp=1.0),
)


def test_mock_detect_is_pinned():
    # every run's detections, in order: true-box hits, distractor hits and
    # false boxes drawn from each image's own stream in a fixed order
    h = hashlib.sha256()
    for preset in (PRESET_A, PRESET_B):
        corpus = build_corpus(preset, n=12, seed=3)
        for spec in _PINNED_SPECS:
            for seed in (0, 1, 2):
                for distractors in (None, corpus.distractors):
                    dets = mock_detect(corpus.dataset, spec, seed, distractors=distractors)
                    h.update(write_detections(dets).encode())
    assert h.hexdigest() == "c2fdbe5dea12ef8bed0f70536d8b47ed8ba10158c7b98857460d1576506ee10c"


def test_perfect_detector_returns_ground_truth_boxes():
    corpus = build_corpus(_clean_spec(empty_prob=0.2), n=20, seed=6)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(), seed=0)
    want = {(a.image_id, a.bbox) for a in corpus.dataset.annotations}
    got = {(d.image_id, d.bbox) for d in dets}
    assert got == want
    assert all(0.6 <= d.score <= 1.0 for d in dets)


def test_perfect_detector_scores_all_ones():
    corpus = build_corpus(PRESET_A, n=25, seed=7)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(), seed=1)
    report = evaluate(corpus.dataset, dets)
    assert report.as_dict() == {name: 1.0 for name in report.as_dict()}


def test_drop_everything_detector_is_silent():
    corpus = build_corpus(_clean_spec(), n=10, seed=4)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(p_drop=1.0), seed=0)
    assert tuple(dets) == ()


def test_mock_detect_is_deterministic():
    corpus = build_corpus(_clean_spec(), n=10, seed=4)
    spec = MockDetectorSpec(p_drop=0.3, p_fp=1.0, jitter_sigma=2.0)
    assert mock_detect(corpus.dataset, spec, seed=5) == mock_detect(corpus.dataset, spec, seed=5)
    assert mock_detect(corpus.dataset, spec, seed=5) != mock_detect(corpus.dataset, spec, seed=6)


def test_jitter_moves_boxes_but_keeps_them_positive():
    corpus = build_corpus(_clean_spec(), n=10, seed=4)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(jitter_sigma=3.0), seed=2)
    gt_boxes = {a.bbox for a in corpus.dataset.annotations}
    assert all(d.bbox not in gt_boxes for d in dets)
    assert all(d.bbox.w >= 0.5 and d.bbox.h >= 0.5 for d in dets)


def test_random_false_positives_follow_their_rate():
    corpus = build_corpus(_clean_spec(empty_prob=1.0), n=100, seed=8)
    dets = mock_detect(corpus.dataset, MockDetectorSpec(p_fp=3.0), seed=3)
    # Poisson(3) per image over 100 empty images
    assert 240 <= len(dets) <= 360
    assert all(0.05 <= d.score <= 0.5 for d in dets)
    for d in dets:
        img = corpus.dataset.image(d.image_id)
        x1, y1, x2, y2 = d.bbox.corners
        assert 0 <= x1 and x2 <= img.width
        assert 0 <= y1 and y2 <= img.height


def test_distractor_confusion_adds_high_scored_boxes():
    corpus = build_corpus(PRESET_B, n=50, seed=1)
    clean = mock_detect(corpus.dataset, MockDetectorSpec(), seed=9)
    confused = mock_detect(
        corpus.dataset,
        MockDetectorSpec(p_distractor_fp=1.0),
        seed=9,
        distractors=corpus.distractors,
    )
    n_distractors = sum(len(v) for v in corpus.distractors.values())
    assert len(confused) == len(clean) + n_distractors
    extra = [d for d in confused if d.bbox in
             {b for boxes in corpus.distractors.values() for b in boxes}]
    assert len(extra) == n_distractors
    assert all(0.6 <= d.score <= 1.0 for d in extra)


def test_distractor_confusion_hurts_precision_not_recall():
    corpus = build_corpus(PRESET_B, n=60, seed=1)
    base = MockDetectorSpec()
    noisy = MockDetectorSpec(p_distractor_fp=0.8)
    r_clean = evaluate(corpus.dataset, mock_detect(corpus.dataset, base, seed=2))
    r_noisy = evaluate(
        corpus.dataset,
        mock_detect(corpus.dataset, noisy, seed=2, distractors=corpus.distractors),
    )
    assert r_noisy.ap < r_clean.ap
    assert r_noisy.ar == r_clean.ar
