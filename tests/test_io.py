import ast
import copy
import dataclasses
import functools
import json
import operator
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scene_placer import dataset_io
from scene_placer.config import RunConfig
from scene_placer.errors import (
    FormatError,
    ParseError,
    SchemaError,
    ScenePlacerError,
    VersionError,
)
from scene_placer.fitting import fit_model
from scene_placer.geometry import BBox, DepthGrid, LabelGrid, PatchRect, clip_box
from scene_placer.sampler import FrameAugmentation, PlacementProposal, Provenance

from conftest import (
    assert_frames_hold_columns,
    make_class_model,
    make_model,
    synthetic_dataset,
    write_depth_grid,
    write_label_grid,
    write_mask_pgm,
)


def write_coco(path, images, annotations, categories):
    with open(path, "w") as f:
        json.dump({"images": images, "annotations": annotations,
                   "categories": categories}, f)


class TestReadAnnotations:
    def test_empty_images(self, tmp_path):
        p = tmp_path / "a.json"
        write_coco(p, [], [], [])
        assert dataset_io.read_annotations(p) == []

    def test_corner_to_bottom_center(self, tmp_path):
        p = tmp_path / "a.json"
        write_coco(
            p,
            [{"id": 1, "width": 100, "height": 100}],
            [{"id": 1, "image_id": 1, "category_id": 2, "bbox": [10, 20, 30, 40]}],
            [{"id": 2}],
        )
        frames = dataset_io.read_annotations(p)
        assert frames[0].class_ids.tolist() == [2]
        assert frames[0].boxes.tolist() == [[25, 60, 30, 40]]

    def test_round_trip_normalized(self, tmp_path, rng):
        images, annotations = [], []
        ann_id = 1
        for i in range(100):
            images.append({"id": i, "width": 640, "height": 480, "camera": "front"})
            for _ in range(int(rng.integers(0, 4))):
                x = float(rng.uniform(0, 500))
                y = float(rng.uniform(0, 300))
                annotations.append({
                    "id": ann_id, "image_id": i, "category_id": int(rng.integers(1, 4)),
                    "bbox": [x, y, float(rng.uniform(1, 100)), float(rng.uniform(1, 100))],
                })
                ann_id += 1
        p1 = tmp_path / "a.json"
        write_coco(p1, images, annotations, [{"id": c} for c in (1, 2, 3)])
        assert_frames_hold_columns(dataset_io.read_annotations(p1),
                                   json.loads(p1.read_text()))

    def test_malformed_json_reports_offset(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"images": [,]}')
        with pytest.raises(ParseError) as e:
            dataset_io.read_annotations(p)
        assert e.value.offset is not None

    def test_dangling_category(self, tmp_path):
        p = tmp_path / "a.json"
        write_coco(
            p,
            [{"id": 1, "width": 10, "height": 10}],
            [{"id": 1, "image_id": 1, "category_id": 9, "bbox": [1, 1, 2, 2]}],
            [{"id": 2}],
        )
        with pytest.raises(SchemaError):
            dataset_io.read_annotations(p)


VALID_DOC = {
    "images": [{"id": i, "width": 64, "height": 48, "camera": "front",
                "depth_path": f"{i}.pgm", "semantic_path": f"{i}.pgm"} for i in range(3)],
    "annotations": [{"id": i + 1, "image_id": i, "category_id": 1 + i % 2,
                     "bbox": [1.0, 2.0, 3, 4.5], "mask": None} for i in range(3)],
    "categories": [{"id": 1}, {"id": 2}],
}
NOT_INT = [None, "1", 1.5, True, [1], {}]
NOT_SIZE = NOT_INT + [-48, 0]
NOT_STR = [None, 3, ["a"], {}]
NOT_PATH = [3, False, ["a"], {}]
NOT_BOX = [None, "x", 4, [1, 2, 3], [1, 2, 3, "4"], [1, 2, 3, None], [1, 2, 3, True],
           [1, 2, float("inf"), 4], [float("nan"), 2, 3, 4], [1, 2, 3, 10 ** 400]]
NOT_LIST = [None, 3, "x", {"0": {"id": 1}}]
NOT_RECORD = [None, 3, "x", [1]]
# per section and key of a record: (key required, values of a wrong type)
RECORD_KEYS = {
    "images": {"id": (True, NOT_INT), "width": (True, NOT_SIZE), "height": (True, NOT_SIZE),
               "camera": (False, NOT_STR), "depth_path": (False, NOT_PATH),
               "semantic_path": (False, NOT_PATH)},
    "annotations": {"image_id": (True, NOT_INT), "category_id": (True, NOT_INT),
                    "bbox": (True, NOT_BOX)},
    "categories": {"id": (True, NOT_INT)},
}


@st.composite
def malformed_annotation_docs(draw):
    """VALID_DOC with one section, record or key deleted or mistyped."""
    doc = copy.deepcopy(VALID_DOC)
    section = draw(st.sampled_from(sorted(RECORD_KEYS)))
    i = draw(st.integers(0, len(doc[section]) - 1))
    target = draw(st.sampled_from(["section", "record", "key"]))
    if target == "section":
        doc[section] = draw(st.sampled_from(NOT_LIST))
    elif target == "record":
        doc[section][i] = draw(st.sampled_from(NOT_RECORD))
    else:
        key = draw(st.sampled_from(sorted(RECORD_KEYS[section])))
        required, wrong = RECORD_KEYS[section][key]
        if required and draw(st.booleans()):
            del doc[section][i][key]
        else:
            doc[section][i][key] = draw(st.sampled_from(wrong))
    return doc


class TestMalformedAnnotations:
    def test_valid_doc_reads(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps(VALID_DOC))
        frames = dataset_io.read_annotations(p)
        assert [f.frame_id for f in frames] == ["0", "1", "2"]
        assert frames[2].boxes[0, 2] == 3

    @pytest.mark.parametrize("mutate", [
        lambda d: d["annotations"][1].pop("bbox"),
        lambda d: d["images"][0].update(width=None),
        lambda d: d.update(annotations={"1": d["annotations"][0]}),
        lambda d: d["annotations"][0].update(bbox=[1, 2, float("inf"), 4]),
        lambda d: d["annotations"][0].update(bbox=[1, "1e400", 3, 4]),
        lambda d: d["annotations"][0].update(bbox=[10 ** 400, 2, 3, 4]),
        lambda d: d["images"][0].update(width=-48),
        lambda d: d["images"][1].update(height=0),
    ], ids=["no-bbox", "null-width", "annotations-object", "bbox-infinity", "bbox-1e400",
            "bbox-huge-int", "width-negative", "height-zero"])
    def test_schema_error_names_file(self, tmp_path, mutate):
        doc = copy.deepcopy(VALID_DOC)
        mutate(doc)
        p = tmp_path / "a.json"
        # the string "1e400" stands for that JSON number, which json.dumps cannot write
        p.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        with pytest.raises(SchemaError, match="a.json"):
            dataset_io.read_annotations(p)

    @settings(max_examples=150, deadline=None)
    @given(doc=malformed_annotation_docs())
    def test_one_bad_key_raises_scene_placer_error(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("fuzz") / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenePlacerError):
            dataset_io.read_annotations(p)

    def test_duplicate_image_id_names_both_records(self, tmp_path):
        doc = copy.deepcopy(VALID_DOC)
        doc["images"][2]["id"] = 0
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError,
                           match=r"a\.json: images\[2\] repeats the id 0 of images\[0\]"):
            dataset_io.read_annotations(p)


INT64 = st.integers(-2**63, 2**63 - 1)
# any finite JSON number: ints up to the float range, and floats
NUMBER = st.integers(-int(sys.float_info.max), int(sys.float_info.max)) | st.floats(
    allow_nan=False, allow_infinity=False)
POSITIVE = st.integers(1, int(sys.float_info.max)) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False)
# ids past int64, which the reader refuses; the parent read them
NOT_INT64 = [2**63, -2**63 - 1]
# boxes only the bulk checks' edges reach: a size <= 0, and ints just past
# the float range that convert to +-sys.float_info.max
NOT_BOX_EDGE = [[1, 2, 0, 4], [1, 2, 3, -0.5], [1, 2, 3, 0.0],
                [int(sys.float_info.max) + 1, 2, 3, 4], [1, -int(sys.float_info.max) - 1, 3, 4]]
SECTION_ORDER = ("categories", "annotations", "images")  # the order the reader checks them
_MISSING = object()


@st.composite
def annotation_docs(draw, min_records=0):
    """A valid document: unsorted unique image ids, boxes of any finite
    values, and annotations of unlisted images among them."""
    image_ids = draw(st.lists(INT64, min_size=min_records, max_size=8, unique=True))
    classes = draw(st.lists(INT64, min_size=1, max_size=4, unique=True))
    image_id = (st.sampled_from(image_ids) | INT64) if image_ids else INT64
    annotations = draw(st.lists(st.fixed_dictionaries(
        {"image_id": image_id, "category_id": st.sampled_from(classes),
         "bbox": st.tuples(NUMBER, NUMBER, POSITIVE, POSITIVE).map(list)},
        # nothing reads an annotation's mask, so any value is ignored
        optional={"id": INT64, "mask": st.none() | st.text(max_size=3) | st.integers()
                  | st.lists(st.booleans(), max_size=2)}),
        min_size=min_records, max_size=40))
    return {"images": [{"id": i, "width": 64, "height": 48} for i in image_ids],
            "annotations": annotations, "categories": [{"id": c} for c in classes]}


@st.composite
def corrupted_annotation_docs(draw):
    """(document, (section, index) of its first bad record): a valid document
    of many records with one or two records corrupted."""
    doc = draw(annotation_docs(min_records=1))
    classes = {c["id"] for c in doc["categories"]}
    spots = []
    for _ in range(draw(st.integers(1, 2))):
        # annotations, which the bulk checks read, twice as often as the others
        section = draw(st.sampled_from(SECTION_ORDER + ("annotations",)))
        i = draw(st.integers(0, len(doc[section]) - 1))
        spots.append((SECTION_ORDER.index(section), i))
        if draw(st.integers(0, 5)) == 0:
            doc[section][i] = draw(st.sampled_from(NOT_RECORD))
            continue
        if type(doc[section][i]) is not dict:  # already replaced
            continue
        key = draw(st.sampled_from(sorted(RECORD_KEYS[section])))
        required, wrong = RECORD_KEYS[section][key]
        if key in ("id", "image_id", "category_id"):
            wrong = wrong + NOT_INT64
        if key == "category_id":
            wrong = wrong + [draw(INT64.filter(lambda c: c not in classes))]
        if key == "bbox":
            wrong = wrong + NOT_BOX_EDGE
        if required and draw(st.booleans()):
            doc[section][i].pop(key, None)  # a second pick of the key may find it gone
        else:
            doc[section][i][key] = draw(st.sampled_from(wrong))
    rank, i = min(spots)
    return doc, (SECTION_ORDER[rank], i)


class TestBulkAnnotationChecks:
    """The reader checks all annotation records at once and falls back to
    the per-record checks only to name the first bad one."""

    @settings(max_examples=300, deadline=None)
    @given(case=corrupted_annotation_docs())
    def test_corrupted_doc_names_its_first_bad_record(self, tmp_path_factory, case):
        doc, (section, i) = case
        p = tmp_path_factory.mktemp("bulk") / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="^" + re.escape(f"{p}: {section}[{i}]") + "[: ]"):
            dataset_io.read_annotations(p)

    @settings(max_examples=300, deadline=None)
    @given(doc=annotation_docs())
    def test_valid_doc_columns_are_the_formulas(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("bulk") / "a.json"
        p.write_text(json.dumps(doc))
        assert_frames_hold_columns(dataset_io.read_annotations(p), doc)

    def test_image_without_boxes_and_unlisted_image(self, tmp_path):
        doc = copy.deepcopy(VALID_DOC)
        doc["annotations"][1]["image_id"] = 7  # no image 7: ignored, as is its box
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        frames = dataset_io.read_annotations(p)
        assert [f.class_ids.size for f in frames] == [1, 0, 1]
        assert frames[1].class_ids.shape == (0,) and frames[1].boxes.shape == (0, 4)
        assert_frames_hold_columns(frames, doc)

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, (_, wrong) in RECORD_KEYS["annotations"].items() for value in wrong
    ] + [("mask", value) for value in NOT_PATH]
      + [("bbox", box) for box in NOT_BOX_EDGE] + [("category_id", 3)]
      + [(key, v) for key in ("image_id", "category_id") for v in NOT_INT64]
      + [(key, _MISSING) for key in ("image_id", "category_id", "bbox")]
      + [(None, record) for record in NOT_RECORD])
    def test_every_bad_annotation_is_named(self, tmp_path, key, value):
        """Each wrong annotation value, at record 17 of 30 valid ones, is
        named. A `mask` of any type is not wrong: nothing reads it, so it is
        ignored like any other unknown key."""
        doc = copy.deepcopy(VALID_DOC)
        doc["annotations"] = [dict(doc["annotations"][i % 3], bbox=[i, 2.5, 1 + i, 4])
                              for i in range(30)]
        if key is None:
            doc["annotations"][17] = value
        elif value is _MISSING:
            del doc["annotations"][17][key]
        else:
            doc["annotations"][17][key] = value
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        if key == "mask":
            assert_frames_hold_columns(dataset_io.read_annotations(p), doc)
            return
        with pytest.raises(SchemaError, match="^" + re.escape(f"{p}: annotations[17]") + "[: ]"):
            dataset_io.read_annotations(p)

    @pytest.mark.parametrize("value", NOT_INT64)
    @pytest.mark.parametrize("section,key", [
        ("images", "id"), ("annotations", "image_id"), ("annotations", "category_id"),
        ("categories", "id")])
    def test_id_past_int64_names_the_record(self, tmp_path, section, key, value):
        doc = copy.deepcopy(VALID_DOC)
        doc[section][1][key] = value
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"a.json: {section}[1]: {key!r} must"
                                                        f" fit in int64, got {value}")):
            dataset_io.read_annotations(p)


class TestGridIO:
    def test_depth_scale(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + np.array([0, 1, 2, 3], dtype=">u2").tobytes())
        grid = dataset_io.read_depth_grid(p, 0.5)
        assert grid.values.tolist() == [[0.0, 0.5], [1.0, 1.5]]

    def test_label_verbatim(self, tmp_path):
        p = tmp_path / "l.pgm"
        p.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 1, 2]))
        grid = dataset_io.read_label_grid(p)
        assert grid.labels.tolist() == [[0, 1, 2]]

    def test_depth_round_trip_bit_identical(self, tmp_path, rng):
        raw = rng.integers(0, 65535, (20, 30)).astype(np.uint16)
        grid = DepthGrid(raw.astype(np.float32) * np.float32(1 / 256))
        p = tmp_path / "d.pgm"
        write_depth_grid(grid, p, 1 / 256)
        back = dataset_io.read_depth_grid(p, 1 / 256)
        assert np.array_equal(grid.values, back.values)
        p2 = tmp_path / "d2.pgm"
        write_depth_grid(back, p2, 1 / 256)
        assert p.read_bytes() == p2.read_bytes()

    def test_label_round_trip(self, tmp_path, rng):
        grid = LabelGrid(rng.integers(0, 8, (15, 9)).astype(np.uint8))
        p = tmp_path / "l.pgm"
        write_label_grid(grid, p)
        assert np.array_equal(dataset_io.read_label_grid(p).labels, grid.labels)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            dataset_io.read_label_grid(p)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            dataset_io.read_depth_grid(p, 1.0)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x00EXTRA")
        with pytest.raises(FormatError):
            dataset_io.read_label_grid(p)

    def test_mask_round_trip(self, tmp_path, rng):
        bits = rng.random((12, 7)) < 0.5
        p = tmp_path / "m.pgm"
        write_mask_pgm(bits, p)
        assert np.array_equal(dataset_io.read_mask_pgm(p), bits)

    def test_header_comments_and_leading_zeros_round_trip(self, tmp_path):
        """Comments anywhere between the fields, also right after a number,
        and a width with leading zeros read as the canonical header does."""
        pixels = bytes([0, 255, 7, 255, 0, 1])
        p = tmp_path / "l.pgm"
        p.write_bytes(b"P5#magic\n 003#width\n\t2\n# maxval next\n#\n255\n" + pixels)
        grid = dataset_io.read_label_grid(p)
        assert grid.labels.tolist() == [[0, 255, 7], [255, 0, 1]]
        write_label_grid(grid, tmp_path / "back.pgm")
        assert (tmp_path / "back.pgm").read_bytes() == b"P5\n3 2\n255\n" + pixels
        assert np.array_equal(dataset_io.read_label_grid(tmp_path / "back.pgm").labels,
                              grid.labels)

    @pytest.mark.parametrize("data", [
        b"P5\nxx 4\n255\n" + bytes(4), b"P5\n0 0\n255\n", b"P5\n2 0\n255\n",
        b"P5\n00 1\n255\n", b"P5\n+2 1\n255\n\0\0", b"P5\n-2 1\n255\n\0\0",
        b"P5\n1_0 1\n255\n" + bytes(10), b"P5\n2 1\n255", b"P5\n2 1\n255#c\n\0\0",
        b"P5\n2 1 #c", b"P52 1 255\n\0\0", b"P6\n2 1\n255\n" + bytes(6),
        b"P5\n1234567890 1\n255\n", b"",
    ], ids=["non-numeric", "zero-size", "zero-height", "zeros", "plus-sign", "minus-sign",
            "underscore", "truncated", "comment-after-maxval", "comment-to-eof",
            "no-space-after-magic", "ppm", "ten-digits", "empty"])
    def test_malformed_header_names_file(self, tmp_path, data):
        p = tmp_path / "l.pgm"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=r"l\.pgm: "):
            dataset_io.read_label_grid(p)


class TestModelIO:
    @pytest.fixture
    def fitted_model(self, rng):
        cms = [make_class_model(class_id=c) for c in range(1, 11)]
        frames, lookup = synthetic_dataset(cms, 40, rng)
        model, _ = fit_model(frames, lookup, RunConfig())
        return model

    def test_round_trip_identity(self, tmp_path, fitted_model):
        p1 = tmp_path / "m.json"
        p2 = tmp_path / "m2.json"
        dataset_io.save_model(fitted_model, p1)
        back = dataset_io.load_model(p1)
        dataset_io.save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_by_field_equality(self, tmp_path, fitted_model):
        p = tmp_path / "m.json"
        dataset_io.save_model(fitted_model, p)
        back = dataset_io.load_model(p)
        for cam in fitted_model.cameras:
            for cid, cm in fitted_model.cameras[cam].items():
                got = back.cameras[cam][cid]
                assert got.depth == cm.depth
                assert got.height_mu_curve == cm.height_mu_curve
                assert got.height_sigma_curve == cm.height_sigma_curve
                assert np.array_equal(got.aspect.edges, cm.aspect.edges)
                assert np.array_equal(got.aspect.probs, cm.aspect.probs)
                assert got.sample_count == cm.sample_count
        assert back.prior_classes == fitted_model.prior_classes

    def test_schema_version_mismatch(self, tmp_path, fitted_model):
        p = tmp_path / "m.json"
        dataset_io.save_model(fitted_model, p)
        doc = json.loads(p.read_text())
        doc["schema"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(VersionError):
            dataset_io.load_model(p)

    def test_corrupted_key(self, tmp_path, fitted_model):
        p = tmp_path / "m.json"
        dataset_io.save_model(fitted_model, p)
        doc = json.loads(p.read_text())
        del doc["class_prior"]["classes"]
        p.write_text(json.dumps(doc))
        with pytest.raises(VersionError):
            dataset_io.load_model(p)


VALID_MODEL = dataset_io.model_to_json(make_model([make_class_model(1), make_class_model(2)]))
# per type of a value in a model document: values of another type
WRONG_TYPE = {dict: [None, [], "x"], list: [None, {}, "x"], int: [1.5, "1", None],
              float: ["x", None, True, float("nan"), float("inf")], bool: [0, "true", None],
              str: [3, None, []], type(None): ["x", 2.5]}


def _nodes(value, path=()):
    """(path, value) of `value` and of every value nested in it."""
    yield path, value
    if type(value) in (dict, list):
        for key, child in (value.items() if type(value) is dict else enumerate(value)):
            yield from _nodes(child, path + (key,))


@st.composite
def malformed_model_docs(draw):
    """VALID_MODEL with one value mistyped or one required key deleted."""
    doc = copy.deepcopy(VALID_MODEL)
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return draw(st.sampled_from(WRONG_TYPE[dict]))
    *parent_path, key = path
    parent = functools.reduce(operator.getitem, parent_path, doc)
    # camera and class entries may come and go
    optional = parent_path[:1] == ["cameras"] and len(parent_path) <= 2
    if type(parent) is dict and not optional and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(WRONG_TYPE[type(value)]))
    return doc


# per raster kind: (reader, maxval, bytes per pixel)
RASTERS = {"depth": (lambda p: dataset_io.read_depth_grid(p, 1 / 256), 65535, 2),
           "label": (dataset_io.read_label_grid, 255, 1),
           "mask": (dataset_io.read_mask_pgm, 255, 1)}
HEADER_TOKENS = [b"P5", b"P6", b"P2", b"2", b"3", b"0", b"00", b"007", b"255", b"65535",
                 b"-2", b"+3", b"1_0", b"xx", b"1e3", b"\xff", b"#c\n", b"#", b" ", b"\n",
                 b"\t", b"\r\n", b""]


@st.composite
def mutated_pgms(draw):
    """A valid PGM of one raster kind with header tokens replaced, inserted
    or deleted, and its pixel data a few bytes short or long."""
    kind = draw(st.sampled_from(sorted(RASTERS)))
    _, maxval, itemsize = RASTERS[kind]
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = [b"P5", b"\n", b"%d" % w, b" ", b"%d" % h, b"\n", b"%d" % maxval, b"\n"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "delete":
            del tokens[i]
        else:
            tokens[i:i + (how == "replace")] = [draw(st.sampled_from(HEADER_TOKENS))]
    n_data = max(0, w * h * itemsize + draw(st.sampled_from([0, 0, -2, -1, 1, 2])))
    return kind, b"".join(tokens) + draw(st.binary(min_size=n_data, max_size=n_data))


class TestMalformedRasters:
    @settings(max_examples=300, deadline=None)
    @given(case=mutated_pgms())
    def test_reader_returns_a_grid_or_format_error_naming_file(self, tmp_path_factory, case):
        kind, data = case
        p = tmp_path_factory.mktemp("fuzz") / f"{kind}.pgm"
        p.write_bytes(data)
        read = RASTERS[kind][0]
        try:
            grid = read(p)
        except FormatError as e:
            assert str(e).startswith(f"{p}: ")
            return
        shape = getattr(grid, "values", getattr(grid, "labels", grid)).shape
        assert len(shape) == 2 and min(shape) > 0


class TestMalformedModels:
    def test_valid_model_round_trips(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(VALID_MODEL))
        dataset_io.save_model(dataset_io.load_model(p), tmp_path / "back.json")
        assert json.loads((tmp_path / "back.json").read_text()) == VALID_MODEL

    @settings(max_examples=200, deadline=None)
    @given(doc=malformed_model_docs())
    def test_one_bad_value_raises_version_error_naming_file(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("fuzz") / "model.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(VersionError, match="model.json"):
            dataset_io.load_model(p)


CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# per RunConfig field annotation: JSON values of another type
NOT_CONFIG = {"int": [1.5, "1", None, True, [1]], "float": ["5", None, True, [5.0]],
              "str": [3, None, ["uniform"]],
              "list[int]": [1, None, "1,2", [1.5] * 200, ["x"] * 200],
              "list[int] | None": [1, "1", [None] * 200]}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def malformed_config_docs(draw):
    """The default config with one field mistyped, one non-finite number put
    in, or one unknown key added."""
    doc = dataclasses.asdict(RunConfig())
    name = draw(st.sampled_from(sorted(CONFIG_TYPES)))
    kind = CONFIG_TYPES[name]
    how = draw(st.sampled_from(["mistype", "non-finite", "unknown-key"]))
    if how == "mistype":
        doc[name] = draw(st.sampled_from(NOT_CONFIG[kind]))
    elif how == "non-finite":
        # a float field also rejects an int too big for a float
        bad = draw(st.sampled_from(NON_FINITE + [10 ** 400] * (kind == "float")))
        doc[name] = [1, bad] if kind.startswith("list") else bad
    else:
        key = draw(st.text(min_size=1).filter(lambda k: k not in CONFIG_TYPES))
        doc[key] = draw(st.sampled_from([1, "x", None]))
    return doc


class TestMalformedConfigs:
    def test_default_config_round_trips(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(dataclasses.asdict(RunConfig())))
        assert dataset_io.load_config(p) == RunConfig()

    @settings(max_examples=200, deadline=None)
    @given(doc=malformed_config_docs())
    def test_one_bad_value_names_file_in_one_short_line(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("fuzz") / "config.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenePlacerError) as e:
            dataset_io.load_config(p)
        line = str(e.value)
        assert line.startswith(f"{p}: config") and "\n" not in line
        assert len(line.encode()) < 200


def test_only_dataset_io_imports_json_or_opens_files():
    """dataset_io is the one module that reads or writes files, so its checks
    and its atomic writer cover every file format."""
    src = os.path.dirname(dataset_io.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "dataset_io.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            imported = ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            called = (node.func.id if isinstance(node.func, ast.Name) else
                      getattr(node.func, "attr", "")) if isinstance(node, ast.Call) else ""
            if any(m.split(".")[0] == "json" for m in imported) or called in ("open", "fdopen"):
                found.append(f"{name}:{node.lineno}")
    assert found == []


class TestRenderOverlay:
    def test_empty_layout_blank_canvas(self, tmp_path):
        p = tmp_path / "o.ppm"
        dataset_io.render_overlay(8, 6, [], [], p)
        data = p.read_bytes()
        assert data.startswith(b"P6\n8 6\n255\n")
        body = data[len(b"P6\n8 6\n255\n"):]
        assert body == bytes([dataset_io.BACKGROUND_GRAY]) * (8 * 6 * 3)

    def test_one_box_edge_pixels(self, tmp_path):
        p = tmp_path / "o.ppm"
        box = BBox(cx=10, by=15, w=8, h=10)
        dataset_io.render_overlay(20, 20, [], [box], p)
        data = p.read_bytes()
        img = np.frombuffer(data[len(b"P6\n20 20\n255\n"):], dtype=np.uint8)
        img = img.reshape(20, 20, 3)
        green = (img == np.array([0, 255, 0], dtype=np.uint8)).all(axis=2)
        # strokes: two horizontal runs of width 8 x 2 plus two vertical runs
        # of (10 - 2*2) x 2 each
        assert green.sum() == 2 * (8 * 2) + 2 * ((10 - 4) * 2)

    @settings(max_examples=200, deadline=None)
    @given(x0=st.floats(-1e6, 1e6), y0=st.floats(-1e6, 1e6), w=st.floats(0.5, 2e6),
           h=st.floats(0.5, 2e6))
    def test_edges_far_off_the_canvas_draw_as_unclamped(self, x0, y0, w, h):
        """Clamping an edge into [-STROKE, size + STROKE] changes no pixel:
        each stroke is painted where the unclamped integer edges put it."""
        box = BBox(cx=x0 + w / 2, by=y0 + h, w=w, h=h)
        got = np.zeros((16, 20, 3), np.uint8)
        dataset_io._draw_rect(got, box, (1, 2, 3))
        want = np.zeros((16, 20), bool)
        ex0, ex1, ey0, ey1 = [int(round(v)) for v in (box.x0, box.x1, box.y0, box.y1)]
        s = dataset_io.STROKE
        for ax0, ay0, ax1, ay1 in ((ex0, ey0, ex1, ey0 + s), (ex0, ey1 - s, ex1, ey1),
                                   (ex0, ey0, ex0 + s, ey1), (ex1 - s, ey0, ex1, ey1)):
            want[max(ay0, 0):max(ay1, 0), max(ax0, 0):max(ax1, 0)] = True
        assert np.array_equal(got.any(axis=2), want)

    def test_deterministic_bytes(self, tmp_path):
        boxes = [BBox(cx=5, by=8, w=4, h=4)]
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        dataset_io.render_overlay(16, 16, boxes, [], p1)
        dataset_io.render_overlay(16, 16, boxes, [], p2)
        assert p1.read_bytes() == p2.read_bytes()


@st.composite
def augmentations(draw):
    """Layouts as augment and refine leave them: boxes clipped at the frame
    edge, patches inside the frame, proposals with no mask or a relative or
    absolute mask path."""
    fw, fh = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))
    coords = st.floats(0.0, 1e4, allow_nan=False)
    mask_paths = st.lists(st.sampled_from(["masks", "..", ".", "a"]), max_size=3).map(
        lambda parts: os.path.join(*parts, "m.pgm"))
    proposals = []
    for i in range(draw(st.integers(0, 4))):
        box = BBox(cx=draw(st.floats(0.0, fw, exclude_min=True, exclude_max=True)),
                   by=draw(st.floats(0.0, fh, exclude_min=True)),
                   w=draw(st.floats(0.5, 3e3)), h=draw(st.floats(0.5, 3e3)))
        side = draw(st.integers(1, min(fw, fh)))
        patch = PatchRect(x0=draw(st.integers(0, fw - side)), y0=draw(st.integers(0, fh - side)),
                          side=side)
        proposals.append(PlacementProposal(
            class_id=draw(st.integers(0, 255)), d=draw(coords), d_effective=draw(coords),
            box=clip_box(box, fw, fh), show_prob=draw(st.floats(0.0, 1.0)),
            provenance=Provenance(index=i, attempts=draw(st.integers(1, 25)),
                                  anchor_px=(draw(st.integers(0, 999)), draw(st.integers(0, 999)))),
            patch=patch, mask_path=draw(st.none() | mask_paths | mask_paths.map(lambda m: "/" + m))))
    return FrameAugmentation(frame_id=draw(st.text(max_size=6)), frame=(fw, fh),
                             proposals=proposals, dropped=draw(st.integers(0, 12)))


def _absolute_masks(aug):
    return dataclasses.replace(aug, proposals=[
        dataclasses.replace(p, mask_path=p.mask_path and os.path.abspath(p.mask_path))
        for p in aug.proposals])


GOOD_PROPOSAL = {"index": 0, "class": 1, "d_sampled": 8.0, "d": 7.5, "anchor": [4, 9],
                 "attempts": 1, "box": [10, 20, 5, 8], "patch": [2, 8, 16], "show_prob": 0.5,
                 "mask": None}


class TestLayoutIO:
    @settings(max_examples=100, deadline=None)
    @given(aug=augmentations())
    def test_layout_round_trip(self, tmp_path_factory, aug):
        p = tmp_path_factory.mktemp("layout") / "l.json"
        dataset_io.save_layout(aug, p)
        assert _absolute_masks(dataset_io.load_layout(p)) == _absolute_masks(aug)
        # "d" is the depth after any empty-band reset
        assert [r["d"] for r in json.loads(p.read_text())["proposals"]] == [
            q.d_effective for q in aug.proposals]

    def test_missing_key(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text('{"schema": 3, "frame_id": "x", "frame": [64, 48], "proposals": []}')
        with pytest.raises(SchemaError, match="'dropped'"):
            dataset_io.load_layout(p)
        # the frame is as required as the count of dropped proposals
        p.write_text('{"schema": 3, "frame_id": "x", "proposals": [], "dropped": 0}')
        with pytest.raises(SchemaError, match=r"l\.json: layout: missing key 'frame'"):
            dataset_io.load_layout(p)

    # 2 is the schema before layouts stored their frame and patches
    @pytest.mark.parametrize("schema", [1, 2, "3", 2.0, None, "missing"])
    def test_other_schema_names_file(self, tmp_path, schema):
        doc = {"frame_id": "x", "frame": [64, 48], "proposals": [GOOD_PROPOSAL], "dropped": 0}
        if schema != "missing":
            doc["schema"] = schema
        p = tmp_path / "l.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"l\.json: layout: .*'schema'"):
            dataset_io.load_layout(p)

    @pytest.mark.parametrize("key, value", [
        ("class", 1.5), ("d", None), ("box", [1, 2, 3]), ("box", [1, 2, 3, "4"]),
        ("show_prob", "0.5"), ("mask", 3), ("class", "missing"),
        ("box", [1, 2, 0, 4]), ("anchor", [1.0, 2]), ("anchor", [1]), ("attempts", "1"),
        ("index", None), ("d_sampled", "missing"),
        ("index", -4), ("attempts", 0), ("class", 2**63), ("dropped", -7),
        ("patch", "missing"), ("patch", None), ("patch", [2, 8]), ("patch", [2, 8, 0]),
        ("patch", [2.0, 8, 16]), ("frame", "missing"), ("frame", [64]), ("frame", [0, 48]),
        ("frame", [64, 48.0]), ("frame", [64, -1]),
    ])
    def test_bad_proposal_names_file_and_index(self, tmp_path, key, value):
        bad = dict(GOOD_PROPOSAL)
        doc = {"schema": 3, "frame_id": "x", "frame": [64, 48], "dropped": 0,
               "proposals": [GOOD_PROPOSAL, bad]}
        # "dropped" and "frame" are the keys kept outside the proposals
        rec, where = (doc, "layout") if key in ("dropped", "frame") else (bad, r"proposals\[1\]")
        if value == "missing":
            del rec[key]
        else:
            rec[key] = value
        p = tmp_path / "l.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"l\.json: {where}: .*'{key}'"):
            dataset_io.load_layout(p)

    @pytest.mark.parametrize("key, outside, inside", [
        ("box", [66.5, 20, 5, 8], [66.4, 20, 5, 8]), ("box", [-2.5, 20, 5, 8], [-2.4, 20, 5, 8]),
        ("box", [10, 0, 5, 8], [10, 0.1, 5, 8]), ("box", [10, 56, 5, 8], [10, 55.9, 5, 8]),
        ("patch", [49, 8, 16], [48, 8, 16]), ("patch", [-1, 8, 16], [0, 8, 16]),
        ("patch", [2, 33, 16], [2, 32, 16]), ("patch", [2, -1, 16], [2, 0, 16]),
        ("patch", [0, 0, 49], [0, 0, 48]), ("patch", [-2**70, 0, 2**71], [0, 0, 48]),
    ])
    def test_box_or_patch_outside_the_frame_names_file_and_index(self, tmp_path, key, outside,
                                                                  inside):
        """A box must meet the 64x48 frame and a patch lie inside it, as
        augment writes them: each case misses by a pixel's edge, or a patch
        overruns the frame, and the second value of each pair is accepted."""
        problem = {"box": "box does not intersect", "patch": "patch does not lie inside"}[key]
        bad = dict(GOOD_PROPOSAL, index=3, **{key: outside})
        doc = {"schema": 3, "frame_id": "x", "frame": [64, 48], "dropped": 0,
               "proposals": [GOOD_PROPOSAL, bad]}
        p = tmp_path / "l.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            dataset_io.load_layout(p)
        assert str(e.value) == f"{p}: proposal 3: {problem} the 64x48 frame"
        bad[key] = inside
        p.write_text(json.dumps(doc))
        assert dataset_io.load_layout(p).proposals[1].provenance.index == 3

    def test_box_of_zero_float_extent_in_the_frame_names_file_and_index(self, tmp_path):
        """Both edges of a 1e-300-wide box at cx = 30 round to 30: its edges
        lie in the frame, but it shares no area with it."""
        bad = dict(GOOD_PROPOSAL, index=3, box=[30, 20, 1e-300, 8])
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"schema": 3, "frame_id": "x", "frame": [64, 48], "dropped": 0,
                                 "proposals": [GOOD_PROPOSAL, bad]}))
        with pytest.raises(SchemaError) as e:
            dataset_io.load_layout(p)
        assert str(e.value) == f"{p}: proposal 3: box does not intersect the 64x48 frame"
