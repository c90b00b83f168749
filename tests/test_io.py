import copy
import functools
import json
import operator

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
from scene_placer.geometry import BBox, DepthGrid, LabelGrid
from scene_placer.sampler import FrameAugmentation

from conftest import make_class_model, make_model, synthetic_dataset


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
        box = frames[0].annotations[0].box
        assert (box.cx, box.by, box.w, box.h) == (25, 60, 30, 40)

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
        frames = dataset_io.read_annotations(p1)
        p2 = tmp_path / "b.json"
        p3 = tmp_path / "c.json"
        dataset_io.write_annotations(frames, p2)
        dataset_io.write_annotations(dataset_io.read_annotations(p2), p3)
        assert p2.read_bytes() == p3.read_bytes()

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
NOT_STR = [None, 3, ["a"], {}]
NOT_PATH = [3, False, ["a"], {}]
NOT_BOX = [None, "x", 4, [1, 2, 3], [1, 2, 3, "4"], [1, 2, 3, None], [1, 2, 3, True]]
NOT_LIST = [None, 3, "x", {"0": {"id": 1}}]
NOT_RECORD = [None, 3, "x", [1]]
# per section and key of a record: (key required, values of a wrong type)
RECORD_KEYS = {
    "images": {"id": (True, NOT_INT), "width": (True, NOT_INT), "height": (True, NOT_INT),
               "camera": (False, NOT_STR), "depth_path": (False, NOT_PATH),
               "semantic_path": (False, NOT_PATH)},
    "annotations": {"image_id": (True, NOT_INT), "category_id": (True, NOT_INT),
                    "bbox": (True, NOT_BOX), "mask": (False, NOT_PATH)},
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
        assert frames[2].annotations[0].box.w == 3

    @pytest.mark.parametrize("mutate", [
        lambda d: d["annotations"][1].pop("bbox"),
        lambda d: d["images"][0].update(width=None),
        lambda d: d.update(annotations={"1": d["annotations"][0]}),
    ], ids=["no-bbox", "null-width", "annotations-object"])
    def test_schema_error_names_file(self, tmp_path, mutate):
        doc = copy.deepcopy(VALID_DOC)
        mutate(doc)
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="a.json"):
            dataset_io.read_annotations(p)

    @settings(max_examples=150, deadline=None)
    @given(doc=malformed_annotation_docs())
    def test_one_bad_key_raises_scene_placer_error(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("fuzz") / "a.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenePlacerError):
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
        dataset_io.write_depth_grid(grid, p, 1 / 256)
        back = dataset_io.read_depth_grid(p, 1 / 256)
        assert np.array_equal(grid.values, back.values)
        p2 = tmp_path / "d2.pgm"
        dataset_io.write_depth_grid(back, p2, 1 / 256)
        assert p.read_bytes() == p2.read_bytes()

    def test_label_round_trip(self, tmp_path, rng):
        grid = LabelGrid(rng.integers(0, 8, (15, 9)).astype(np.uint8))
        p = tmp_path / "l.pgm"
        dataset_io.write_label_grid(grid, p)
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
        dataset_io.write_mask_pgm(bits, p)
        assert np.array_equal(dataset_io.read_mask_pgm(p), bits)


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
              float: ["x", None, True], bool: [0, "true", None], str: [3, None, []],
              type(None): ["x", 2.5]}


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
    # camera and class entries may come and go; config fields and fallback have defaults
    optional = (parent_path[:1] == ["config"] or key == "fallback"
                or parent_path[:1] == ["cameras"] and len(parent_path) <= 2)
    if type(parent) is dict and not optional and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(WRONG_TYPE[type(value)]))
    return doc


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

    def test_deterministic_bytes(self, tmp_path):
        boxes = [BBox(cx=5, by=8, w=4, h=4)]
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        dataset_io.render_overlay(16, 16, boxes, [], p1)
        dataset_io.render_overlay(16, 16, boxes, [], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLayoutIO:
    def test_layout_round_trip(self, tmp_path):
        from scene_placer.sampler import PlacementProposal, Provenance
        aug = FrameAugmentation(
            frame_id="f1",
            proposals=[PlacementProposal(
                class_id=3, d=8.0, d_effective=7.5,
                box=BBox(cx=10, by=20, w=5, h=8), show_prob=0.5,
                provenance=Provenance(index=0, attempts=1, anchor_px=(1, 2)),
            )],
            dropped=2,
        )
        p = tmp_path / "l.json"
        dataset_io.save_layout(aug, p)
        doc = dataset_io.load_layout(p)
        assert doc["frame_id"] == "f1"
        assert doc["dropped"] == 2
        assert doc["proposals"][0]["class"] == 3
        assert doc["proposals"][0]["d"] == 7.5
        assert doc["proposals"][0]["box"] == [10, 20, 5, 8]
        assert doc["proposals"][0]["mask"] is None

    def test_missing_key(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text('{"frame_id": "x", "proposals": []}')
        with pytest.raises(SchemaError):
            dataset_io.load_layout(p)

    @pytest.mark.parametrize("key, value", [
        ("class", 1.5), ("d", None), ("box", [1, 2, 3]), ("box", [1, 2, 3, "4"]),
        ("show_prob", "0.5"), ("mask", 3), ("class", "missing"),
    ])
    def test_bad_proposal_names_file_and_index(self, tmp_path, key, value):
        good = {"class": 1, "d": 7.5, "box": [10, 20, 5, 8], "show_prob": 0.5, "mask": None}
        bad = dict(good)
        if value == "missing":
            del bad[key]
        else:
            bad[key] = value
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"frame_id": "x", "proposals": [good, bad], "dropped": 0}))
        with pytest.raises(SchemaError, match=r"l\.json: proposals\[1\]"):
            dataset_io.load_layout(p)
