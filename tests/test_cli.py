import json
import os

import numpy as np
import pytest

from scene_placer import dataset_io
from scene_placer.cli import main
from scene_placer.config import RunConfig
from scene_placer.geometry import DepthGrid, LabelGrid

DEPTH_SCALE = 1.0 / 256.0


@pytest.fixture
def fixture_dataset(tmp_path, rng):
    """Small on-disk dataset: 6 frames, depth/label PGMs, two classes."""
    depth_dir = tmp_path / "depth"
    sem_dir = tmp_path / "semantic"
    depth_dir.mkdir()
    sem_dir.mkdir()
    images, annotations = [], []
    ann_id = 1
    for fid in range(6):
        side = 48
        vals = rng.uniform(1, 30, (side, side)).astype(np.float32)
        # smooth vertical gradient so bands are contiguous-ish
        vals += np.linspace(0, 10, side)[:, None]
        labels = np.where(rng.random((side, side)) < 0.6, 1, 7).astype(np.uint8)
        dataset_io.write_depth_grid(DepthGrid(vals), depth_dir / f"{fid}.pgm", DEPTH_SCALE)
        dataset_io.write_label_grid(LabelGrid(labels), sem_dir / f"{fid}.pgm")
        images.append({
            "id": fid, "width": side, "height": side, "camera": "front",
            "depth_path": f"{fid}.pgm", "semantic_path": f"{fid}.pgm",
        })
        for _ in range(12):
            cls = int(rng.integers(1, 3))
            w = float(rng.uniform(3, 10))
            h = float(rng.uniform(4, 12))
            x = float(rng.uniform(0, side - w))
            y = float(rng.uniform(0, side - h))
            annotations.append({
                "id": ann_id, "image_id": fid, "category_id": cls,
                "bbox": [x, y, w, h],
            })
            ann_id += 1
    ann_path = tmp_path / "annotations.json"
    with open(ann_path, "w") as f:
        json.dump({"images": images, "annotations": annotations,
                   "categories": [{"id": 1}, {"id": 2}]}, f)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestFit:
    def test_fit_and_golden_stability(self, fixture_dataset, capsys):
        t = fixture_dataset
        args = ["fit", t / "annotations.json", "--depth-dir", t / "depth",
                "--out-model", t / "model.json", "--config", _cfg(t)]
        assert run(args) == 0
        first = (t / "model.json").read_bytes()
        assert run(args) == 0
        assert (t / "model.json").read_bytes() == first
        out = capsys.readouterr().out
        assert "class 1" in out and "class 2" in out

    def test_empty_dataset_exit_2(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text('{"images": [], "annotations": [], "categories": []}')
        assert run(["fit", p, "--out-model", tmp_path / "m.json"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["fit", tmp_path / "nope.json",
                    "--out-model", tmp_path / "m.json"]) == 2


def _cfg(tmp_path):
    p = tmp_path / "config.json"
    if not p.exists():
        p.write_text(json.dumps({
            "min_samples": 10,
            "min_window_count": 2,
            "drivable_classes": [1],
        }))
    return p


def _fit_and_augment(t, out_name, jobs):
    assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
    assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                "--out-layouts", t / out_name, "--config", _cfg(t),
                "--seed", 7, "--jobs", jobs]) == 0


class TestAugment:
    def test_deterministic_across_thread_counts(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts1", 1)
        _fit_and_augment(t, "layouts8", 8)
        names = sorted(os.listdir(t / "layouts1"))
        assert names == sorted(os.listdir(t / "layouts8"))
        assert len(names) == 6
        for n in names:
            assert (t / "layouts1" / n).read_bytes() == (t / "layouts8" / n).read_bytes()

    def test_twelve_proposals_default(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = dataset_io.load_layout(t / "layouts" / "0.json")
        assert len(doc["proposals"]) + doc["dropped"] == 12
        for rec in doc["proposals"]:
            assert set(rec) == {"class", "d", "box", "show_prob", "mask"}
            assert rec["show_prob"] == 0.5

    @pytest.mark.parametrize("source, bad", [("flag", "300"), ("config", "-1")])
    def test_drivable_class_out_of_range_exit_2(self, fixture_dataset, capsys,
                                                source, bad):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        if source == "flag":
            extra = ["--config", _cfg(t), "--drivable-classes", f"1,{bad}"]
        else:
            cfg = t / "bad_config.json"
            cfg.write_text(json.dumps({"drivable_classes": [1, int(bad)]}))
            extra = ["--config", cfg]
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "0..255" in err


class TestEvalRender:
    def test_eval_and_render(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                    "--layouts", t / "layouts",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--config", _cfg(t),
                    "--out-report", t / "report.json",
                    "--out-text", t / "report.txt"]) == 0
        report = json.loads((t / "report.json").read_text())
        assert report["n_proposals"] > 0
        assert report["band_validity"] is not None

        assert run(["render", t / "layouts" / "0.json",
                    "--annotations", t / "annotations.json",
                    "--width", 48, "--height", 48, "--out", t / "o.ppm"]) == 0
        first = (t / "o.ppm").read_bytes()
        assert first.startswith(b"P6\n48 48\n255\n")
        assert run(["render", t / "layouts" / "0.json",
                    "--annotations", t / "annotations.json",
                    "--width", 48, "--height", 48, "--out", t / "o2.ppm"]) == 0
        assert first == (t / "o2.ppm").read_bytes()

    def test_frames_sharing_grids_read_them_once(self, fixture_dataset, monkeypatch):
        """fit and eval read a grid file that frames share once; augment reads
        a frame's grids for that frame alone, so they are freed with it."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "annotations.json").read_text())
        # frames 0 and 1 on one grid pair, against each frame on its own copy
        for name, paths in (("shared", ["0.pgm", "0.pgm"]), ("copies", ["0.pgm", "c.pgm"])):
            images = [dict(im, depth_path=p, semantic_path=p)
                      for im, p in zip(doc["images"][:2], paths)]
            (t / f"{name}.json").write_text(json.dumps(dict(doc, images=images)))
        for sub in ("depth", "semantic"):
            (t / sub / "c.pgm").write_bytes((t / sub / "0.pgm").read_bytes())
        reads = []
        for name in ("read_depth_grid", "read_label_grid"):
            read = getattr(dataset_io, name)
            monkeypatch.setattr(dataset_io, name,
                                lambda *a, name=name, read=read: reads.append(name) or read(*a))
        grids = ["--depth-dir", t / "depth", "--semantic-dir", t / "semantic", "--config", _cfg(t)]
        argv = {
            "fit": lambda name: ["fit", t / f"{name}.json", "--depth-dir", t / "depth",
                                 "--config", _cfg(t), "--out-model", t / f"{name}_model.json"],
            "augment": lambda name: ["augment", t / f"{name}.json", "--model", t / "model.json",
                                     *grids, "--out-layouts", t / f"{name}_layouts"],
            "eval": lambda name: ["eval", t / f"{name}.json", "--model", t / "model.json",
                                  "--layouts", t / "layouts", *grids,
                                  "--out-report", t / f"{name}_report.json"],
        }
        # (depth reads, label reads) on the shared pair and on the copies
        expected = {"fit": {"shared": (1, 0), "copies": (2, 0)},
                    "augment": {"shared": (2, 2), "copies": (2, 2)},
                    "eval": {"shared": (1, 1), "copies": (2, 2)}}
        for command, counts in expected.items():
            for name, want in counts.items():
                reads.clear()
                assert run(argv[command](name)) == 0
                got = reads.count("read_depth_grid"), reads.count("read_label_grid")
                assert got == want, (command, name)
        for out in ("report.json", "layouts/0.json", "layouts/1.json"):
            assert (t / f"shared_{out}").read_bytes() == (t / f"copies_{out}").read_bytes()

    def test_missing_layout_exit_2(self, tmp_path):
        assert run(["render", tmp_path / "nope.json", "--width", 10,
                    "--height", 10, "--out", tmp_path / "o.ppm"]) == 2


class TestRefine:
    def test_refine_with_masks(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = dataset_io.load_layout(t / "layouts" / "0.json")
        masks_dir = t / "masks"
        masks_dir.mkdir()
        # give the first proposal a mask covering the middle of its patch
        bits = np.zeros((16, 16), bool)
        bits[4:12, 4:12] = True
        mask_path = masks_dir / "p0.pgm"
        dataset_io.write_mask_pgm(bits, mask_path)
        doc["proposals"][0]["mask"] = str(mask_path)
        layout_path = t / "masked_layout.json"
        layout_path.write_text(json.dumps(doc))
        out = t / "refined.json"
        assert run(["refine", layout_path, "--width", 48, "--height", 48,
                    "--out", out, "--config", _cfg(t)]) == 0
        refined = dataset_io.load_layout(out)
        assert len(refined["proposals"]) == len(doc["proposals"])
        masked = [r for r in refined["proposals"] if r["mask"]]
        assert len(masked) == 1
        orig = doc["proposals"][0]["box"]
        new = masked[0]["box"]
        # mask covers the central half of the patch: the refined box shrinks
        assert new[2] <= 2 * max(orig[2], orig[3]) + 1e-6

    def test_empty_mask_passes_through(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = dataset_io.load_layout(t / "layouts" / "0.json")
        full = np.ones((16, 16), bool)
        empty = np.zeros((16, 16), bool)
        for i, bits in enumerate((empty, full)):
            dataset_io.write_mask_pgm(bits, t / f"p{i}.pgm")
            doc["proposals"][i]["mask"] = str(t / f"p{i}.pgm")
        layout_path = t / "masked_layout.json"
        layout_path.write_text(json.dumps(doc))
        out = t / "refined.json"
        assert run(["refine", layout_path, "--width", 48, "--height", 48,
                    "--out", out, "--config", _cfg(t)]) == 0
        refined = dataset_io.load_layout(out)
        # the empty-mask proposal comes through unchanged with the unmasked
        # ones, ahead of the single refined proposal
        assert refined["proposals"][0] == doc["proposals"][0]
        assert refined["proposals"][1:-1] == doc["proposals"][2:]
        assert refined["proposals"][-1]["mask"] == str(t / "p1.pgm")
        assert refined["dropped"] == doc["dropped"]


class TestAugmentMasks:
    def test_empty_mask_passes_through(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "plain", 1)
        plain = dataset_io.load_layout(t / "plain" / "0.json")
        masks = t / "masks"
        masks.mkdir()
        dataset_io.write_mask_pgm(np.zeros((16, 16), bool), masks / "0_0.pgm")
        dataset_io.write_mask_pgm(np.ones((16, 16), bool), masks / "0_1.pgm")
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--masks-dir", masks, "--out-layouts", t / "masked",
                    "--config", _cfg(t), "--seed", 7]) == 0
        doc = dataset_io.load_layout(t / "masked" / "0.json")
        # proposal 0 (empty mask) and the unmasked ones pass through as
        # sampled; only proposal 1 is refined, and it is last
        assert doc["proposals"][0] == plain["proposals"][0]
        assert doc["proposals"][1:-1] == plain["proposals"][2:]
        assert doc["proposals"][-1]["mask"] == str(masks / "0_1.pgm")
        assert doc["dropped"] == plain["dropped"]


class TestConfigFile:
    @pytest.mark.parametrize("field, value", [
        ("drivable_classes", "13"),
        ("drivable_classes", [1.7]),
        ("drivable_classes", 1),
        ("drivable_classes", [None]),
        ("augmentable_classes", [1, "2"]),
        ("tau", "5"),
        ("n_objects", 2.5),
        ("max_attempts", True),
        ("class_prior", "balanced"),
    ])
    def test_wrong_type_exit_2(self, fixture_dataset, capsys, field, value):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        cfg = t / "bad_config.json"
        cfg.write_text(json.dumps({field: value}))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field ") and repr(field) in err
        assert not (t / "layouts").exists() or not os.listdir(t / "layouts")

    def test_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        assert run(["fit", tmp_path / "annotations.json", "--out-model",
                    tmp_path / "m.json", "--config", cfg]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_numbers_accepted(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tau": 4, "window": 1.5, "augmentable_classes": None,
                                   "drivable_classes": [], "class_prior": "frequency"}))
        assert RunConfig.from_file(cfg).tau == 4


class TestRanges:
    @pytest.mark.parametrize("field, value", [
        ("show_prob", 7.0),
        ("show_prob", -0.1),
        ("min_visible_frac", 3.0),
        ("min_visible_composite", 1.5),
        ("max_attempts", 0),
        ("n_bins", 0),
        ("min_window_count", 0),
        ("tau", 0),
        ("window", -2.0),
        ("stride", 0.0),
        ("depth_scale", 0),
        ("n_objects", -1),
    ])
    def test_config_out_of_range_exit_2(self, fixture_dataset, capsys, field, value):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        cfg = t / "bad_config.json"
        cfg.write_text(json.dumps({field: value}))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field!r} must be ")
        assert not (t / "layouts").exists() or not os.listdir(t / "layouts")

    @pytest.mark.parametrize("flag, value, named", [
        ("--objects-per-frame", -3, "'n_objects'"),
        ("--jobs", -4, "--jobs"),
        ("--jobs", 0, "--jobs"),
        ("--tau", 0, "'tau'"),
    ])
    def test_flag_out_of_range_exit_2(self, fixture_dataset, capsys, flag, value, named):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", _cfg(t), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_model_config_out_of_range_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        doc = json.loads((t / "model.json").read_text())
        doc["config"]["max_attempts"] = 0
        (t / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", _cfg(t)]) == 2
        assert "'max_attempts'" in capsys.readouterr().err


class TestModelChecks:
    @pytest.mark.parametrize("probs", [[1.0], [1.5, -0.5], [0.5, 0.4]],
                             ids=["short", "negative", "sum-0.9"])
    def test_bad_class_prior_exit_2(self, fixture_dataset, capsys, probs):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        doc = json.loads((t / "model.json").read_text())
        assert doc["class_prior"]["classes"] == [1, 2]
        doc["class_prior"]["probs"] = probs
        (t / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", _cfg(t)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "class_prior" in err

    def test_augmentable_class_without_fit_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        cfg = t / "prior_config.json"
        cfg.write_text(json.dumps({"min_samples": 10, "min_window_count": 2,
                                   "drivable_classes": [1], "augmentable_classes": [1, 99]}))
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", cfg]) == 0
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", cfg]) == 2
        assert "no fitted model for class 99" in capsys.readouterr().err


    @pytest.mark.parametrize("mutate", [
        lambda d: [d],
        lambda d: dict(d, cameras=[]),
        lambda d: dict(d, cameras=dict(d["cameras"], front=[])),
        lambda d: dict(d, class_prior=dict(d["class_prior"], classes=["x", 2])),
    ], ids=["top-level-list", "cameras-list", "camera-list", "classes-not-integers"])
    def test_malformed_model_exit_2(self, fixture_dataset, capsys, mutate):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "model.json").read_text())
        assert "front" in doc["cameras"]
        (t / "model.json").write_text(json.dumps(mutate(doc)))
        capsys.readouterr()
        assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                    "--layouts", t / "layouts", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--out-report", t / "report.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.json" in err


class TestMalformedLayouts:
    @pytest.mark.parametrize("command", ["refine", "eval", "render"])
    @pytest.mark.parametrize("defect", ["no-box", "proposals-int"])
    def test_exit_2(self, fixture_dataset, capsys, command, defect):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = dataset_io.load_layout(t / "layouts" / "0.json")
        if defect == "no-box":
            del doc["proposals"][0]["box"]
        else:
            doc["proposals"] = 5
        (t / "layouts" / "0.json").write_text(json.dumps(doc))
        argv = {
            "refine": ["refine", t / "layouts" / "0.json", "--width", 48, "--height", 48,
                       "--out", t / "refined.json"],
            "eval": ["eval", t / "annotations.json", "--model", t / "model.json",
                     "--layouts", t / "layouts", "--depth-dir", t / "depth",
                     "--semantic-dir", t / "semantic", "--out-report", t / "report.json"],
            "render": ["render", t / "layouts" / "0.json", "--width", 48, "--height", 48,
                       "--out", t / "o.ppm"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "0.json" in err


@pytest.mark.parametrize("argv", [
    ["fit", "a.json", "--out-model", "m.json", "--seed", "1"],
    ["refine", "l.json", "--width", "4", "--height", "4", "--out", "o.json", "--tau", "3"],
    ["eval", "a.json", "--model", "m.json", "--layouts", "l", "--jobs", "2"],
    ["render", "l.json", "--width", "4", "--height", "4", "--out", "o.ppm",
     "--config", "x.json"],
])
def test_flag_not_taken_by_command_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in ("tau=5.0", "n_objects=12", "show_prob=0.5", "n_bins=50",
                "window=2.0", "stride=1.0", "min_samples=30",
                "min_visible_frac=0.25", "max_attempts=25"):
        assert key in out
