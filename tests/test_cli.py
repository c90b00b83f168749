import json
import os

import numpy as np
import pytest

from scene_placer import dataset_io
from scene_placer.cli import main
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

    def test_env_jobs_fallback(self, fixture_dataset, monkeypatch):
        t = fixture_dataset
        monkeypatch.setenv("SCENE_PLACER_JOBS", "4")
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts_env", "--config", _cfg(t),
                    "--seed", 7]) == 0
        _fit_and_augment(t, "layouts1", 1)
        for n in os.listdir(t / "layouts1"):
            assert (t / "layouts1" / n).read_bytes() == (t / "layouts_env" / n).read_bytes()


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


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in ("tau=5.0", "n_objects=12", "show_prob=0.5", "n_bins=50",
                "window=2.0", "stride=1.0", "min_samples=30",
                "min_visible_frac=0.25", "max_attempts=25"):
        assert key in out
