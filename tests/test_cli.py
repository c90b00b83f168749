import ast
import copy
import dataclasses
import glob
import importlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import scene_placer
from scene_placer import cli, dataset_io, fitting
from scene_placer.cli import main
from scene_placer.config import RunConfig
from scene_placer.geometry import BBox, DepthGrid, LabelGrid, crop_geometry

from conftest import write_depth_grid, write_label_grid, write_mask_pgm

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
        write_depth_grid(DepthGrid(vals), depth_dir / f"{fid}.pgm", DEPTH_SCALE)
        write_label_grid(LabelGrid(labels), sem_dir / f"{fid}.pgm")
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


# an array nested 100,000 deep: past any recursion limit of the JSON parser
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


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

    def test_camera_that_falls_back_prints_no_line_of_its_own(self, fixture_dataset, capsys):
        """A class short of min_samples on a camera has no fit there, so no
        line under that camera; its warning gives the camera's own count."""
        t = fixture_dataset
        ann, rear_counts = _rear_camera(t)
        capsys.readouterr()
        assert run(["fit", ann, "--depth-dir", t / "depth", "--out-model", t / "model.json",
                    "--config", _cfg(t)]) == 0
        out, err = capsys.readouterr()
        assert "camera front class 1:" in out and "camera * class 1:" in out
        assert "camera rear" not in out
        assert all(rear_counts.values())
        for cid, n in rear_counts.items():
            assert f"warning: camera rear class {cid}: {n} samples, using pooled fallback" in err

    def test_camera_named_like_the_pooled_fits_exit_2(self, fixture_dataset, capsys):
        """A model's camera "*" holds the pooled fits, so a real camera of
        that name would lose its own fits to them."""
        t = fixture_dataset
        doc = json.loads((t / "annotations.json").read_text())
        doc["images"][5]["camera"] = "*"
        (t / "star.json").write_text(json.dumps(doc))
        assert run(["fit", t / "star.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 2
        assert capsys.readouterr().err == \
            "error: camera id '*' is reserved for the fits pooled over all cameras\n"
        assert not (t / "model.json").exists()

    def test_fit_holds_one_depth_grid_at_a_time(self, tmp_path, rng):
        """fit over frames each on its own 400x300 depth file, 40 boxes under
        each 800x600 frame: the tracemalloc peak over 16 frames stays within
        one grid's float32 values of the peak over 4, which it would not if
        fit kept the grids it has read."""
        grid_bytes = 400 * 300 * 4

        def annotations(n):
            images, anns = [], []
            for i in range(n):
                write_depth_grid(DepthGrid(rng.uniform(1, 40, (300, 400)).astype(np.float32)),
                                 tmp_path / f"{n}_{i}.pgm", DEPTH_SCALE)
                images.append({"id": i, "width": 800, "height": 600,
                               "depth_path": f"{n}_{i}.pgm"})
                for k in range(40):
                    w, h = rng.uniform(5, 60, 2).tolist()
                    anns.append({"id": 40 * i + k, "image_id": i, "category_id": 1,
                                 "bbox": [rng.uniform(0, 800 - w), rng.uniform(0, 600 - h), w, h]})
            path = tmp_path / f"{n}.json"
            path.write_text(json.dumps({"images": images, "annotations": anns,
                                        "categories": [{"id": 1}]}))
            return path

        def fit_peak(n, path):
            tracemalloc.start()
            try:
                assert run(["fit", path, "--depth-dir", tmp_path,
                            "--out-model", tmp_path / f"{n}_model.json"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        paths = {n: annotations(n) for n in (4, 16)}
        assert run(["fit", paths[4], "--depth-dir", tmp_path,
                    "--out-model", tmp_path / "warm.json"]) == 0  # first-call imports
        peaks = {n: fit_peak(n, path) for n, path in paths.items()}
        assert peaks[16] < peaks[4] + grid_bytes, peaks

    def test_camera_id_that_utf8_cannot_encode_exit_2(self, fixture_dataset, capsys):
        """fit prints each camera id: one holding a lone surrogate has no
        UTF-8 form, so it is refused where it is read, before any output."""
        t = fixture_dataset
        doc = json.loads((t / "annotations.json").read_text())
        for im in doc["images"]:
            im["camera"] = "\ud800"
        (t / "surrogate.json").write_text(json.dumps(doc))
        assert run(["fit", t / "surrogate.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 2
        assert capsys.readouterr() == ("", f"error: {t / 'surrogate.json'}: images[0]:"
                                           " 'camera' must be a string that UTF-8 can encode,"
                                           " got '\\ud800'\n")
        assert not (t / "model.json").exists()


def _rear_camera(t):
    """The fixture's annotations with frame 5 on its own camera "rear", whose
    dozen boxes fall short of `_cfg`'s min_samples in each class; returns
    their path and the rear camera's box count per class."""
    doc = json.loads((t / "annotations.json").read_text())
    doc["images"][5]["camera"] = "rear"
    path = t / "two_cameras.json"
    path.write_text(json.dumps(doc))
    classes = [a["category_id"] for a in doc["annotations"] if a["image_id"] == 5]
    return path, {cid: classes.count(cid) for cid in (1, 2)}


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
        doc = json.loads((t / "layouts" / "0.json").read_text())
        assert doc["schema"] == 3
        assert doc["frame"] == [48, 48]
        assert len(doc["proposals"]) + doc["dropped"] == 12
        for rec in doc["proposals"]:
            assert set(rec) == {"index", "class", "d_sampled", "d", "anchor", "attempts",
                                "box", "patch", "show_prob", "mask"}
            assert rec["show_prob"] == 0.5
            # the inpainting patch of the sampled (clipped) box
            assert rec["patch"] == list(dataclasses.astuple(
                crop_geometry(BBox(*rec["box"]), 48, 48)))

    def test_model_with_pooled_copies_gives_the_same_layouts(self, fixture_dataset):
        """A model in the older layout of the same schema, with the pooled fit
        copied into each camera that falls back and every class record
        flagged "fallback", loads and augments to the same bytes."""
        t = fixture_dataset
        ann, _ = _rear_camera(t)
        grids = ["--depth-dir", t / "depth", "--semantic-dir", t / "semantic"]
        assert run(["fit", ann, *grids[:2], "--out-model", t / "model.json",
                    "--config", _cfg(t)]) == 0
        doc = json.loads((t / "model.json").read_text())
        cameras = doc["cameras"]
        assert "rear" not in cameras
        for cam, classes in cameras.items():
            for rec in classes.values():
                rec["fallback"] = cam == "*"
        cameras["rear"] = copy.deepcopy(cameras["*"])
        (t / "copies.json").write_text(json.dumps(doc))
        for model, out in (("model.json", "layouts"), ("copies.json", "copies")):
            assert run(["augment", ann, "--model", t / model, *grids, "--config", _cfg(t),
                        "--seed", 7, "--out-layouts", t / out]) == 0
        names = sorted(os.listdir(t / "layouts"))
        assert names == sorted(os.listdir(t / "copies")) and "5.json" in names
        for n in names:
            assert (t / "layouts" / n).read_bytes() == (t / "copies" / n).read_bytes()

    def test_model_with_config_echo_gives_the_same_layouts(self, fixture_dataset):
        """Older versions wrote the run config into the model as "config".
        Commands take every run parameter from their own config, so the key
        is ignored when read, whatever it holds, and not written back."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "model.json").read_text())
        assert "config" not in doc
        echo = dataclasses.asdict(dataset_io.load_config(_cfg(t)))  # as older versions wrote it
        for name, value in (("echo", echo), ("bad_echo", dict(echo, max_attempts=0))):
            older = t / f"{name}.json"
            older.write_text(json.dumps(dict(doc, config=value), indent=2, sort_keys=True) + "\n")
            assert run(["augment", t / "annotations.json", "--model", older,
                        "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                        "--out-layouts", t / name, "--config", _cfg(t), "--seed", 7]) == 0
            names = sorted(os.listdir(t / "layouts"))
            assert names == sorted(os.listdir(t / name)) and len(names) == 6
            for n in names:
                assert (t / "layouts" / n).read_bytes() == (t / name / n).read_bytes()
            dataset_io.save_model(dataset_io.load_model(older), t / "again.json")
            assert (t / "again.json").read_bytes() == (t / "model.json").read_bytes()

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


class TestAnnotationInput:
    def test_nested_too_deeply_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        (t / "deep.json").write_text(NESTED_TOO_DEEPLY)
        assert run(["fit", t / "deep.json", "--depth-dir", t / "depth",
                    "--out-model", t / "m.json"]) == 2
        assert capsys.readouterr().err == (f"error: {t / 'deep.json'}: arrays or objects"
                                           " nested too deeply to parse\n")
        assert not (t / "m.json").exists()

    def test_duplicate_image_id_exit_2(self, fixture_dataset, capsys):
        """Two images records with one id would make two frames sharing one
        box list, counted twice, and two writes of one layout file."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "annotations.json").read_text())
        doc["images"].append(dict(doc["images"][2]))
        (t / "dup.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["augment", t / "dup.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "dup_layouts", "--jobs", 2]) == 2
        assert f"{t / 'dup.json'}: images[6] repeats the id 2 of images[2]" \
            in capsys.readouterr().err
        assert not (t / "dup_layouts").exists()

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_id_past_int64_exit_2(self, fixture_dataset, capsys, value):
        t = fixture_dataset
        doc = json.loads((t / "annotations.json").read_text())
        doc["annotations"][3]["image_id"] = value
        (t / "big.json").write_text(json.dumps(doc))
        assert run(["fit", t / "big.json", "--depth-dir", t / "depth",
                    "--out-model", t / "m.json"]) == 2
        assert f"big.json: annotations[3]: 'image_id' must fit in int64, got {value}" \
            in capsys.readouterr().err

    def test_fit_and_eval_read_once_and_probe_each_frame_once(self, fixture_dataset,
                                                              monkeypatch):
        """The call shape perfbench's tracer counts: fit and eval each call
        read_annotations once and object_depth once per grid, through the one
        call site in fitting; each frame here has its own grid, so that is
        once per frame with that frame's full box columns."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        frames = dataset_io.read_annotations(t / "annotations.json")
        reads, probes = [], []
        read, probe = dataset_io.read_annotations, fitting.object_depth
        monkeypatch.setattr(dataset_io, "read_annotations",
                            lambda path: reads.append(path) or read(path))

        def counted_probe(grid, cx, by):
            probes.append((np.asarray(cx).tolist(), np.asarray(by).tolist()))
            return probe(grid, cx, by)

        monkeypatch.setattr(fitting, "object_depth", counted_probe)
        grids = ["--depth-dir", t / "depth", "--config", _cfg(t)]
        argv = {"fit": ["fit", t / "annotations.json", *grids, "--out-model", t / "m.json"],
                "eval": ["eval", t / "annotations.json", "--model", t / "model.json",
                         "--layouts", t / "layouts", "--semantic-dir", t / "semantic",
                         *grids, "--out-report", t / "r.json"]}
        order = {"fit": sorted(frames, key=lambda f: f.frame_id), "eval": frames}
        for command in ("fit", "eval"):
            reads.clear()
            probes.clear()
            assert run(argv[command]) == 0
            assert reads == [str(t / "annotations.json")]
            assert probes == [(f.boxes[:, 0].tolist(), f.boxes[:, 1].tolist())
                              for f in order[command]]


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
                    "--annotations", t / "annotations.json", "--out", t / "o.ppm"]) == 0
        first = (t / "o.ppm").read_bytes()
        assert first.startswith(b"P6\n48 48\n255\n")
        assert run(["render", t / "layouts" / "0.json",
                    "--annotations", t / "annotations.json", "--out", t / "o2.ppm"]) == 0
        assert first == (t / "o2.ppm").read_bytes()

    def test_render_skips_a_real_box_whose_edge_overflows(self, fixture_dataset):
        """A box of frame 0 at x = 1.7e308, 1.7e308 wide, has its right edge
        at infinity, far off the canvas: the overlay is the one drawn
        without it."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "annotations.json").read_text())
        doc["annotations"].append({"id": 999, "image_id": 0, "category_id": 1,
                                   "bbox": [1.7e308, 0.0, 1.7e308, 10.0]})
        (t / "huge.json").write_text(json.dumps(doc))
        for name in ("annotations", "huge"):
            assert run(["render", t / "layouts" / "0.json", "--annotations", t / f"{name}.json",
                        "--out", t / f"{name}.ppm"]) == 0
        assert (t / "huge.ppm").read_bytes() == (t / "annotations.ppm").read_bytes()

    def test_render_draws_on_the_layouts_frame(self, fixture_dataset):
        """render takes the canvas size from the layout: a layout whose frame
        is 64x56 gives the overlay render_overlay draws on a 64x56 canvas."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        doc["frame"] = [64, 56]
        (t / "wide.json").write_text(json.dumps(doc))
        assert run(["render", t / "wide.json", "--out", t / "o.ppm"]) == 0
        dataset_io.render_overlay(64, 56, [], [BBox(*r["box"]) for r in doc["proposals"]],
                                  t / "want.ppm")
        assert (t / "o.ppm").read_bytes() == (t / "want.ppm").read_bytes()
        assert (t / "o.ppm").read_bytes().startswith(b"P6\n64 56\n255\n")
        with pytest.raises(SystemExit) as e:  # the frame comes from the layout alone
            main(["render", str(t / "wide.json"), "--width", "64", "--out", str(t / "o.ppm")])
        assert e.value.code == 2

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
        assert run(["render", tmp_path / "nope.json", "--out", tmp_path / "o.ppm"]) == 2

    def test_two_layouts_of_one_frame_exit_2(self, fixture_dataset, capsys):
        """A copy of a layout under another name would count its frame twice."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        copy = t / "layouts" / "copy_of_3.json"
        copy.write_bytes((t / "layouts" / "3.json").read_bytes())
        capsys.readouterr()
        assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                    "--layouts", t / "layouts", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--out-report", t / "report.json",
                    "--config", _cfg(t)]) == 2
        assert capsys.readouterr().err == (
            f"error: frame 3 has two layouts: {t / 'layouts' / '3.json'} and {copy}\n")
        assert not (t / "report.json").exists()

    def test_band_validity_leaves_out_frames_without_a_scene(self, fixture_dataset, capsys):
        """A copy of frame 3's layout for frame 424242, which is not
        annotated: its proposals count in n_proposals but not in
        band_validity, and eval says how many it left unchecked."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)

        def evaluate(name):
            capsys.readouterr()
            assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                        "--layouts", t / "layouts", "--depth-dir", t / "depth",
                        "--semantic-dir", t / "semantic", "--config", _cfg(t),
                        "--out-report", t / f"{name}.json"]) == 0
            return json.loads((t / f"{name}.json").read_text()), capsys.readouterr().err

        alone, quiet = evaluate("alone")
        doc = json.loads((t / "layouts" / "3.json").read_text())
        (t / "layouts" / "424242.json").write_text(json.dumps(dict(doc, frame_id="424242")))
        with_copy, warned = evaluate("with_copy")
        n_copied = len(doc["proposals"])
        assert n_copied > 0 and quiet == ""
        assert with_copy["n_proposals"] == alone["n_proposals"] + n_copied
        assert with_copy["band_validity"] == alone["band_validity"] == 1.0
        assert warned == (f"warning: band_validity leaves out {n_copied} proposals of 1 frames"
                          " without an annotated depth and label grid\n")

    def test_layout_of_another_frame_size_exit_2(self, fixture_dataset, capsys):
        """Layouts made for 48x48 frames, scored against annotations whose
        frames are 96x96 (the 48x48 grids still fit them at scale 2)."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "annotations.json").read_text())
        for im in doc["images"]:
            im["width"], im["height"] = 2 * im["width"], 2 * im["height"]
        (t / "doubled.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", t / "doubled.json", "--model", t / "model.json",
                    "--layouts", t / "layouts", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--out-report", t / "report.json",
                    "--config", _cfg(t)]) == 2
        assert capsys.readouterr().err == (
            f"error: {t / 'layouts' / '0.json'}: the layout of frame 0 is for a 48x48 frame,"
            f" {t / 'doubled.json'} gives 96x96\n")
        assert not (t / "report.json").exists()

    def test_eval_reads_real_boxes_as_fit_does(self, fixture_dataset, monkeypatch):
        """Every real box with a depth grid has a disparity in eval, as in
        fit, whether or not its frame has a semantic map; eval reads a label
        grid only for a frame that has a layout."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        (t / "some").mkdir()
        for fid in (0, 1, 2):
            (t / "some" / f"{fid}.json").write_bytes((t / "layouts" / f"{fid}.json").read_bytes())
        doc = json.loads((t / "annotations.json").read_text())
        for im in doc["images"][3:]:
            del im["semantic_path"]
        (t / "no_semantic.json").write_text(json.dumps(doc))
        label_reads = []
        read = dataset_io.read_label_grid
        monkeypatch.setattr(dataset_io, "read_label_grid",
                            lambda *a: label_reads.append(a) or read(*a))
        for name in ("annotations", "no_semantic"):
            label_reads.clear()
            assert run(["eval", t / f"{name}.json", "--model", t / "model.json",
                        "--layouts", t / "some", "--depth-dir", t / "depth",
                        "--semantic-dir", t / "semantic", "--config", _cfg(t),
                        "--out-report", t / f"{name}_report.json"]) == 0
            assert len(label_reads) == 3
        report = (t / "annotations_report.json").read_bytes()
        assert (t / "no_semantic_report.json").read_bytes() == report
        assert all(c["ks_depth"] is not None for c in json.loads(report)["per_class"])


class TestFramesWithoutGrids:
    """A frame may lack a depth path or a semantic path: fit needs the depth
    of every frame with boxes, augment skips a frame without both grids, and eval reads
    the real boxes of a frame without depth for all but ks_depth."""

    @staticmethod
    def _without(t, fid, key, name):
        doc = json.loads((t / "annotations.json").read_text())
        del doc["images"][fid][key]
        path = t / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_fit_names_a_frame_without_depth_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        ann = self._without(t, 3, "depth_path", "no_depth")
        assert run(["fit", ann, "--depth-dir", t / "depth", "--out-model", t / "model.json",
                    "--config", _cfg(t)]) == 2
        assert capsys.readouterr().err == "error: frame 3 has no depth path\n"
        assert not (t / "model.json").exists()

    def test_fit_never_reads_a_frame_without_boxes(self, fixture_dataset):
        """Frame 998 has no grids and frame 999 a grid that does not scale to
        it; neither has boxes, so fit writes the model it writes without them."""
        t = fixture_dataset
        doc = json.loads((t / "annotations.json").read_text())
        doc["images"] += [{"id": 998, "width": 48, "height": 48},
                          {"id": 999, "width": 96, "height": 48, "depth_path": "0.pgm"}]
        (t / "bare.json").write_text(json.dumps(doc))
        for name in ("annotations", "bare"):
            assert run(["fit", t / f"{name}.json", "--depth-dir", t / "depth",
                        "--out-model", t / f"{name}_model.json", "--config", _cfg(t)]) == 0
        assert (t / "bare_model.json").read_bytes() == (t / "annotations_model.json").read_bytes()

    def test_augment_skips_a_frame_without_semantics(self, fixture_dataset, capsys):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        ann = self._without(t, 3, "semantic_path", "no_semantic")
        capsys.readouterr()
        assert run(["augment", ann, "--model", t / "model.json", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--config", _cfg(t), "--seed", 7,
                    "--out-layouts", t / "skipped"]) == 0
        assert capsys.readouterr().out.startswith("augmented 5 frames (1 skipped, ")
        assert sorted(os.listdir(t / "skipped")) == [f"{fid}.json" for fid in (0, 1, 2, 4, 5)]
        for name in os.listdir(t / "skipped"):
            assert (t / "skipped" / name).read_bytes() == (t / "layouts" / name).read_bytes()

    def test_eval_counts_a_frame_without_depth_in_all_but_ks_depth(self, fixture_dataset):
        """Against the full annotations, frame 3's boxes keep n_real,
        ks_height and ks_aspect; ks_depth is that of the annotations
        without frame 3."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "annotations.json").read_text())
        del doc["images"][3]
        (t / "no_frame.json").write_text(json.dumps(doc))
        reports = {}
        for ann in (t / "annotations.json", self._without(t, 3, "depth_path", "no_depth"),
                    t / "no_frame.json"):
            assert run(["eval", ann, "--model", t / "model.json", "--layouts", t / "layouts",
                        "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                        "--config", _cfg(t), "--out-report", t / "report.json"]) == 0
            reports[ann.stem] = json.loads((t / "report.json").read_text())
        full, no_depth, no_frame = reports["annotations"], reports["no_depth"], reports["no_frame"]
        assert no_depth["n_real"] == full["n_real"] > no_frame["n_real"]
        for got, want, without in zip(no_depth["per_class"], full["per_class"],
                                      no_frame["per_class"]):
            assert got["n_real"] == want["n_real"]
            assert (got["ks_height"], got["ks_aspect"]) == (want["ks_height"], want["ks_aspect"])
            assert got["ks_depth"] == without["ks_depth"] != want["ks_depth"]


class TestRefine:
    def test_refine_with_masks(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        masks_dir = t / "masks"
        masks_dir.mkdir()
        # give the first proposal a mask covering the middle of its patch
        bits = np.zeros((16, 16), bool)
        bits[4:12, 4:12] = True
        mask_path = masks_dir / "p0.pgm"
        write_mask_pgm(bits, mask_path)
        doc["proposals"][0]["mask"] = str(mask_path)
        layout_path = t / "masked_layout.json"
        layout_path.write_text(json.dumps(doc))
        # written to another directory, the layout still finds its mask
        (t / "elsewhere").mkdir()
        out = t / "elsewhere" / "refined.json"
        assert run(["refine", layout_path, "--width", 48, "--height", 48,
                    "--out", out, "--config", _cfg(t)]) == 0
        refined = dataset_io.load_layout(out)
        assert len(refined.proposals) == len(doc["proposals"])
        masked = [p for p in refined.proposals if p.mask_path]
        assert len(masked) == 1
        assert json.loads(out.read_text())["proposals"][-1]["mask"] == "../masks/p0.pgm"
        assert os.path.abspath(masked[0].mask_path) == str(mask_path)
        orig = doc["proposals"][0]["box"]
        # mask covers the central half of the patch: the refined box shrinks
        assert masked[0].box.w <= 2 * max(orig[2], orig[3]) + 1e-6

    def test_empty_mask_passes_through(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        full = np.ones((16, 16), bool)
        empty = np.zeros((16, 16), bool)
        for i, bits in enumerate((empty, full)):
            write_mask_pgm(bits, t / f"p{i}.pgm")
            doc["proposals"][i]["mask"] = str(t / f"p{i}.pgm")
        layout_path = t / "masked_layout.json"
        layout_path.write_text(json.dumps(doc))
        out = t / "refined.json"
        assert run(["refine", layout_path, "--width", 48, "--height", 48,
                    "--out", out, "--config", _cfg(t)]) == 0
        sampled = dataset_io.load_layout(layout_path)
        refined = dataset_io.load_layout(out)
        # the empty-mask proposal comes through unchanged with the unmasked
        # ones, ahead of the single refined proposal
        assert refined.proposals[0] == sampled.proposals[0]
        assert refined.proposals[1:-1] == sampled.proposals[2:]
        assert refined.proposals[-1].mask_path == str(t / "p1.pgm")
        assert refined.dropped == sampled.dropped


    def test_masked_box_outside_the_frame_names_layout_and_proposal(self, fixture_dataset,
                                                                    capsys):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        write_mask_pgm(np.ones((16, 16), bool), t / "m.pgm")
        rec = doc["proposals"][0]
        rec["mask"], rec["box"] = str(t / "m.pgm"), [60.0, 40.0, 4.0, 4.0]
        layout_path = t / "masked_layout.json"
        layout_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["refine", layout_path, "--out", t / "refined.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {layout_path}: proposal {rec['index']}: "
            "box does not intersect the 48x48 frame\n")
        assert not (t / "refined.json").exists()

    def test_unmasked_box_outside_the_frame_names_layout_and_proposal(self, fixture_dataset,
                                                                      capsys):
        # every proposal's box is checked against the frame, not only the
        # boxes of proposals with a mask
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        rec = doc["proposals"][0]
        assert all(r["mask"] is None for r in doc["proposals"])
        rec["box"] = [30.0, 60.0, 4.0, 4.0]
        layout_path = t / "unmasked_layout.json"
        layout_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["refine", layout_path, "--out", t / "refined.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {layout_path}: proposal {rec['index']}: "
            "box does not intersect the 48x48 frame\n")
        assert not (t / "refined.json").exists()

    def test_frame_flags_only_check_the_layouts_frame(self, fixture_dataset, capsys):
        """--width/--height, when given, must name the layout's own frame and
        then change nothing; any other size exits 2 naming both."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        layout = t / "layouts" / "0.json"
        assert run(["refine", layout, "--out", t / "plain.json"]) == 0
        for flags in (["--width", 48, "--height", 48], ["--width", 48], ["--height", 48]):
            assert run(["refine", layout, *flags, "--out", t / "flags.json"]) == 0
            assert (t / "flags.json").read_bytes() == (t / "plain.json").read_bytes()
        for flags, given in ((["--width", 50, "--height", 48], "50x48"),
                             (["--height", 47], "48x47")):
            capsys.readouterr()
            assert run(["refine", layout, *flags, "--out", t / "other.json"]) == 2
            assert capsys.readouterr().err == (
                f"error: {layout}: --width/--height give a {given} frame,"
                " the layout's is 48x48\n")
            assert not (t / "other.json").exists()

    def test_refining_a_refined_layout_changes_nothing(self, fixture_dataset):
        """Each mask is mapped into the patch stored at augment time, not one
        around the refined box, so a second refine writes the same bytes."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        bits = np.zeros((16, 16), bool)
        bits[4:12, 5:11] = True
        write_mask_pgm(bits, t / "m.pgm")
        for rec in doc["proposals"]:
            rec["mask"] = "m.pgm"
        (t / "masked.json").write_text(json.dumps(doc))
        assert run(["refine", t / "masked.json", "--out", t / "once.json",
                    "--config", _cfg(t)]) == 0
        assert run(["refine", t / "once.json", "--out", t / "twice.json",
                    "--config", _cfg(t)]) == 0
        once = json.loads((t / "once.json").read_text())
        assert [r["box"] for r in once["proposals"]] != [r["box"] for r in doc["proposals"]]
        assert (t / "twice.json").read_bytes() == (t / "once.json").read_bytes()


class TestAugmentMasks:
    def test_masks_dir_changes_only_mask(self, fixture_dataset, monkeypatch):
        # augment names each proposal's mask file, present or not, and reads
        # none: the boxes stay as sampled and `refine` applies the masks
        t = fixture_dataset
        _fit_and_augment(t, "plain", 1)
        plain = dataset_io.load_layout(t / "plain" / "0.json")
        masks = t / "masks"
        masks.mkdir()
        write_mask_pgm(np.zeros((16, 16), bool), masks / "0_0.pgm")
        write_mask_pgm(np.ones((16, 16), bool), masks / "0_1.pgm")
        monkeypatch.delattr(dataset_io, "read_mask_pgm")  # a read would exit 1
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--masks-dir", masks, "--out-layouts", t / "masked",
                    "--config", _cfg(t), "--seed", 7]) == 0
        aug = dataset_io.load_layout(t / "masked" / "0.json")
        assert aug.proposals == [
            dataclasses.replace(p, mask_path=str(masks / f"0_{p.provenance.index}.pgm"))
            for p in plain.proposals]
        assert aug.dropped == plain.dropped


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
        assert err.startswith(f"error: {cfg}: config: {field!r} must be ")
        assert not (t / "layouts").exists() or not os.listdir(t / "layouts")

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "config must be an object"),
        ("{\n", "Expecting property name"),
        ('{"taus": 5}', "config: unknown key 'taus'"),
        (NESTED_TOO_DEEPLY, "nested too deeply"),
    ], ids=["not-an-object", "not-json", "unknown-key", "nested-too-deeply"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert run(["fit", tmp_path / "annotations.json", "--out-model",
                    tmp_path / "m.json", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and named in err

    def test_numbers_accepted(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tau": 4, "window": 1.5, "augmentable_classes": None,
                                   "drivable_classes": [0, 255], "class_prior": "frequency"}))
        assert dataset_io.load_config(cfg).tau == 4


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
        pytest.param("drivable_classes", [], id="drivable_classes-empty"),
        pytest.param("drivable_classes", [300], id="drivable_classes-300"),
        pytest.param("drivable_classes", [-1], id="drivable_classes-minus-1"),
        pytest.param("class_prior", "x" * 300, id="class_prior-300-chars"),
        ("min_samples", 1),
        ("min_samples", 0),
        ("min_samples", -4),
        ("tau", "1e400"),  # written as the JSON number 1e400, which parses to inf
        ("tau", float("inf")),
        ("stride", float("inf")),
        pytest.param("depth_scale", 10 ** 400, id="depth_scale-10**400"),
        # grids are scaled in float32: 0, subnormal, and overflowing at 65535
        ("depth_scale", 1e-50),
        ("depth_scale", 1e-40),
        ("depth_scale", 1e39),
    ])
    def test_config_out_of_range_exit_2(self, fixture_dataset, capsys, field, value):
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        cfg = t / "bad_config.json"
        cfg.write_text(json.dumps({field: value}).replace('"1e400"', "1e400"))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "layouts", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: config: {field!r} must be ")
        assert "\n" not in err[:-1] and len(err.encode()) < 200
        assert not (t / "layouts").exists() or not os.listdir(t / "layouts")

    def test_depth_scale_bounds_are_those_of_float32(self):
        """Around the smallest normal float32 and around the largest scale
        whose product with 65535 is finite in float32, a value is accepted
        exactly when numpy's float32 reading of a grid would give a normal,
        finite disparity."""
        f32 = np.finfo(np.float32)
        edges = (f32.tiny, np.float32(f32.max / np.float32(65535)))
        for edge in edges:
            for step in range(-3, 4):
                v = np.float32(edge)
                for _ in range(abs(step)):
                    v = np.nextafter(v, np.float32(np.sign(step) * np.inf))
                with np.errstate(over="ignore"):
                    top = np.float32(65535) * v
                valid = bool(v >= f32.tiny and np.isfinite(top))
                try:
                    RunConfig(depth_scale=float(v))
                    accepted = True
                except ValueError as e:
                    assert str(e).startswith("'depth_scale' must be ")
                    accepted = False
                assert accepted == valid, (float(v), step)

    @pytest.mark.parametrize("flag, value, named", [
        ("--objects-per-frame", -3, "'n_objects'"),
        ("--tau", 0, "'tau'"),
        ("--tau", "inf", "'tau'"),
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

    @pytest.mark.parametrize("value", [[1, 1, 2], []], ids=["repeated", "empty"])
    def test_augmentable_classes_out_of_range_exit_2(self, fixture_dataset, capsys, value):
        """A repeated class would get a double share of the uniform prior,
        and an empty list leaves nothing to place."""
        t = fixture_dataset
        cfg = t / "bad_config.json"
        cfg.write_text(json.dumps({"augmentable_classes": value}))
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: config: 'augmentable_classes' must be ")
        assert not (t / "model.json").exists()

    def test_frequency_prior_without_samples_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        cfg = t / "prior_config.json"
        cfg.write_text(json.dumps({"augmentable_classes": [9], "class_prior": "frequency"}))
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: augmentable classes [9] have no fit: ")
        assert not (t / "model.json").exists()


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
        """fit writes no model whose prior draws a class it did not fit."""
        t = fixture_dataset
        cfg = t / "prior_config.json"
        cfg.write_text(json.dumps({"min_samples": 10, "min_window_count": 2,
                                   "drivable_classes": [1], "augmentable_classes": [1, 99]}))
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == ("error: augmentable classes [99] have no fit:"
                       " fewer than min_samples=10 samples overall\n")
        assert not (t / "model.json").exists()

    @pytest.mark.parametrize("cameras", [["*"], ["*", "front"]], ids=["pooled", "everywhere"])
    @pytest.mark.parametrize("command", ["augment", "eval"])
    def test_prior_class_without_pooled_fit_exit_2(self, fixture_dataset, capsys, command,
                                                   cameras):
        """The prior draws class 1, which every camera without a fit of its
        own finds in the pooled fits: a model without that fit is refused
        when read, whichever class a draw would reach."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "model.json").read_text())
        for cam in cameras:
            del doc["cameras"][cam]["1"]
        (t / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        argv = [command, t / "annotations.json", "--model", t / "model.json",
                "--depth-dir", t / "depth", "--semantic-dir", t / "semantic", "--config", _cfg(t)]
        out = ["--out-layouts", t / "out"] if command == "augment" else [
            "--layouts", t / "layouts", "--out-report", t / "report.json"]
        assert run(argv + out) == 2
        assert capsys.readouterr().err == (
            f"error: {t / 'model.json'}: malformed model document: class_prior draws"
            " classes [1], which have no pooled ('*') fit\n")
        assert not (t / "out").exists() and not (t / "report.json").exists()

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: [d], "top level"),
        (lambda d: dict(d, cameras=[]), "'cameras'"),
        (lambda d: dict(d, cameras=dict(d["cameras"], front=[])), "'front'"),
        (lambda d: dict(d, class_prior=dict(d["class_prior"], classes=["x", 2])), "classes"),
        # a second spelling of class 1 must not replace its record
        (lambda d: dict(d, cameras=dict(d["cameras"], front=dict(
            d["cameras"]["front"], **{"01": dict(d["cameras"]["front"]["1"], count=7)}))),
         "cameras['front']['01']"),
        (lambda d: dict(d, cameras=dict(d["cameras"], front=dict(d["cameras"]["front"], **{
            "1": dict(d["cameras"]["front"]["1"], height_mu_curve=dict(
                d["cameras"]["front"]["1"]["height_mu_curve"], a=float("nan")))}))),
         "cameras['front']['1'].height_mu_curve: 'a' must be a finite number"),
        # x**0.5 of a negative depth is complex
        (lambda d: dict(d, cameras=dict(d["cameras"], front=dict(d["cameras"]["front"], **{
            "1": dict(d["cameras"]["front"]["1"], height_mu_curve=dict(
                d["cameras"]["front"]["1"]["height_mu_curve"], lo=-5.0, hi=-1.0, c=0.5))}))),
         "power curve domain [-5.0, -1.0] must have 0 < lo <= hi"),
    ], ids=["top-level-list", "cameras-list", "camera-list", "classes-not-integers",
            "class-key-01", "curve-nan", "curve-domain-negative"])
    def test_malformed_model_exit_2(self, fixture_dataset, capsys, mutate, named):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "model.json").read_text())
        assert "front" in doc["cameras"]
        (t / "model.json").write_text(json.dumps(mutate(doc)))
        capsys.readouterr()
        assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                    "--layouts", t / "layouts", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--out-report", t / "report.json"]) == 2
        line = capsys.readouterr().err.rstrip("\n")
        assert line.startswith(f"error: {t / 'model.json'}: ") and named in line
        assert "\n" not in line and len(line.encode()) < 200

    def test_sampling_overflow_exit_2(self, fixture_dataset, capsys):
        """Every depth mu at 1000 makes the first draw exp(1000), past the
        float range: augment names the frame and the model and writes no
        layout."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "model.json").read_text())
        for classes in doc["cameras"].values():
            for rec in classes.values():
                rec["depth"]["mu"] = 1000.0
        (t / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["augment", t / "annotations.json", "--model", t / "model.json",
                    "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                    "--out-layouts", t / "out", "--config", _cfg(t), "--jobs", 2]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: frame 0: sampling from {t / 'model.json'} overflows ")
        assert err.endswith(": the model's values are out of range\n") and "\n" not in err[:-1]
        assert not (t / "out").exists() or not os.listdir(t / "out")


class TestMalformedLayouts:
    @pytest.mark.parametrize("command", ["refine", "eval", "render"])
    @pytest.mark.parametrize("defect", ["no-box", "proposals-int", "v1", "infinite-width",
                                        "nested-too-deeply"])
    def test_exit_2(self, fixture_dataset, capsys, command, defect):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        doc = json.loads((t / "layouts" / "0.json").read_text())
        if defect == "no-box":
            del doc["proposals"][0]["box"]
        elif defect == "proposals-int":
            doc["proposals"] = 5
        elif defect == "infinite-width":
            doc["proposals"][0]["box"][2] = float("inf")
        elif defect == "v1":  # the layout format before schema 2
            del doc["schema"]
            for rec in doc["proposals"]:
                for key in ("index", "d_sampled", "anchor", "attempts"):
                    del rec[key]
        (t / "layouts" / "0.json").write_text(
            NESTED_TOO_DEEPLY if defect == "nested-too-deeply" else json.dumps(doc))
        argv = {
            "refine": ["refine", t / "layouts" / "0.json", "--width", 48, "--height", 48,
                       "--out", t / "refined.json"],
            "eval": ["eval", t / "annotations.json", "--model", t / "model.json",
                     "--layouts", t / "layouts", "--depth-dir", t / "depth",
                     "--semantic-dir", t / "semantic", "--out-report", t / "report.json"],
            "render": ["render", t / "layouts" / "0.json", "--out", t / "o.ppm"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "0.json" in err


class TestMalformedGrids:
    def _argv(self, t, command):
        return {
            "fit": ["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "m.json", "--config", _cfg(t)],
            "augment": ["augment", t / "annotations.json", "--model", t / "model.json",
                        "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                        "--out-layouts", t / "out", "--config", _cfg(t)],
            "eval": ["eval", t / "annotations.json", "--model", t / "model.json",
                     "--layouts", t / "layouts", "--depth-dir", t / "depth",
                     "--semantic-dir", t / "semantic", "--out-report", t / "report.json",
                     "--config", _cfg(t)],
        }[command]

    def test_non_numeric_header_field_exit_2(self, fixture_dataset, capsys):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        bad = t / "semantic" / "3.pgm"
        bad.write_bytes(b"P5\nxx 4\n255\n" + bytes(16))
        capsys.readouterr()
        assert run(self._argv(t, "augment")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", ["fit", "augment", "eval"])
    def test_zero_size_grids_exit_2(self, fixture_dataset, capsys, command):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        (t / "depth" / "2.pgm").write_bytes(b"P5\n0 0\n65535\n")
        (t / "semantic" / "2.pgm").write_bytes(b"P5\n0 0\n255\n")
        capsys.readouterr()
        assert run(self._argv(t, command)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {t / 'depth' / '2.pgm'}: ") and "\n" not in err[:-1]

    @pytest.mark.parametrize("command", ["fit", "augment", "eval"])
    def test_grid_scaled_unequally_to_its_frame_exit_2(self, fixture_dataset, capsys, command):
        """A 24x12 grid under frame 2's 48x48 frame: 2 frame pixels per grid
        pixel across, 4 down. Every command that reads the grid refuses it,
        naming the frame and both scales; augment and eval, which find it
        while building the frame's scene, also name both grid files."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        write_depth_grid(DepthGrid(np.ones((12, 24), np.float32)), t / "depth" / "2.pgm",
                         DEPTH_SCALE)
        write_label_grid(LabelGrid(np.ones((12, 24), np.uint8)), t / "semantic" / "2.pgm")
        capsys.readouterr()
        assert run(self._argv(t, command)) == 2
        files = ("" if command == "fit" else
                 f": depth {t / 'depth' / '2.pgm'}, labels {t / 'semantic' / '2.pgm'}")
        assert capsys.readouterr().err == (
            f"error: frame 2: grid-to-frame scale differs between axes: 2 across, 4 down{files}\n")

    @pytest.mark.parametrize("command", ["augment", "eval"])
    def test_label_grid_of_another_shape_names_the_frame(self, fixture_dataset, capsys,
                                                         command):
        """Frame 2's label grid is 24x24 under its 48x48 depth grid."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        write_label_grid(LabelGrid(np.ones((24, 24), np.uint8)), t / "semantic" / "2.pgm")
        capsys.readouterr()
        assert run(self._argv(t, command)) == 2
        assert capsys.readouterr().err == (
            "error: frame 2: depth and drivable grids differ in shape:"
            f" depth {t / 'depth' / '2.pgm'}, labels {t / 'semantic' / '2.pgm'}\n")

    def test_frame_without_drivable_pixels_names_the_frame(self, fixture_dataset, capsys):
        """Frame 2's labels hold no drivable class (the config's is 1)."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        write_label_grid(LabelGrid(np.full((48, 48), 7, np.uint8)), t / "semantic" / "2.pgm")
        capsys.readouterr()
        assert run(self._argv(t, "augment")) == 2
        assert capsys.readouterr().err == (
            "error: frame 2: cannot reset depth: no drivable pixels of the drivable classes"
            " [1]\n")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_augment_writes_no_layout(self, fixture_dataset, jobs):
        """Frame 2 fails while the frames around it succeed; the run writes
        none of their layouts, whatever order the workers finish in."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        write_label_grid(LabelGrid(np.full((48, 48), 7, np.uint8)), t / "semantic" / "2.pgm")
        assert run(self._argv(t, "augment") + ["--jobs", jobs]) == 2
        assert os.listdir(t / "out") == []

    def test_zero_size_mask_in_refine_exit_2(self, fixture_dataset, capsys):
        """A 0x0 mask is a malformed file, not an empty mask to pass through."""
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        mask = t / "m.pgm"
        mask.write_bytes(b"P5\n0 0\n255\n")
        doc = json.loads((t / "layouts" / "0.json").read_text())
        doc["proposals"][0]["mask"] = str(mask)
        (t / "layouts" / "0.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["refine", t / "layouts" / "0.json", "--width", 48, "--height", 48,
                    "--out", t / "refined.json"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {mask}: ")
        assert not (t / "refined.json").exists()


@pytest.mark.parametrize("case", ["config-is-dir", "annotations-is-dir", "layouts-is-file"])
def test_path_of_the_wrong_kind_exit_2(fixture_dataset, capsys, case):
    t = fixture_dataset
    assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
    argv, named = {
        "config-is-dir": (["fit", t / "annotations.json", "--out-model", t / "m.json",
                           "--config", t / "depth"], t / "depth"),
        "annotations-is-dir": (["fit", t / "depth", "--out-model", t / "m.json"], t / "depth"),
        "layouts-is-file": (["eval", t / "annotations.json", "--model", t / "model.json",
                             "--layouts", t / "model.json"], t / "model.json"),
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err


@pytest.mark.parametrize("argv", [
    ["fit", "a.json", "--out-model", "m.json", "--seed", "1"],
    ["refine", "l.json", "--width", "4", "--height", "4", "--out", "o.json", "--tau", "3"],
    ["eval", "a.json", "--model", "m.json", "--layouts", "l", "--jobs", "2"],
    ["render", "l.json", "--out", "o.ppm", "--config", "x.json"],
])
def test_flag_not_taken_by_command_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["refine"])
@pytest.mark.parametrize("width, height, named", [
    ("0", "0", "--width"), ("0", "5", "--width"), ("5", "-3", "--height"),
    ("4.5", "4", "--width")])
def test_frame_size_below_one_exit_2(fixture_dataset, capsys, command, width, height, named):
    """A frame side below 1 (or not an integer) is a usage error naming the
    flag; no layout is written."""
    t = fixture_dataset
    _fit_and_augment(t, "layouts", 1)
    out = t / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main([str(a) for a in (command, t / "layouts" / "0.json", "--width", width,
                                "--height", height, "--out", out)])
    assert e.value.code == 2
    assert f"argument {named}: must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-4", "0"])
def test_jobs_below_one_exit_2(capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["augment", "a.json", "--model", "m.json", "--out-layouts", "l", "--jobs", value])
    assert e.value.code == 2
    assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["augment", "a.json", "--model", "m.json", "--out-layouts", "l"],
    ["eval", "a.json", "--model", "m.json", "--layouts", "l"],
])
@pytest.mark.parametrize("value", ["", ",", "1,,2", "1,", "1,x", "1.5"])
def test_drivable_classes_not_a_list_of_integers_exit_2(argv, value, capsys):
    """An empty list, an empty item or a non-integer is a usage error naming
    the flag, not the default classes or a bare int() message."""
    with pytest.raises(SystemExit) as e:
        main(argv + ["--drivable-classes", value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --drivable-classes: must be comma-separated integers, got {value!r}" in err


def test_outputs_get_the_mode_of_a_plain_open(fixture_dataset):
    """Every file a command writes gets the mode that open(path, "w") gives
    in the same directory under the same umask, and no temporary file stays."""
    t = fixture_dataset
    umask = os.umask(0o022)
    try:
        _fit_and_augment(t, "layouts", 1)
        assert run(["refine", t / "layouts" / "0.json", "--width", 48, "--height", 48,
                    "--out", t / "refined.json"]) == 0
        assert run(["eval", t / "annotations.json", "--model", t / "model.json",
                    "--layouts", t / "layouts", "--depth-dir", t / "depth",
                    "--semantic-dir", t / "semantic", "--config", _cfg(t),
                    "--out-report", t / "report.json", "--out-text", t / "report.txt"]) == 0
        assert run(["render", t / "layouts" / "0.json", "--out", t / "o.ppm"]) == 0
        for directory in (t, t / "layouts"):
            with open(directory / "plain", "w"):
                pass
    finally:
        os.umask(umask)
    layouts = sorted((t / "layouts").glob("*.json"))
    assert len(layouts) == 6
    for path in [t / "model.json", *layouts, t / "refined.json", t / "report.json",
                 t / "report.txt", t / "o.ppm"]:
        want = stat.S_IMODE(os.stat(path.parent / "plain").st_mode)
        assert stat.S_IMODE(os.stat(path).st_mode) == want, path
    assert not [p for p in (*t.iterdir(), *(t / "layouts").iterdir())
                if p.name.startswith(".tmp-")]


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in ("tau=5.0", "n_objects=12", "show_prob=0.5", "n_bins=50",
                "window=2.0", "stride=1.0", "min_samples=30",
                "min_visible_frac=0.25", "max_attempts=25"):
        assert key in out


SRC = os.path.dirname(os.path.dirname(os.path.abspath(scene_placer.__file__)))
LAYERS = os.path.join(os.path.dirname(SRC), "perfbench", "layers.json")

# runs the CLI on argv[1:], then prints its exit code and whether numpy loaded
_CLI_THEN_NUMPY = """
import sys
from scene_placer.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(code, "numpy._core" in sys.modules)
"""


def _env(**changes):
    """This environment with the package on the path and PYTHONUNBUFFERED
    unset unless `changes` set it, so a child's stdout to a file or pipe is
    block-buffered as in a plain shell; `changes` set variables, or unset
    those given None."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for name, value in dict({"PYTHONUNBUFFERED": None}, **changes).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _launch(*args, entry=("-m", "scene_placer.cli"), stdout=subprocess.PIPE, env=None):
    """A new interpreter on `python -m scene_placer.cli args` (or `entry`
    given, such as `("-c", code)`); the finished process, stderr as text."""
    return subprocess.run([sys.executable, *entry, *map(str, args)], env=env or _env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _fresh(code, *args, env=None):
    """Run `code` in a new interpreter that imports this package; its stdout.
    The test process has numpy loaded, so only a new one shows when it loads."""
    proc = _launch(*args, entry=("-c", code), env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFreshInterpreter:
    def test_help_and_unmasked_refine_never_load_numpy(self, fixture_dataset):
        t = fixture_dataset
        _fit_and_augment(t, "layouts", 1)
        assert _fresh(_CLI_THEN_NUMPY, "--help").splitlines()[-1] == "0 False"
        refine = ["refine", "--config", _cfg(t)]
        assert _fresh(_CLI_THEN_NUMPY, *refine, t / "layouts" / "0.json",
                      "--out", t / "fresh.json").splitlines()[-1] == "0 False"
        assert run([*refine, t / "layouts" / "0.json", "--out", t / "in_process.json"]) == 0
        assert (t / "fresh.json").read_bytes() == (t / "in_process.json").read_bytes()
        # the probe sees numpy once a mask is read
        doc = json.loads((t / "layouts" / "0.json").read_text())
        write_mask_pgm(np.ones((16, 16), bool), t / "m.pgm")
        doc["proposals"][0]["mask"] = str(t / "m.pgm")
        (t / "masked.json").write_text(json.dumps(doc))
        assert _fresh(_CLI_THEN_NUMPY, *refine, t / "masked.json",
                      "--out", t / "masked_out.json").splitlines()[-1] == "0 True"

    def test_import_cli_imports_every_traced_layer(self):
        """perfbench's tracer rebinds functions in the modules it finds
        imported after `import scene_placer.cli`: every layer it lists."""
        with open(LAYERS, encoding="utf-8") as f:
            layers = sorted(json.load(f))
        loaded = _fresh("import sys, scene_placer.cli; print(*sys.modules)").split()
        assert [m for m in layers if f"scene_placer.{m}" not in loaded] == []

    def test_augment_threads_write_the_same_bytes(self, fixture_dataset):
        """Through the process entry, so with its one BLAS thread."""
        t = fixture_dataset
        assert run(["fit", t / "annotations.json", "--depth-dir", t / "depth",
                    "--out-model", t / "model.json", "--config", _cfg(t)]) == 0
        for jobs in (1, 2):
            proc = _launch("augment", t / "annotations.json", "--model", t / "model.json",
                           "--depth-dir", t / "depth", "--semantic-dir", t / "semantic",
                           "--config", _cfg(t), "--seed", 7, "--jobs", jobs,
                           "--out-layouts", t / f"j{jobs}")
            assert proc.returncode == 0, proc.stderr
        names = sorted(os.listdir(t / "j1"))
        assert len(names) == 6 and names == sorted(os.listdir(t / "j2"))
        for name in names:
            assert (t / "j1" / name).read_bytes() == (t / "j2" / name).read_bytes()

    def test_numpy_not_found_raises_module_not_found(self):
        """Without numpy on the path the package raises the usual
        ModuleNotFoundError naming numpy, not an error of the lazy loader."""
        out = _fresh("""
import importlib.util, os, sys
sys.path[:] = [p for p in sys.path if not os.path.exists(os.path.join(p, "numpy"))]
assert importlib.util.find_spec("numpy") is None
try:
    import scene_placer.cli
except ModuleNotFoundError as e:
    print("ModuleNotFoundError", e.name)
""")
        assert out.splitlines() == ["ModuleNotFoundError numpy"]

    def test_no_module_but_the_lazy_loader_imports_numpy(self):
        """The rule of _numpy.py, checked at any depth: an `import numpy` in a
        function loads numpy when the function runs."""
        pkg = os.path.dirname(os.path.abspath(scene_placer.__file__))
        found = []
        for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
            if path == os.path.join(pkg, "_numpy.py"):
                continue
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(n == "numpy" or n.startswith("numpy.") for n in names):
                    found.append(f"{os.path.relpath(path, pkg)}:{node.lineno}")
        assert found == []


class TestProcessEntry:
    """`cli.run`, the entry of `python -m scene_placer.cli` and of the
    `scene-placer` script: it flushes stdout and stderr and ends the
    process with `os._exit`, so these run it in a new interpreter."""

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["scene-placer"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run

    @pytest.mark.parametrize("argv, code, stderr", [
        (["--help"], 0, ""),
        ([], 2, "usage: scene-placer"),
        (["fit", "missing.json", "--out-model", "m.json"], 2, "error: "),
    ])
    def test_exit_codes(self, tmp_path, argv, code, stderr):
        proc = _launch(*(tmp_path / a if a.endswith(".json") else a for a in argv),
                       stdout=subprocess.DEVNULL)
        assert (proc.returncode, proc.stderr[:len(stderr)]) == (code, stderr)

    def test_internal_error_exit_1(self):
        code = "from scene_placer import cli\ncli.cmd_render = lambda args: 1 / 0\ncli.run()"
        proc = _launch("render", "l.json", "--out", "o.ppm", entry=("-c", code))
        assert (proc.returncode, proc.stderr) == (1, "internal error: division by zero\n")

    @pytest.mark.parametrize("closed", [">&-", ">&- 2>&-"])
    def test_help_with_stdout_closed_exit_0(self, closed):
        proc = subprocess.run(["sh", "-c", f'"$@" {closed}', "sh", sys.executable, "-m",
                               "scene_placer.cli", "--help"], env=_env(), timeout=120,
                              stderr=subprocess.DEVNULL)
        assert proc.returncode == 0

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["help", "fit"])
    def test_failed_flush_exit_120(self, fixture_dataset, command, unbuffered):
        """Written unbuffered as the command runs, stdout would fail inside
        it, where argparse drops the error and `main` calls it an input
        error; buffered, at the flush. Either way the process exits 120."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        t = fixture_dataset
        argv = {"help": ["--help"],
                "fit": ["fit", t / "annotations.json", "--depth-dir", t / "depth",
                        "--config", _cfg(t), "--out-model", t / "model.json"]}[command]
        with open("/dev/full", "w") as full:
            proc = _launch(*argv, stdout=full, env=_env(PYTHONUNBUFFERED=unbuffered))
        assert proc.returncode == 120
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert (t / "model.json").exists() == (command == "fit")

    def test_outputs_complete_in_a_redirected_file(self, fixture_dataset, capsys, monkeypatch):
        t = fixture_dataset
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        fit = ["fit", t / "annotations.json", "--depth-dir", t / "depth", "--config", _cfg(t)]
        assert run([*fit, "--out-model", t / "in_process.json"]) == 0
        fit_lines = capsys.readouterr().out
        assert "class" in fit_lines
        for argv, expected in ((["--help"], help_text),
                               ([*fit, "--out-model", t / "fresh.json"], fit_lines)):
            with open(t / "stdout.txt", "w") as out:
                proc = _launch(*argv, stdout=out, env=_env(COLUMNS="80"))
            assert proc.returncode == 0, proc.stderr
            assert (t / "stdout.txt").read_text() == expected
        assert (t / "fresh.json").read_bytes() == (t / "in_process.json").read_bytes()

    @pytest.mark.parametrize("user, seen", [(None, "1"), ("3", "3")])
    def test_one_blas_thread_unless_the_user_says(self, user, seen):
        code = ("import os\n"
                "from scene_placer import cli\n"
                "cli.main = lambda: print(os.environ.get('OPENBLAS_NUM_THREADS')) or 0\n"
                "cli.run()")
        assert _fresh(code, env=_env(OPENBLAS_NUM_THREADS=user)) == f"{seen}\n"

    def test_import_and_main_leave_environ_alone(self, fixture_dataset, monkeypatch):
        code = ("import os\n"
                "before = dict(os.environ)\n"
                "import scene_placer, scene_placer.cli\n"
                "print(dict(os.environ) == before)")
        assert _fresh(code, env=_env(OPENBLAS_NUM_THREADS=None)) == "True\n"
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        _fit_and_augment(fixture_dataset, "layouts", 2)
        assert dict(os.environ) == before
