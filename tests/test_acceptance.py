"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from scene_placer import dataset_io
from scene_placer.cli import main as cli_main
from scene_placer.config import RunConfig
from scene_placer.evaluate import ks_statistic, layout_report
from scene_placer.fitting import fit_model, fit_power_curve
from scene_placer.geometry import DepthGrid, DrivableMask, LabelGrid, PatchRect, placement_band
from scene_placer.masks import (
    InstanceMask,
    composite_masks,
    composite_order,
    rasterize_mask,
    refine_bbox,
)
from scene_placer.sampler import (
    FrameAugmentation,
    augment_frame,
    propose,
    substream,
)

from conftest import (
    assert_frames_hold_columns,
    draw_objects,
    make_class_model,
    make_model,
    make_scene,
    open_scene,
    pixel_xy,
    propose_random_location,
    synthetic_dataset,
    write_depth_grid,
    write_label_grid,
)


class _criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.num} [{self.desc}]: {status}")
        return False


def test_criterion_1_band_correctness():
    with _criterion(1, "band correctness on randomized scenes"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        model = make_model([make_class_model(class_id=1),
                            make_class_model(class_id=2, depth_mu=1.5)])
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        total = 0
        for s in range(100):
            side = int(rng.integers(16, 129))
            depth_vals = rng.uniform(0, 30, (side, side)).astype(np.float32)
            bits = rng.random((side, side)) < rng.uniform(0.2, 0.9)
            if not bits.any():
                bits[0, 0] = True
            scene = make_scene(depth_vals, bits, frame_scale=10)

            # placement_band vs brute-force enumeration on this scene
            d_probe = float(rng.uniform(0, 30))
            band = placement_band(scene.band_index, d_probe, 5.0)
            expect = [
                (x, y)
                for y in range(side)
                for x in range(side)
                if bits[y, x] and abs(float(depth_vals[y, x]) - d_probe) <= 5.0
            ]
            assert [tuple(p) for p in pixel_xy(band, side).tolist()] == expect

            for i in range(100):
                p = propose(scene, model, substream(s, f"scene{s}", i), params)
                x, y = p.provenance.anchor_px
                assert scene.drivable.bits[y, x]
                assert abs(float(scene.depth.values[y, x]) - p.d_effective) <= 5.0
                total += 1
        assert total >= 10_000
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_fit_recovery():
    with _criterion(2, "fit recovery from a known generative process"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)

        # exact-recovery case for the power-curve fitter
        xs = np.arange(1.0, 11.0)
        ys = 1.0 + 2.0 * xs**0.5
        curve = fit_power_curve(xs, ys)
        assert abs(curve.a - 1.0) <= 1e-3
        assert abs(curve.b - 2.0) <= 1e-3
        assert abs(curve.c - 0.5) <= 1e-3
        assert ((ys - (curve.a + curve.b * xs**curve.c)) ** 2).sum() <= 1e-2

        truth = [make_class_model(class_id=1),
                 make_class_model(class_id=2, depth_mu=1.6, depth_sigma=0.4,
                                  aspect_edges=(0.3, 0.6, 1.2), aspect_probs=(0.7, 0.3))]
        frames, lookup = synthetic_dataset(truth, 10_000, rng)
        model, _ = fit_model(frames, lookup, RunConfig())
        for cm in truth:
            got = model.class_model("cam0", cm.class_id)
            assert abs(got.depth.mu - cm.depth.mu) <= 0.03
            assert abs(got.depth.sigma - cm.depth.sigma) <= 0.03

            # aspect histogram vs the generator's own ratio draws, counted
            # independently into the fitted bins (the generator is the oracle)
            ratios = np.array([
                w / h
                for fr in frames
                for cid, (_, _, w, h) in zip(fr.class_ids.tolist(), fr.boxes.tolist())
                if cid == cm.class_id
            ])
            oracle = np.histogram(ratios, bins=got.aspect.edges)[0] / ratios.size
            l1 = np.abs(np.asarray(got.aspect.probs) - oracle).sum()
            assert l1 <= 0.05
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_marginal_recovery():
    with _criterion(3, "end-to-end marginal recovery through the sampler"):
        rng = np.random.default_rng(1003)
        truth = make_class_model(class_id=1)
        frames, lookup = synthetic_dataset([truth], 10_000, rng)
        model, _ = fit_model(frames, lookup, RunConfig())
        scene = open_scene(side=200, max_depth=60.0, frame_scale=50, camera_id="cam0")
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        n = 10_000
        ds, hs, ratios = [], [], []
        for i in range(n):
            p = propose(scene, model, substream(33, "mr", i), params)
            ds.append(p.d_effective)
            hs.append(p.box.h)
            ratios.append(p.box.w / p.box.h)
        td, th, tr = draw_objects(truth, n, rng)
        assert ks_statistic(ds, td) < 0.03
        assert ks_statistic(hs, th) < 0.03
        assert ks_statistic(ratios, tr) < 0.03


def test_criterion_4_refinement_oracle():
    with _criterion(4, "mask refinement and compositing oracles"):
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            h, w = (int(v) for v in rng.integers(2, 16, 2))
            bits = rng.random((h, w)) < 0.3
            if not bits.any():
                bits[rng.integers(h), rng.integers(w)] = True
            patch = PatchRect(int(rng.integers(0, 100)), int(rng.integers(0, 100)), w)
            mask = InstanceMask(bits=bits, patch=patch)
            box = refine_bbox(mask)
            ys, xs = np.nonzero(bits)
            sx = patch.side / w
            sy = patch.side / h
            assert box.x0 == pytest.approx(patch.x0 + xs.min() * sx)
            assert box.x1 == pytest.approx(patch.x0 + (xs.max() + 1) * sx)
            assert box.y0 == pytest.approx(patch.y0 + ys.min() * sy)
            assert box.y1 == pytest.approx(patch.y0 + (ys.max() + 1) * sy)

        from test_masks import _proposal, _square_mask, max_disparity_owner, owned_share

        for _ in range(200):
            n = int(rng.integers(2, 6))
            props = [_proposal(float(rng.uniform(1, 30)), i) for i in range(n)]
            masks = [_square_mask(int(rng.integers(0, 12)), int(rng.integers(0, 12)),
                                  int(rng.integers(2, 8))) for _ in range(n)]
            plan = composite_masks([rasterize_mask(m, 16, 16) for m in masks],
                                   composite_order(props))
            owner = max_disparity_owner(props, masks, 16, 16)
            assert plan.visible_frac.tolist() == owned_share(owner, plan.footprints)


def test_criterion_5_baseline_separation():
    with _criterion(5, "scene-aware vs random-location band validity"):
        rng = np.random.default_rng(1005)
        model = make_model([make_class_model(class_id=1)])
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        aware_augs, rand_augs, scenes = [], [], {}
        for s in range(10):
            side = 64
            vals = rng.uniform(0, 40, (side, side)).astype(np.float32)
            bits = rng.random((side, side)) < 0.3
            scene = make_scene(vals, bits, frame_scale=30)
            fid = f"s{s}"
            scenes[fid] = scene
            aware_augs.append(augment_frame(scene, model, fid, params.replace(n_objects=100, seed=5)))
            rand_augs.append(FrameAugmentation(
                frame_id=fid, frame=(scene.frame_w, scene.frame_h),
                proposals=[propose_random_location(scene, model,
                                                   substream(6, fid, i), params)
                           for i in range(100)],
                dropped=0,
            ))
        aware = layout_report([], None, aware_augs, scenes, model, 5.0)
        rand = layout_report([], None, rand_augs, scenes, model, 5.0)
        assert aware.band_validity == 1.0
        assert rand.band_validity < 0.5


def test_criterion_6_determinism_and_round_trips(tmp_path):
    with _criterion(6, "seed determinism across threads and I/O round-trips"):
        rng = np.random.default_rng(1006)
        # on-disk fixture
        depth_dir = tmp_path / "depth"
        sem_dir = tmp_path / "semantic"
        depth_dir.mkdir()
        sem_dir.mkdir()
        images, annotations = [], []
        ann_id = 1
        for fid in range(8):
            side = 48
            vals = rng.uniform(1, 30, (side, side)).astype(np.float32)
            labels = np.where(rng.random((side, side)) < 0.6, 1, 7).astype(np.uint8)
            write_depth_grid(DepthGrid(vals), depth_dir / f"{fid}.pgm", 1 / 256)
            write_label_grid(LabelGrid(labels), sem_dir / f"{fid}.pgm")
            images.append({"id": fid, "width": side, "height": side,
                           "camera": "front", "depth_path": f"{fid}.pgm",
                           "semantic_path": f"{fid}.pgm"})
            for _ in range(10):
                w = float(rng.uniform(3, 10))
                h = float(rng.uniform(4, 12))
                annotations.append({
                    "id": ann_id, "image_id": fid,
                    "category_id": int(rng.integers(1, 3)),
                    "bbox": [float(rng.uniform(0, side - w)),
                             float(rng.uniform(0, side - h)), w, h],
                })
                ann_id += 1
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({
            "images": images, "annotations": annotations,
            "categories": [{"id": 1}, {"id": 2}],
        }))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"min_samples": 10, "min_window_count": 2,
                                        "drivable_classes": [1]}))

        def run(args):
            assert cli_main([str(a) for a in args]) == 0

        run(["fit", ann_path, "--depth-dir", depth_dir,
             "--out-model", tmp_path / "model.json", "--config", cfg_path])
        for jobs, out in ((1, "L1"), (8, "L8")):
            run(["augment", ann_path, "--model", tmp_path / "model.json",
                 "--depth-dir", depth_dir, "--semantic-dir", sem_dir,
                 "--out-layouts", tmp_path / out, "--config", cfg_path,
                 "--seed", 7, "--jobs", jobs])
        names = sorted(os.listdir(tmp_path / "L1"))
        assert names and names == sorted(os.listdir(tmp_path / "L8"))
        for n in names:
            assert (tmp_path / "L1" / n).read_bytes() == (tmp_path / "L8" / n).read_bytes()

        # model round-trip byte-identical
        model = dataset_io.load_model(tmp_path / "model.json")
        dataset_io.save_model(model, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

        # annotation round-trip: the reader's columns are the written boxes
        assert_frames_hold_columns(dataset_io.read_annotations(ann_path),
                                   json.loads(ann_path.read_text()))

        # grid round-trip bit-identical
        g1 = dataset_io.read_depth_grid(depth_dir / "0.pgm", 1 / 256)
        write_depth_grid(g1, tmp_path / "g.pgm", 1 / 256)
        assert (depth_dir / "0.pgm").read_bytes() == (tmp_path / "g.pgm").read_bytes()


def test_criterion_7_throughput():
    with _criterion(7, "fit and sampling throughput"):
        rng = np.random.default_rng(1007)
        truth = make_class_model(class_id=1)
        frames, lookup = synthetic_dataset([truth], 100_000, rng)
        t0 = time.perf_counter()
        fit_model(frames, lookup, RunConfig())
        fit_time = time.perf_counter() - t0
        assert fit_time < 10.0, f"fit took {fit_time:.2f}s"

        model = make_model([truth])
        scene = open_scene(side=200, max_depth=60.0, frame_scale=50)
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        t0 = time.perf_counter()
        for i in range(10_000):
            propose(scene, model, substream(9, "tp", i), params)
        prop_time = time.perf_counter() - t0
        assert prop_time < 5.0, f"10k proposals took {prop_time:.2f}s"
