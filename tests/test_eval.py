import numpy as np
import pytest

from scene_placer.config import RunConfig
from scene_placer.dataset_io import Annotation, AnnotatedFrame
from scene_placer.errors import InsufficientData
from scene_placer.evaluate import ks_statistic, layout_report, propose_random_location
from scene_placer.fitting import fit_model
from scene_placer.geometry import BBox
from scene_placer.sampler import (
    FrameAugmentation,
    augment_frame,
    substream,
)

from conftest import make_class_model, make_model, make_scene, open_scene, synthetic_dataset


def brute_force_ks(a, b):
    pts = sorted(set(a) | set(b))
    best = 0.0
    for p in pts:
        fa = sum(1 for v in a if v <= p) / len(a)
        fb = sum(1 for v in b if v <= p) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKsStatistic:
    def test_identical_samples(self, rng):
        x = rng.normal(size=50)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0], [1.0]) == 1.0

    def test_brute_force_oracle(self, rng):
        a = rng.normal(0, 1, 200)
        b = rng.normal(0.3, 1.2, 200)
        assert ks_statistic(a, b) == pytest.approx(brute_force_ks(list(a), list(b)))

    def test_symmetric_and_bounded(self, rng):
        a = rng.normal(size=80)
        b = rng.uniform(-1, 1, 120)
        d1, d2 = ks_statistic(a, b), ks_statistic(b, a)
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0

    def test_empty_input(self):
        with pytest.raises(InsufficientData):
            ks_statistic([], [1.0])


class TestLayoutReport:
    def test_empty_proposals(self):
        report = layout_report([], [], {}, make_model([make_class_model()]), 5.0)
        assert report.n_proposals == 0
        assert report.band_validity is None
        assert report.chi_square is None

    def test_self_consistency(self, rng):
        # proposals drawn from a model fitted on the same reals
        cm = make_class_model(class_id=1, depth_sigma=0.3)
        frames, lookup = synthetic_dataset([cm], 5000, rng)
        cfg = RunConfig()
        model, _ = fit_model(frames, lookup, cfg)
        scene = open_scene(side=200, max_depth=60.0, frame_scale=50, camera_id="cam0")
        augs = [augment_frame(scene, model, "big",
                              RunConfig(tau=5.0, min_visible_frac=0.0, n_objects=5000, seed=3))]
        scenes = {f.frame_id: None for f in frames}
        scenes["big"] = scene
        # reals carry their own depth in the constant grids; rebuild scenes
        # for the real frames so the depth marginal can be computed
        real_scenes = {
            f.frame_id: make_scene(lookup(f).values, np.ones((8, 8), bool),
                                   frame_scale=8, camera_id="cam0")
            for f in frames
        }
        real_scenes["big"] = scene
        report = layout_report(frames, augs, real_scenes, model, 5.0)
        stats = [s for s in report.per_class if s.class_id == 1][0]
        assert stats.comparable
        assert stats.ks_depth < 0.05
        assert stats.ks_height < 0.05
        assert stats.ks_aspect < 0.05
        assert report.band_validity == 1.0

    def test_random_policy_validity_below_scene_aware(self, rng):
        cm = make_class_model(class_id=1)
        model = make_model([cm])
        # 30% drivable coverage
        side = 64
        vals = rng.uniform(0, 40, (side, side)).astype(np.float32)
        bits = rng.random((side, side)) < 0.3
        scene = make_scene(vals, bits, frame_scale=30)
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        aware = augment_frame(scene, model, "s", params.replace(n_objects=500, seed=1))
        rand_props = [propose_random_location(scene, model, substream(2, "r", i), params)
                      for i in range(500)]
        rand = FrameAugmentation(frame_id="s", proposals=rand_props, dropped=0)
        scenes = {"s": scene}
        r_aware = layout_report([], [aware], scenes, model, 5.0)
        r_rand = layout_report([], [rand], scenes, model, 5.0)
        assert r_aware.band_validity == 1.0
        assert r_rand.band_validity < 0.5

    def test_incomparable_class_flagged(self, rng):
        model = make_model([make_class_model(class_id=1)])
        scene = open_scene(side=32, frame_scale=40)
        aug = augment_frame(scene, model, "f", RunConfig(min_visible_frac=0.0, n_objects=5))
        real = [AnnotatedFrame(
            frame_id="g", camera_id="default", width=100, height=100,
            annotations=(Annotation(class_id=9, box=BBox(cx=5, by=9, w=3, h=4)),),
        )]
        report = layout_report(real, [aug], {"f": scene}, model, 5.0)
        flags = {s.class_id: s.comparable for s in report.per_class}
        assert flags == {1: False, 9: False}

    def test_report_serialization(self, rng, tmp_path):
        model = make_model([make_class_model(class_id=1)])
        scene = open_scene(side=32, frame_scale=40)
        aug = augment_frame(scene, model, "f", RunConfig(min_visible_frac=0.0, n_objects=5))
        report = layout_report([], [aug], {"f": scene}, model, 5.0)
        doc = report.to_json()
        assert doc["n_proposals"] == len(aug.proposals)
        text = report.to_text()
        assert "band_validity" in text and "chi_square" in text
