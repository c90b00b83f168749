import numpy as np
import pytest

from scene_placer.config import RunConfig
from scene_placer.dataset_io import AnnotatedFrame
from scene_placer.errors import InsufficientData
from scene_placer.evaluate import ks_statistic, layout_report
from scene_placer.fitting import fit_model
from scene_placer.geometry import crop_geometry, placement_band
from scene_placer.sampler import (
    FrameAugmentation,
    PlacementProposal,
    Provenance,
    augment_frame,
    substream,
)

from conftest import (
    make_class_model,
    make_model,
    make_scene,
    open_scene,
    propose_random_location,
    synthetic_dataset,
)


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
        report = layout_report([], None, [], {}, make_model([make_class_model()]), 5.0)
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
            f.frame_id: make_scene(lookup(f.depth_path).values, np.ones((8, 8), bool),
                                   frame_scale=8, camera_id="cam0")
            for f in frames
        }
        real_scenes["big"] = scene
        report = layout_report(frames, lambda path: real_scenes[path].depth, augs, real_scenes,
                               model, 5.0)
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
        rand = FrameAugmentation(frame_id="s", frame=aware.frame, proposals=rand_props, dropped=0)
        scenes = {"s": scene}
        r_aware = layout_report([], None, [aware], scenes, model, 5.0)
        r_rand = layout_report([], None, [rand], scenes, model, 5.0)
        assert r_aware.band_validity == 1.0
        assert r_rand.band_validity < 0.5

    def test_incomparable_class_flagged(self, rng):
        model = make_model([make_class_model(class_id=1)])
        scene = open_scene(side=32, frame_scale=40)
        aug = augment_frame(scene, model, "f", RunConfig(min_visible_frac=0.0, n_objects=5))
        real = [AnnotatedFrame(
            frame_id="g", camera_id="default", width=100, height=100,
            class_ids=[9], boxes=[[5, 9, 3, 4]],
        )]
        report = layout_report(real, lambda f: None, [aug], {"f": scene}, model, 5.0)
        flags = {s.class_id: s.comparable for s in report.per_class}
        assert flags == {1: False, 9: False}

    def test_report_serialization(self, rng, tmp_path):
        model = make_model([make_class_model(class_id=1)])
        scene = open_scene(side=32, frame_scale=40)
        aug = augment_frame(scene, model, "f", RunConfig(min_visible_frac=0.0, n_objects=5))
        report = layout_report([], None, [aug], {"f": scene}, model, 5.0)
        doc = report.to_json()
        assert doc["n_proposals"] == len(aug.proposals)
        assert set(doc["per_class"][0]) == {"class", "n_real", "n_proposed", "ks_depth",
                                            "ks_height", "ks_aspect", "comparable"}
        text = report.to_text()
        assert "band_validity" in text and "chi_square" in text


def test_band_validity_uses_the_samplers_float32_band():
    """d = 10.0000001 rounds to 10 in float32, so pixel (0, 0) at disparity 5
    is in the band for tau 5, and eval must judge that anchor valid."""
    scene = make_scene([[5.0, 20.0]], [[True, True]])
    d = 10.0000001
    index = scene.band_index
    assert (0, 0) in [index.pixel(i) for i in placement_band(index, d, 5.0)]
    box = scene.anchor_box(0, 0, 1, 1)
    prop = PlacementProposal(class_id=1, d=d, d_effective=d, box=box, show_prob=1.0,
                             provenance=Provenance(index=0, attempts=1, anchor_px=(0, 0)),
                             patch=crop_geometry(box, scene.frame_w, scene.frame_h))
    aug = FrameAugmentation(frame_id="f", frame=(2, 1), proposals=[prop], dropped=0)
    model = make_model([make_class_model(class_id=1)])
    assert layout_report([], None, [aug], {"f": scene}, model, 5.0).band_validity == 1.0


def test_boxes_of_frames_without_a_scene_count_everywhere_but_ks_depth():
    """Frame "a" has a scene and a depth grid (a 6x4 row-graded grid under a
    60x40 frame); frame "b" has neither. Every real box counts in n_real, ks_height and
    ks_aspect, but only the boxes of "a" have a disparity for ks_depth, read
    at the grid row each box stands on. Class 2 stands only on "b", so it
    gets no ks_depth."""
    rows = np.repeat([[2.0], [5.0], [8.0], [11.0]], 6, axis=1)
    scene = make_scene(rows, np.ones((4, 6), bool), frame_scale=10)
    real = [AnnotatedFrame(frame_id="a", camera_id="default", width=60, height=40,
                           class_ids=[1, 1], boxes=[[15, 20, 3, 6], [45, 30, 4, 5]],
                           depth_path="a.pgm"),
            AnnotatedFrame(frame_id="b", camera_id="default", width=60, height=40,
                           class_ids=[1, 2, 2], boxes=[[5, 40, 2, 9], [30, 35, 6, 3],
                                                       [50, 25, 5, 5]])]
    props = [PlacementProposal(class_id=c, d=d, d_effective=d, box=scene.anchor_box(x, y, w, h),
                               show_prob=0.5,
                               provenance=Provenance(index=i, attempts=1, anchor_px=(x, y)),
                               patch=crop_geometry(scene.anchor_box(x, y, w, h), 60, 40))
             for i, (c, d, x, y, w, h) in enumerate([(1, 6.0, 1, 1, 3, 4), (1, 9.5, 4, 2, 2, 7),
                                                      (1, 4.0, 2, 1, 5, 5), (2, 7.0, 3, 2, 4, 2),
                                                      (2, 3.0, 0, 1, 2, 2)])]
    aug = FrameAugmentation(frame_id="a", frame=(60, 40), proposals=props, dropped=0)
    model = make_model([make_class_model(class_id=1), make_class_model(class_id=2)])
    report = layout_report(real, {"a.pgm": scene.depth}.__getitem__, [aug], {"a": scene},
                           model, 5.0)
    one, two = report.per_class
    assert (report.n_real, one.n_real, two.n_real) == (5, 3, 2)
    assert (one.n_proposed, two.n_proposed) == (3, 2)
    assert one.ks_depth == ks_statistic([5.0, 8.0], [6.0, 9.5, 4.0])
    assert one.ks_height == ks_statistic([6, 5, 9], [4, 7, 5])
    assert one.ks_aspect == ks_statistic([3 / 6, 4 / 5, 2 / 9], [3 / 4, 2 / 7, 5 / 5])
    assert two.comparable and two.ks_depth is None
    assert two.ks_height == ks_statistic([3, 5], [2, 2])
    assert two.ks_aspect == ks_statistic([6 / 3, 5 / 5], [4 / 2, 2 / 2])
