import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scene_placer import sampler
from scene_placer.config import RunConfig
from scene_placer.errors import EmptyDrivableSpace, MaxAttemptsExceeded, UnknownClass
from scene_placer.fitting import Histogram
from scene_placer.geometry import closest_allowed_depth, in_band, placement_band
from scene_placer.sampler import (
    augment_frame,
    propose,
    sample_class,
    sample_depth,
    sample_height,
    sample_histogram,
    sample_location,
    sample_width,
    substream,
)

from conftest import make_class_model, make_model, make_scene, open_scene


def lognormal_cdf(x, mu, sigma):
    return 0.5 * (1 + math.erf((np.log(x) - mu) / (sigma * math.sqrt(2))))


def ks_vs_lognormal(samples, mu, sigma):
    s = np.sort(samples)
    n = len(s)
    cdf = np.array([lognormal_cdf(v, mu, sigma) for v in s])
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max())


class TestSampleClass:
    def test_single_class(self, rng):
        model = make_model([make_class_model(class_id=7)])
        assert all(sample_class(model, rng) == 7 for _ in range(20))

    def test_uniform_frequencies(self, rng):
        model = make_model([make_class_model(class_id=c) for c in range(10)])
        draws = np.array([sample_class(model, rng) for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=10) / draws.size
        assert np.abs(freqs - 0.1).max() < 0.01
        # chi-square against the exact multinomial: 9 dof, crit at p=0.001 is 27.9
        chi = ((np.bincount(draws, minlength=10) - 10_000.0) ** 2 / 10_000.0).sum()
        assert chi < 27.9


class TestSampleDepth:
    def test_sigma_zero(self, rng):
        cm = make_class_model(class_id=1, depth_mu=2.0, depth_sigma=0.0)
        for _ in range(10):
            assert sample_depth(cm, rng) == pytest.approx(math.exp(2.0))

    def test_matches_analytic_cdf(self, rng):
        cm = make_class_model(class_id=1, depth_mu=2.0, depth_sigma=0.5)
        draws = np.array([sample_depth(cm, rng) for _ in range(10_000)])
        assert (draws > 0).all()
        assert ks_vs_lognormal(draws, 2.0, 0.5) < 0.02

    def test_unknown_class(self, rng):
        model = make_model([make_class_model(class_id=1)])
        with pytest.raises(UnknownClass, match="no fitted model for class 99"):
            model.class_model("default", 99)


class TestSampleLocation:
    def test_single_pixel_band(self, rng):
        depth = np.full((3, 3), 50.0)
        depth[1, 2] = 10.0
        scene = make_scene(depth, np.ones((3, 3), bool))
        for _ in range(10):
            x, y, d_eff = sample_location(scene, 10.0, 2.0, rng)
            assert (x, y) == (2, 1)
            assert d_eff == 10.0

    def test_uniform_over_mask(self, rng):
        scene = make_scene(np.full((4, 5), 7.0), np.ones((4, 5), bool))
        counts = np.zeros((4, 5))
        n = 10_000
        for _ in range(n):
            x, y, _ = sample_location(scene, 7.0, 5.0, rng)
            counts[y, x] += 1
        p = 1 / 20
        sigma = math.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() < 4 * sigma

    def test_depth_reset_fallback(self, rng):
        depth = np.array([[10.0, 20.0]], dtype=np.float32)
        scene = make_scene(depth, np.array([[True, True]]))
        x, y, d_eff = sample_location(scene, 100.0, 2.0, rng)
        assert d_eff == 20.0
        assert (x, y) == (1, 0)


@st.composite
def reset_cases(draw):
    """Small grids of float32 disparities, any mask (also all False), d
    anywhere from past both ends of the grid's range to infinity, tau > 0."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    depth = draw(hnp.arrays(np.float32, (h, w), elements=st.floats(0, 100, width=32)))
    mask = draw(hnp.arrays(np.bool_, (h, w)))
    d = draw(st.floats(-200, 200) | st.sampled_from([np.inf, -np.inf]))
    tau = draw(st.floats(0, 50, exclude_min=True))
    return depth, mask, d, tau


class TestDepthReset:
    @settings(max_examples=300, deadline=None)
    @given(case=reset_cases())
    def test_band_at_the_reset_depth_is_never_empty(self, case):
        """The reset depth v is read from a drivable pixel, and that pixel
        passes the band test at v: |v - float32(v)| = 0 <= float32(tau). So
        the one empty-space error is closest_allowed_depth's, on a mask with
        no drivable pixel."""
        depth, mask, d, tau = case
        scene = make_scene(depth, mask)
        rng = np.random.default_rng(0)
        if not mask.any():
            with pytest.raises(EmptyDrivableSpace):
                sample_location(scene, d, tau, rng)
            return
        d_reset = closest_allowed_depth(scene.band_index, d)
        assert len(placement_band(scene.band_index, d_reset, tau)) > 0
        x, y, d_eff = sample_location(scene, d, tau, rng)
        assert in_band(depth[y, x], mask[y, x], d_eff, tau)


class TestSampleHeight:
    def test_zero_sigma_curve(self, rng):
        cm = make_class_model(class_id=1, h_sigma=0.0)
        d = 9.0
        expect = math.exp(cm.height_mu_curve(d))
        for _ in range(5):
            assert sample_height(cm, d, rng) == pytest.approx(expect)

    def test_matches_analytic_cdf(self, rng):
        cm = make_class_model(class_id=1, h_sigma=0.2)
        d = 12.0
        draws = np.array([sample_height(cm, d, rng) for _ in range(10_000)])
        assert ks_vs_lognormal(draws, cm.height_mu_curve(d), 0.2) < 0.02

    def test_out_of_domain_clamps(self, rng):
        cm = make_class_model(class_id=1, h_sigma=0.0, domain=(1.0, 10.0))
        far = sample_height(cm, 1000.0, rng)
        assert far == pytest.approx(math.exp(cm.height_mu_curve(10.0)))


class TestSampleWidth:
    def test_single_spike(self, rng):
        cm = make_class_model(class_id=1, aspect_edges=(2.0, 2.0 + 1e-6), aspect_probs=(1.0,))
        w = sample_width(cm, 10.0, rng)
        assert w == pytest.approx(20.0, abs=1e-4)

    def test_bin_frequencies(self, rng):
        edges = np.array([0.5, 1.0, 1.5, 2.0])
        probs = np.array([0.2, 0.5, 0.3])
        hist = Histogram(edges=edges, probs=probs)
        draws = np.array([sample_histogram(hist, rng) for _ in range(10_000)])
        got = np.histogram(draws, bins=edges)[0] / 10_000
        assert np.abs(got - probs).max() < 0.02

    def test_bimodal_histogram_reproduces_modes(self, rng):
        edges = np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.4])
        probs = np.array([0.4, 0.05, 0.0, 0.05, 0.5])
        cm = make_class_model(class_id=1, aspect_edges=edges, aspect_probs=probs)
        ratios = np.array([sample_width(cm, 1.0, rng) for _ in range(10_000)])
        counts = np.histogram(ratios, bins=edges)[0]
        assert counts[0] > counts[1] and counts[4] > counts[3]  # two clear modes
        assert counts[2] == 0


class TestPropose:
    def test_band_membership_invariant(self, rng):
        model = make_model([make_class_model(class_id=1)])
        scene = open_scene(side=64, max_depth=40.0, frame_scale=10)
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        for i in range(200):
            p = propose(scene, model, substream(3, "f", i), params)
            x, y = p.provenance.anchor_px
            assert scene.drivable.bits[y, x]
            assert abs(float(scene.depth.values[y, x]) - p.d_effective) <= 5.0

    def test_degenerate_scene_single_pixel(self, rng):
        depth = np.full((2, 2), 99.0)
        depth[1, 1] = 8.0
        drivable = np.zeros((2, 2), bool)
        drivable[1, 1] = True
        scene = make_scene(depth, drivable, frame_scale=100)
        model = make_model([make_class_model(class_id=1)])
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        for i in range(10):
            p = propose(scene, model, substream(1, "g", i), params)
            assert p.provenance.anchor_px == (1, 1)

    def test_max_attempts_exceeded(self, rng):
        # tiny frame, huge objects: nothing is ever visible enough
        cm = make_class_model(class_id=1, h_a=8.0, h_b=0.0, h_sigma=0.0)
        model = make_model([cm])
        scene = make_scene(np.full((4, 4), 7.0), np.ones((4, 4), bool))
        params = RunConfig(tau=5.0, min_visible_frac=0.9, max_attempts=5)
        with pytest.raises(MaxAttemptsExceeded):
            propose(scene, model, substream(0, "h", 0), params)

    def test_marginal_recovery(self, rng):
        cm = make_class_model(class_id=1)
        model = make_model([cm])
        scene = open_scene(side=200, max_depth=60.0, frame_scale=50)
        params = RunConfig(tau=5.0, min_visible_frac=0.0)
        n = 10_000
        ds, hs, ratios = [], [], []
        for i in range(n):
            p = propose(scene, model, substream(11, "m", i), params)
            ds.append(p.d_effective)
            hs.append(p.box.h)
            ratios.append(p.box.w / p.box.h)
        assert ks_vs_lognormal(np.array(ds), cm.depth.mu, cm.depth.sigma) < 0.03
        # height marginal: mean of log-heights matches the curve applied to
        # the sampled depths
        mu_pred = np.array([cm.height_mu_curve.eval_clamped(d) for d in ds])
        assert abs(np.mean(np.log(hs) - mu_pred)) < 0.01
        got = np.histogram(ratios, bins=cm.aspect.edges)[0] / n
        assert np.abs(got - cm.aspect.probs).sum() < 0.03


class TestAugmentFrame:
    def test_zero_objects(self):
        scene = open_scene(side=16, frame_scale=10)
        model = make_model([make_class_model()])
        aug = augment_frame(scene, model, "f0", RunConfig(n_objects=0))
        assert aug.proposals == [] and aug.dropped == 0

    def test_default_twelve(self):
        scene = open_scene(side=32, max_depth=40.0, frame_scale=50)
        model = make_model([make_class_model()])
        aug = augment_frame(scene, model, "f1",
                            RunConfig(min_visible_frac=0.0, n_objects=12, seed=5))
        assert len(aug.proposals) + aug.dropped == 12
        assert all(p.show_prob == 0.5 for p in aug.proposals)

    def test_determinism_across_runs(self):
        scene = open_scene(side=32, max_depth=40.0, frame_scale=50)
        model = make_model([make_class_model()])
        a = augment_frame(scene, model, "frame-9", RunConfig(n_objects=12, seed=42))
        b = augment_frame(scene, model, "frame-9", RunConfig(n_objects=12, seed=42))
        assert a == b

    def test_grid_scale_is_worked_out_once_per_scene(self, monkeypatch):
        calls = []
        real = sampler.grid_scale
        monkeypatch.setattr(sampler, "grid_scale", lambda *a: calls.append(a) or real(*a))
        scene = open_scene(side=32, max_depth=40.0, frame_scale=50)
        assert len(calls) == 1 and scene.scale == 50.0
        aug = augment_frame(scene, make_model([make_class_model()]), "s",
                            RunConfig(n_objects=12, seed=3))
        assert sum(p.provenance.attempts for p in aug.proposals) >= 12
        assert len(calls) == 1  # each attempt's anchor_box reads scene.scale

    def test_substream_isolation(self):
        # proposal i does not depend on how many proposals precede it
        scene = open_scene(side=32, max_depth=40.0, frame_scale=50)
        model = make_model([make_class_model()])
        full = augment_frame(scene, model, "x", RunConfig(n_objects=6, seed=7))
        for i in (0, 3, 5):
            rng = substream(7, "x", i)
            p = propose(scene, model, rng, RunConfig(), index=i)
            assert p == full.proposals[i]
