import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scene_placer import fitting
from scene_placer.config import RunConfig
from scene_placer.dataset_io import AnnotatedFrame
from scene_placer.errors import DegenerateFit, InsufficientData, InvalidSample
from scene_placer.fitting import (
    PowerCurve,
    build_aspect_histogram,
    depth_height_profile,
    fit_lognormal,
    fit_model,
    fit_power_curve,
    object_columns,
    object_depth,
)
from scene_placer.geometry import DepthGrid

from conftest import draw_objects, make_class_model, synthetic_dataset


class TestFitLognormal:
    def test_constant_data(self):
        p = fit_lognormal([math.e, math.e, math.e])
        assert p.mu == pytest.approx(1.0)
        assert p.sigma == pytest.approx(0.0)

    def test_two_point_arithmetic(self):
        p = fit_lognormal([1.0, math.e**2])
        assert p.mu == pytest.approx(1.0)
        assert p.sigma == pytest.approx(1.0)

    def test_recovers_seeded_draws(self, rng):
        draws = np.exp(2.0 + 0.5 * rng.standard_normal(10_000))
        p = fit_lognormal(draws)
        assert abs(p.mu - 2.0) <= 0.02
        assert abs(p.sigma - 0.5) <= 0.02
        # exact equality with the direct log-space oracle
        logs = np.log(draws)
        assert abs(p.mu - logs.mean()) < 1e-12
        assert abs(p.sigma - logs.std(ddof=0)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSample):
            fit_lognormal([1.0, -2.0])

    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientData):
            fit_lognormal([3.0])


class TestDepthHeightProfile:
    def test_single_depth_constant_height(self):
        prof = depth_height_profile([5.0] * 20, [10.0] * 20, window=2, stride=1)
        assert [len(column) for column in prof] == [1, 1, 1, 1]
        (c,), (mu,), (sigma,), (n,) = prof
        assert c == 5.0
        assert mu == pytest.approx(math.log(10.0))
        assert sigma == pytest.approx(0.0, abs=1e-12)
        assert n == 20

    def test_empty_input(self):
        with pytest.raises(InsufficientData):
            depth_height_profile([], [], window=2, stride=1)

    def test_matches_brute_force_grouping(self, rng):
        depths = np.repeat(np.arange(1.0, 21.0), 50)
        heights = np.exp((1 + 0.5 * depths**0.8) + 0.1 * rng.standard_normal(depths.size))
        prof = depth_height_profile(depths, heights, window=2.0, stride=1.0)
        for c, mu, sigma, n in zip(*prof):
            sel = np.abs(depths - c) <= 1.0
            logs = np.log(heights[sel])
            assert n == sel.sum()
            assert mu == pytest.approx(logs.mean(), abs=1e-12)
            assert sigma == pytest.approx(logs.std(ddof=0), abs=1e-12)

    def test_sparse_windows_omitted(self):
        # the profile leaves out only empty windows; callers drop the sparse
        # ones by count, as fit does with min_window_count
        centres, _, _, counts = depth_height_profile([1.0] * 15 + [10.0] * 3,
                                                     [2.0] * 15 + [3.0] * 3, window=2, stride=1)
        assert list(zip(centres, counts)) == [(1.0, 15), (2.0, 15), (9.0, 3), (10.0, 3)]
        assert list(centres[counts >= 10]) == [1.0, 2.0]


class TestFitPowerCurve:
    def test_exact_recovery(self):
        xs = np.arange(1.0, 11.0)
        ys = 1.0 + 2.0 * xs**0.5
        curve = fit_power_curve(xs, ys)
        assert curve.a == pytest.approx(1.0, abs=1e-3)
        assert curve.b == pytest.approx(2.0, abs=1e-3)
        assert curve.c == pytest.approx(0.5, abs=1e-3)
        sse = sum((y - curve(x)) ** 2 for x, y in zip(xs, ys))
        assert sse < 1e-10

    def test_constant_data(self):
        xs = np.arange(1.0, 8.0)
        ys = np.full_like(xs, 7.0)
        curve = fit_power_curve(xs, ys)
        assert curve.a + curve.b * 3.0**curve.c == pytest.approx(7.0, abs=1e-9)

    def test_beats_constant_fit(self, rng):
        # decreasing profile like a far-to-near height curve
        xs = np.linspace(1, 30, 25)
        ys = 4.0 - 1.2 * xs**0.3 + 0.05 * rng.standard_normal(25)
        curve = fit_power_curve(xs, ys)
        sse = ((ys - (curve.a + curve.b * xs**curve.c)) ** 2).sum()
        sse_const = ((ys - ys.mean()) ** 2).sum()
        assert sse <= sse_const + 1e-12

    def test_degenerate_all_x_equal(self):
        with pytest.raises(DegenerateFit):
            fit_power_curve([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_power_curve([1.0, 2.0], [1.0, 2.0])


class TestAspectHistogram:
    def test_single_ratio(self):
        h = build_aspect_histogram([1.5], 4)
        assert h.probs.sum() == pytest.approx(1.0)
        assert h.edges[0] == pytest.approx(1.5)
        assert h.probs[0] == pytest.approx(1.0)

    def test_symmetric_counts(self):
        h = build_aspect_histogram([1, 1, 3, 3], 2)
        assert h.probs.tolist() == [0.5, 0.5]

    def test_counting_oracle(self, rng):
        mix = np.concatenate([
            rng.normal(0.8, 0.1, 6000),
            rng.normal(2.2, 0.2, 4000),
        ])
        mix = np.abs(mix) + 1e-3
        h = build_aspect_histogram(mix, 50)
        counts = np.zeros(50)
        for v in mix:  # independent per-sample counting
            i = min(int((v - h.edges[0]) / (h.edges[1] - h.edges[0])), 49)
            counts[i] += 1
        # binning by arithmetic can disagree with half-open binning only at
        # exact edges, which have measure zero for continuous draws
        assert np.abs(h.probs - counts / counts.sum()).max() < 1e-12
        assert h.probs.sum() == pytest.approx(1.0, abs=1e-9)


def _median_of_clipped_window(values, cx, by):
    """Scalar reference probe: np.median of the 3x3 window around the pixel
    holding (cx, by), the pixel clamped into the grid and the window clipped."""
    h, w = values.shape
    ix = min(max(math.floor(cx), 0), w - 1)
    iy = min(max(math.floor(by - 1e-9), 0), h - 1)
    return float(np.median(values[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2]))


@st.composite
def probe_cases(draw):
    """A grid (1x1, 1xN, Nx1 or any small shape; random float32 values or
    PGM-quantised k/256 ones, with many ties when k's range is small) and
    probes inside it and off every edge, integer coordinates included."""
    h, w = draw(st.one_of(st.just((1, 1)),
                          st.tuples(st.just(1), st.integers(2, 12)),
                          st.tuples(st.integers(2, 12), st.just(1)),
                          st.tuples(st.integers(1, 12), st.integers(1, 12))))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = r.uniform(0, 100, (h, w)).astype(np.float32)
    else:
        k = r.integers(0, draw(st.sampled_from([3, 65536])), (h, w))
        values = k.astype(np.float32) * np.float32(1 / 256)

    def coord(n):
        return st.one_of(st.floats(-4, n + 4), st.integers(-3, n + 3).map(float))

    return values, draw(st.lists(st.tuples(coord(w), coord(h)), max_size=24))


class TestObjectDepth:
    @settings(max_examples=300, deadline=None)
    @given(case=probe_cases())
    def test_matches_scalar_median_bit_for_bit(self, case):
        values, probes = case
        got = object_depth(DepthGrid(values), np.array([x for x, _ in probes]),
                           np.array([y for _, y in probes]))
        want = np.array([_median_of_clipped_window(values, x, y) for x, y in probes],
                        dtype=np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_probe_list(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = object_depth(DepthGrid(np.ones((3, 4))), np.array([]), np.array([]))
        assert got.dtype == np.float64
        assert got.shape == (0,)


class TestObjectColumns:
    def test_one_probe_per_grid_matches_a_probe_per_frame(self, rng, monkeypatch):
        """Frames are grouped by depth path: each distinct path is read once,
        in order of first use, and all its boxes are probed in one call, each
        frame at its own frame-to-grid scale; a frame without a path is never
        read. The columns equal those of one `object_depth` call per frame,
        bit for bit."""
        grids = {p: DepthGrid(rng.uniform(1, 50, (9, 16)).astype(np.float32)) for p in "ab"}

        def frame(i, scale, n, path):
            w, h = 16 * scale, 9 * scale
            boxes = np.column_stack([rng.uniform(-2, w + 2, n), rng.uniform(-2, h + 2, n),
                                     rng.uniform(1, 5, n), rng.uniform(1, 5, n)])
            return AnnotatedFrame(str(i), "cam", w, h, rng.integers(1, 4, n), boxes,
                                  depth_path=path)

        # grid b under frames of scale 1, 4 and 2, grid a under one, a frame without a path
        frames = [frame(0, 1, 5, "b"), frame(1, 4, 3, "b"), frame(2, 1, 6, None),
                  frame(3, 2, 7, "a"), frame(4, 1, 4, "b")]
        reads, calls = [], []
        probe = object_depth
        monkeypatch.setattr(fitting, "object_depth", lambda grid, cx, by:
                            calls.append((grid, len(cx))) or probe(grid, cx, by))
        class_ids, depths, heights, ratios = object_columns(
            frames, lambda path: reads.append(path) or grids[path])
        assert reads == ["b", "a"]
        assert [(id(g), n) for g, n in calls] == [(id(grids["b"]), 12), (id(grids["a"]), 7)]
        want = [np.full(fr.class_ids.size, np.nan) if fr.depth_path is None else
                probe(grids[fr.depth_path], *(fr.boxes[:, :2] / (fr.width / 16)).T)
                for fr in frames]
        assert np.array_equal(depths.view(np.int64), np.concatenate(want).view(np.int64))
        boxes = np.concatenate([fr.boxes for fr in frames])
        assert class_ids.tolist() == np.concatenate([fr.class_ids for fr in frames]).tolist()
        assert np.array_equal(heights, boxes[:, 3])
        assert np.array_equal(ratios, boxes[:, 2] / boxes[:, 3])

    def test_drops_each_grid_before_the_next_read(self):
        """Only one grid is alive at a time: when a path is read, no grid
        read before it is referenced any more."""
        frames = [AnnotatedFrame(str(i), "cam", 16, 9, [1], [[8.0, 5.0, 2.0, 2.0]],
                                 depth_path=str(i % 3)) for i in range(6)]
        read = []

        def read_depth(path):
            assert [ref() for ref in read] == [None] * len(read)
            grid = DepthGrid(np.full((9, 16), 1.0 + int(path), np.float32))
            read.append(weakref.ref(grid))
            return grid

        _, depths, _, _ = object_columns(frames, read_depth)
        assert len(read) == 3
        assert depths.tolist() == [1.0, 2.0, 3.0] * 2


class TestFitModel:
    def test_recovers_synthetic_truth(self, rng):
        cm = make_class_model(class_id=1)
        cfg = RunConfig(min_samples=30, min_window_count=10)
        frames, lookup = synthetic_dataset([cm], 10_000, rng)
        model, warnings = fit_model(frames, lookup, cfg)
        got = model.class_model("cam0", 1)
        assert abs(got.depth.mu - cm.depth.mu) <= 0.03
        assert abs(got.depth.sigma - cm.depth.sigma) <= 0.03
        # height mu curve close to the generator on the bulk of the depth
        # range (edge windows are asymmetric, so the extreme tails drift)
        xs = np.linspace(4, 25, 40)
        truth = cm.height_mu_curve.a + cm.height_mu_curve.b * xs**cm.height_mu_curve.c
        fit = got.height_mu_curve.a + got.height_mu_curve.b * xs**got.height_mu_curve.c
        assert np.abs(truth - fit).max() < 0.1
        assert not warnings

    def test_recovers_truth_on_a_row_graded_grid_coarser_than_the_frame(self, rng):
        """Each object stands on a 16x9 grid under a 160x90 frame whose
        disparity rises row by row toward the bottom, as a street's does, and
        holds the object's own disparity in the row it stands on. The fit
        recovers the drawn disparities only if the probe maps the bottom-center
        from frame to grid pixels (a constant grid would hide a wrong pixel)."""
        cm = make_class_model(class_id=1)
        d, h, ratio = draw_objects(cm, 2000, rng)
        frames, grids = [], {}
        for i in range(d.size):
            x, row = int(rng.integers(16)), int(rng.integers(1, 8))
            rows = d[i] * np.exp(0.25 * (np.arange(9) - row))
            grids[str(i)] = DepthGrid(np.repeat(rows[:, None], 16, axis=1))
            frames.append(AnnotatedFrame(
                frame_id=str(i), camera_id="cam0", width=160, height=90, class_ids=[1],
                boxes=[[(x + 0.5) * 10, (row + 1) * 10, ratio[i] * h[i], h[i]]],
                depth_path=str(i)))
        model, _ = fit_model(frames, grids.__getitem__, RunConfig())
        got = model.class_model("cam0", 1).depth
        want = fit_lognormal(d.astype(np.float32))
        assert got.mu == pytest.approx(want.mu, abs=1e-12)
        assert got.sigma == pytest.approx(want.sigma, abs=1e-12)
        assert abs(got.mu - cm.depth.mu) <= 0.05
        assert abs(got.sigma - cm.depth.sigma) <= 0.05

    def test_constant_boxes_zero_sigma(self):
        frames = []
        grid = DepthGrid(np.full((8, 8), 5.0, dtype=np.float32))
        for i in range(50):
            frames.append(AnnotatedFrame(
                frame_id=str(i), camera_id="c", width=64, height=64,
                class_ids=[3], boxes=[[10.0, 20.0, 8.0, 16.0]], depth_path="grid",
            ))
        model, _ = fit_model(frames, lambda path: grid, RunConfig())
        got = model.class_model("c", 3)
        assert got.depth.sigma == pytest.approx(0.0)
        assert got.height_sigma_curve.eval_clamped(5.0) == pytest.approx(0.0, abs=1e-9)
        assert got.aspect.probs.max() == pytest.approx(1.0)
        # one window: constant curves over its centre, widened by 1e-6
        logs = np.log(np.full(50, 16.0))
        for curve, a in ((got.height_mu_curve, logs.mean()), (got.height_sigma_curve, logs.std())):
            assert curve == PowerCurve(a=float(a), b=0.0, c=1.0, domain_lo=5.0,
                                       domain_hi=5.0 + 1e-6)

    def test_two_windows_give_constant_curves_between_their_centres(self):
        """Windows 1 wide on disparities 5 and 6 hold one group each: too few
        for a power curve, so each curve is the mean of the two windows'
        statistics over the domain [5, 6]."""
        frames = [AnnotatedFrame(frame_id=str(i), camera_id="c", width=64, height=64,
                                 class_ids=[1], boxes=[[10.0, 20.0, 8.0, 16.0 - 4 * (i % 2)]],
                                 depth_path=str(i % 2))
                  for i in range(50)]
        grids = [DepthGrid(np.full((8, 8), d, dtype=np.float32)) for d in (5.0, 6.0)]
        model, _ = fit_model(frames, lambda path: grids[int(path)], RunConfig(window=1.0))
        got = model.class_model("c", 1)
        logs = [np.log(np.full(25, h)) for h in (16.0, 12.0)]
        for curve, stat in ((got.height_mu_curve, np.mean), (got.height_sigma_curve, np.std)):
            a = np.array([float(stat(window)) for window in logs]).mean()
            assert curve == PowerCurve(a=float(a), b=0.0, c=1.0, domain_lo=5.0, domain_hi=6.0)

    def test_class_with_every_window_below_min_window_count(self):
        """Depths 3 apart under windows 2 wide: no window holds 2 samples, so
        the curves are fitted on every window that holds one."""
        d = 1.0 + 3.0 * np.arange(30)
        h = np.exp(0.5 + 0.1 * d ** 0.8)
        frames = [AnnotatedFrame(frame_id=str(i), camera_id="c", width=64, height=64,
                                 class_ids=[1], boxes=[[32.0, 48.0, h[i] / 2, h[i]]],
                                 depth_path=str(i))
                  for i in range(d.size)]
        grids = {f.depth_path: DepthGrid(np.full((8, 8), d[i], np.float32))
                 for i, f in enumerate(frames)}
        model, _ = fit_model(frames, grids.__getitem__, RunConfig(min_window_count=2))
        centres, mus, sigmas, counts = depth_height_profile(d, h, window=2.0, stride=1.0)
        assert len(counts) > 30 and counts.max() == 1
        got = model.class_model("c", 1)
        assert got.height_mu_curve == fit_power_curve(centres, mus)
        assert got.height_sigma_curve == fit_power_curve(centres, sigmas)

    def test_uniform_prior_over_ten_classes(self, rng):
        cfg = RunConfig(augmentable_classes=list(range(10)), min_samples=2)
        cms = [make_class_model(class_id=c) for c in range(10)]
        frames, lookup = synthetic_dataset(cms, 5, rng)
        model, _ = fit_model(frames, lookup, cfg)
        assert np.allclose(model.class_prior, 0.1)

    def test_order_independence(self, rng):
        cm = make_class_model(class_id=2)
        frames, lookup = synthetic_dataset([cm], 200, rng)
        cfg = RunConfig()
        m1, _ = fit_model(frames, lookup, cfg)
        m2, _ = fit_model(list(reversed(frames)), lookup, cfg)
        a = m1.class_model("cam0", 2)
        b = m2.class_model("cam0", 2)
        assert a.depth == b.depth
        assert a.height_mu_curve == b.height_mu_curve
        assert np.array_equal(a.aspect.probs, b.aspect.probs)

    def test_small_class_falls_back_to_pooled(self, rng):
        cm = make_class_model(class_id=1)
        frames_a, lookup_a = synthetic_dataset([cm], 100, rng, camera_id="camA")
        frames_b, lookup_b = synthetic_dataset([cm], 5, rng, camera_id="camB")
        # re-key camB's frame ids and paths so the two datasets don't collide
        frames_b = [dataclasses.replace(fr, frame_id=f"b{fr.frame_id}",
                                        depth_path=f"b{fr.depth_path}") for fr in frames_b]
        model, warnings = fit_model(
            frames_a + frames_b,
            lambda path: lookup_b(path[1:]) if path.startswith("b") else lookup_a(path),
            RunConfig(min_samples=30),
        )
        assert "camB" not in model.cameras
        assert model.class_model("camB", 1) is model.cameras["*"][1]
        assert model.class_model("camA", 1) is model.cameras["camA"][1]
        assert any("fallback" in w for w in warnings)

    def test_zero_disparity_samples_excluded_and_counted(self, rng):
        """Boxes standing on disparity 0 leave the fit: class 1 fits as if
        they were absent, and class 2, which has no other sample, is
        excluded. Each class's count is named in the warnings."""
        cm = make_class_model(class_id=1)
        frames, lookup = synthetic_dataset([cm], 200, rng)
        on_zero = AnnotatedFrame(
            frame_id="zero", camera_id="cam0", width=64, height=64,
            class_ids=[1] * 7 + [2] * 40, boxes=[[32.0, 48.0, 4.0, 8.0]] * 47,
            depth_path="zero",
        )
        zero = DepthGrid(np.zeros((8, 8), np.float32))
        model, got_warnings = fit_model(
            frames + [on_zero], lambda path: zero if path == "zero" else lookup(path),
            RunConfig())
        clean, _ = fit_model(frames, lookup, RunConfig())
        got = model.class_model("cam0", 1)
        assert got.depth == clean.class_model("cam0", 1).depth
        assert got.sample_count == 200
        assert model.prior_classes == (1,)
        assert got_warnings == [
            "class 1: 7 samples on disparity <= 0, excluded from the fit",
            "class 2: 40 samples on disparity <= 0, excluded from the fit",
            "class 2: only 0 samples overall, excluded",
        ]

    def test_augmentable_class_below_min_samples_raises_naming_it(self, rng):
        """The prior draws only fitted classes: class 2, 5 samples short of
        min_samples, and class 9, with none, are named; class 1 is not."""
        frames, lookup = synthetic_dataset([make_class_model(class_id=1)], 40, rng)
        few = AnnotatedFrame(frame_id="few", camera_id="cam0", width=64, height=64,
                             class_ids=[2] * 5, boxes=[[32.0, 48.0, 4.0, 8.0]] * 5,
                             depth_path="few")
        grid = DepthGrid(np.full((8, 8), 10.0, np.float32))
        cfg = RunConfig(min_samples=10, augmentable_classes=[9, 1, 2])
        with pytest.raises(InsufficientData, match=r"^augmentable classes \[2, 9\] have no"
                                                   r" fit: fewer than min_samples=10 "):
            fit_model(frames + [few], lambda path: grid if path == "few" else lookup(path), cfg)

    @pytest.mark.parametrize("augmentable", [None, [2, 1]])
    def test_frequency_prior_is_the_pooled_sample_share(self, augmentable):
        """Each prior class's probability is its pooled fit's share of the
        samples: class 1's boxes on disparity 0 are not counted, and class
        3, below min_samples, has no share."""
        # (class, boxes, disparity) per frame
        specs = [(1, 12, 10.0), (2, 30, 20.0), (3, 3, 15.0), (1, 4, 0.0)]
        frames = [AnnotatedFrame(frame_id=str(i), camera_id="cam0", width=64, height=64,
                                 class_ids=[c] * n, boxes=[[32.0, 48.0, 4.0, 8.0]] * n,
                                 depth_path=str(i))
                  for i, (c, n, _) in enumerate(specs)]
        grid_of = {str(i): DepthGrid(np.full((8, 8), d, np.float32))
                   for i, (_, _, d) in enumerate(specs)}
        cfg = RunConfig(class_prior="frequency", min_samples=5, augmentable_classes=augmentable)
        model, _ = fit_model(frames, grid_of.__getitem__, cfg)
        assert model.prior_classes == (1, 2)
        assert [model.cameras["*"][c].sample_count for c in (1, 2)] == [12, 30]
        assert model.class_prior.tolist() == [12 / 42, 30 / 42]

    def test_empty_dataset(self):
        with pytest.raises(InsufficientData):
            fit_model([], lambda path: None, RunConfig())
