import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scene_placer.errors import (
    DimensionMismatch,
    EmptyDrivableSpace,
    InvalidBox,
)
from scene_placer.geometry import (
    BandIndex,
    BBox,
    DepthGrid,
    DrivableMask,
    LabelGrid,
    closest_allowed_depth,
    crop_geometry,
    drivable_mask,
    in_band,
    placement_band,
)

from conftest import pixel_xy


def brute_force_band(depth, mask, d, tau):
    """Independent O(W*H) reference for placement_band."""
    out = []
    h, w = depth.shape
    for y in range(h):
        for x in range(w):
            if mask[y, x] and abs(float(depth[y, x]) - d) <= tau:
                out.append((x, y))
    return out


class TestDrivableMask:
    def test_direct_membership(self):
        # labels: road=1, sky=4, sidewalk=3, car=5
        labels = LabelGrid([[1, 4], [3, 5]])
        mask = drivable_mask(labels, {1, 3})
        assert mask.bits.tolist() == [[True, False], [True, False]]

    def test_universal_set(self):
        labels = LabelGrid([[1, 4], [3, 5]])
        mask = drivable_mask(labels, {1, 3, 4, 5})
        assert mask.bits.all()

    def test_road_terrain_sidewalk_config(self):
        labels = LabelGrid([[1, 2], [3, 7]])  # road, terrain, sidewalk, other
        mask = drivable_mask(labels, {1, 2, 3})
        assert mask.bits.tolist() == [[True, True], [True, False]]

    def test_empty_class_set_rejected(self):
        with pytest.raises(ValueError):
            drivable_mask(LabelGrid([[0]]), set())

    @pytest.mark.parametrize("classes", [{1, 300}, {-1}, {256}])
    def test_class_outside_label_range_rejected(self, classes):
        with pytest.raises(ValueError, match="0..255"):
            drivable_mask(LabelGrid([[1, 255]]), classes)

    def test_label_range_bounds_accepted(self):
        mask = drivable_mask(LabelGrid([[0, 255, 7]]), {0, 255})
        assert mask.bits.tolist() == [[True, True, False]]


class TestPlacementBand:
    def test_uniform_depth_full_mask(self):
        depth = DepthGrid(np.full((3, 5), 7.0))
        mask = DrivableMask(np.ones((3, 5), bool))
        band = placement_band(BandIndex(depth, mask), 7.0, 5.0)
        assert len(band) == 15

    def test_linear_depths(self):
        depth = DepthGrid(np.arange(16, dtype=np.float32).reshape(4, 4))
        mask = DrivableMask(np.ones((4, 4), bool))
        band = placement_band(BandIndex(depth, mask), 7.0, 2.0)
        linear = [x + 4 * y for x, y in pixel_xy(band).tolist()]
        assert linear == [5, 6, 7, 8, 9]

    def test_default_tau_matches_brute_force(self, rng):
        depth_vals = rng.uniform(0, 30, (16, 16)).astype(np.float32)
        mask_vals = rng.random((16, 16)) < 0.5
        band = placement_band(BandIndex(DepthGrid(depth_vals), DrivableMask(mask_vals)),
                              12.0, 5.0)
        assert [tuple(p) for p in pixel_xy(band).tolist()] == brute_force_band(
            depth_vals, mask_vals, 12.0, 5.0
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BandIndex(DepthGrid(np.zeros((2, 2))), DrivableMask(np.ones((3, 3), bool)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        w=st.integers(1, 32),
        h=st.integers(1, 32),
        d=st.floats(0, 40),
        tau=st.floats(0.1, 10),
    )
    def test_matches_brute_force(self, seed, w, h, d, tau):
        r = np.random.default_rng(seed)
        depth_vals = r.uniform(0, 30, (h, w)).astype(np.float32)
        mask_vals = r.random((h, w)) < 0.6
        band = placement_band(BandIndex(DepthGrid(depth_vals), DrivableMask(mask_vals)), d, tau)
        assert [tuple(p) for p in pixel_xy(band).tolist()] == brute_force_band(
            depth_vals, mask_vals, d, tau
        )
        # every member satisfies both constraints
        for x, y in pixel_xy(band).tolist():
            assert mask_vals[y, x]
            assert abs(float(depth_vals[y, x]) - d) <= tau


class TestPixelSet:
    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (3, 5)])
    def test_len_getitem_and_xy_agree(self, shape):
        # a full band lists every pixel once; (3, 5) is wider than tall, so
        # decoding by height instead of width would give wrong pixels
        h, w = shape
        band = placement_band(BandIndex(DepthGrid(np.full(shape, 4.0)),
                                        DrivableMask(np.ones(shape, bool))), 4.0, 1.0)
        expect = [(x, y) for y in range(h) for x in range(w)]
        assert len(band) == h * w
        assert [band[i] for i in range(len(band))] == expect
        assert [tuple(p) for p in pixel_xy(band).tolist()] == expect

    def test_partial_band_on_wide_grid(self):
        depth = np.zeros((2, 6), np.float32)
        depth[1, 4] = depth[0, 5] = depth[1, 0] = 9.0
        band = placement_band(BandIndex(DepthGrid(depth), DrivableMask(np.ones((2, 6), bool))),
                              9.0, 0.5)
        assert [band[i] for i in range(len(band))] == [(5, 0), (0, 1), (4, 1)]
        assert pixel_xy(band).tolist() == [[5, 0], [0, 1], [4, 1]]

    def test_band_includes_pixels_exactly_tau_away(self):
        # |2 - 7| == 5 exactly in float32: the bound is inclusive
        depth = DepthGrid([[2.0, 1.9], [12.0, 12.1]])
        band = placement_band(BandIndex(depth, DrivableMask(np.ones((2, 2), bool))), 7.0, 5.0)
        assert [band[i] for i in range(len(band))] == [(0, 0), (0, 1)]

    def test_empty_band(self):
        band = placement_band(BandIndex(DepthGrid(np.zeros((2, 3))),
                                        DrivableMask(np.ones((2, 3), bool))), 20.0, 1.0)
        assert len(band) == 0
        assert pixel_xy(band).shape == (0, 2)


class TestClosestAllowedDepth:
    def test_exact_depth_present(self):
        depth = DepthGrid([[10.0, 7.0], [3.0, 1.0]])
        mask = DrivableMask(np.ones((2, 2), bool))
        assert closest_allowed_depth(BandIndex(depth, mask), 7.0) == 7.0

    def test_nearest_of_two(self):
        depth = DepthGrid([[10.0, 20.0]])
        mask = DrivableMask([[True, True]])
        assert closest_allowed_depth(BandIndex(depth, mask), 13.0) == 10.0

    def test_brute_force_argmin(self, rng):
        depth_vals = rng.uniform(0, 30, (4, 4)).astype(np.float32)
        mask_vals = rng.random((4, 4)) < 0.7
        mask_vals[0, 0] = True
        got = closest_allowed_depth(BandIndex(DepthGrid(depth_vals), DrivableMask(mask_vals)), 7.3)
        allowed = [float(depth_vals[y, x]) for y in range(4) for x in range(4)
                   if mask_vals[y, x]]
        assert got == min(allowed, key=lambda v: abs(v - 7.3))
        # optimality against every drivable pixel
        assert all(abs(got - 7.3) <= abs(v - 7.3) for v in allowed)

    def test_empty_mask(self):
        with pytest.raises(EmptyDrivableSpace):
            closest_allowed_depth(BandIndex(DepthGrid(np.zeros((2, 2))),
                                            DrivableMask(np.zeros((2, 2), bool))), 1.0)


def parent_band(depth, mask, d, tau):
    """The unindexed query: the float32 predicate over every pixel."""
    return np.flatnonzero(in_band(depth, mask, d, tau))


def parent_closest(depth, mask, d):
    """The unindexed reset: first float32 argmin over the drivable pixels."""
    vals = depth.reshape(-1)[np.flatnonzero(mask)]
    if vals.size == 0:
        raise EmptyDrivableSpace("no drivable pixels")
    return float(vals[np.argmin(np.abs(vals - np.float32(d)))])


def assert_index_matches_parent(depth, mask, d, tau):
    index = BandIndex(DepthGrid(depth), DrivableMask(mask))
    band = placement_band(index, d, tau)
    assert band.flat.tolist() == parent_band(depth, mask, d, tau).tolist()
    try:
        expect = parent_closest(depth, mask, d)
    except EmptyDrivableSpace:
        with pytest.raises(EmptyDrivableSpace):
            closest_allowed_depth(index, d)
    else:
        assert closest_allowed_depth(index, d) == expect


def _step(x, direction, dtype):
    """x, or its neighbour in dtype towards -inf (-1) or +inf (+1)."""
    if direction == 0:
        return float(x)
    return float(np.nextafter(dtype(x), dtype(direction * np.inf)))


@st.composite
def band_queries(draw):
    """Grids of k/256 disparities (exact in float32, not monotone across
    rows) with whole undrivable rows, and d on or next to a row bound +- tau."""
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    depth = (draw(hnp.arrays(np.int64, (h, w), elements=st.integers(0, 16 * 256)))
             / 256).astype(np.float32)
    mask = draw(hnp.arrays(np.bool_, (h, w)))
    mask[draw(hnp.arrays(np.bool_, h))] = False
    tau = draw(st.integers(1, 4 * 256)) / 256
    rows = [r for r in range(h) if mask[r].any()]
    kind = draw(st.sampled_from(["edge", "grid", "inf"] if rows else ["grid", "inf"]))
    if kind == "inf":
        d = draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "grid":  # halves of 1/256 also make ties for the reset
        d = draw(st.integers(-4 * 512, 24 * 512)) / 512
    else:
        r = draw(st.sampled_from(rows))
        lo, hi = depth[r][mask[r]].min(), depth[r][mask[r]].max()
        bound = draw(st.sampled_from([float(lo) - tau, float(hi) + tau]))
        d = _step(bound, draw(st.sampled_from([-1, 0, 1])),
                  draw(st.sampled_from([np.float64, np.float32])))
    return depth, mask, d, tau


class TestBandIndexExactness:
    """The row-pruned index answers exactly like the whole-grid predicate."""

    @settings(max_examples=300, deadline=None)
    @given(query=band_queries())
    def test_matches_whole_grid_predicate(self, query):
        assert_index_matches_parent(*query)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
    @pytest.mark.parametrize("bound", ["lo", "hi"])
    @pytest.mark.parametrize("direction", [-1, 0, 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_d_next_to_a_bound_on_line_grids(self, shape, bound, direction, dtype):
        # one pixel per row on N x 1, one row on 1 x N; tau = 1
        depth = (np.array([2, 3, 9, 5, 4]) + np.array([0, 1, 2, 3, 4]) / 256)
        depth = depth.astype(np.float32).reshape(shape)
        mask = np.array([True, True, False, True, True]).reshape(shape)
        edge = float(depth[mask].min()) - 1.0 if bound == "lo" else float(depth[mask].max()) + 1.0
        assert_index_matches_parent(depth, mask, _step(edge, direction, dtype), 1.0)

    @pytest.mark.parametrize("d", [np.inf, -np.inf, 0.0, 3.0])
    def test_all_false_mask(self, d):
        shape = (3, 4)
        assert_index_matches_parent(np.full(shape, 3.0, np.float32), np.zeros(shape, bool), d, 1.0)

    @pytest.mark.parametrize("d", [np.inf, -np.inf])
    def test_infinite_d(self, d):
        depth = np.array([[1.0, 8.0], [4.0, 2.0]], np.float32)
        assert_index_matches_parent(depth, np.array([[False, True], [True, True]]), d, 1.0)

    def test_reset_ties_go_to_row_major_order(self):
        depth = np.array([[3.0, 1.0], [1.0, 3.0]], np.float32)
        mask = np.ones((2, 2), bool)
        assert_index_matches_parent(depth, mask, 2.0, 0.5)
        assert closest_allowed_depth(BandIndex(DepthGrid(depth), DrivableMask(mask)), 2.0) == 3.0

    def test_index_keeps_only_drivable_pixels(self):
        mask = np.array([[False, True, True], [False, False, False], [True, False, True]])
        depth = np.array([[5, 7, 6], [1, 1, 1], [0, 9, 2]], np.float32)
        index = BandIndex(DepthGrid(depth), DrivableMask(mask))
        assert index.flat.tolist() == [1, 2, 6, 8]
        assert index.values.tolist() == [7.0, 6.0, 0.0, 2.0]
        assert index.row_start.tolist() == [0, 2, 2, 4]
        assert index.rows.tolist() == [0, 2]
        assert index.row_lo.tolist() == [6.0, 0.0]
        assert index.row_hi.tolist() == [7.0, 2.0]


class TestCropGeometry:
    def test_paper_formula_interior(self):
        patch = crop_geometry(BBox(cx=400, by=300, w=40, h=30), 1600, 900)
        assert patch.side == 80
        assert (patch.x0, patch.y0) == (360, 245)  # centered at (400, 285)

    def test_centered_no_shift(self):
        patch = crop_geometry(BBox(cx=800, by=465, w=50, h=60), 1600, 900)
        assert patch.side == 120
        assert patch.x0 == 800 - 60
        assert patch.y0 == 435 - 60

    def test_edge_shifted_not_shrunk(self):
        patch = crop_geometry(BBox(cx=5, by=40, w=40, h=30), 1600, 900)
        assert patch.side == 80
        assert patch.x0 == 0
        assert 0 <= patch.y0 <= 900 - 80

    def test_oversized_clipped(self):
        patch = crop_geometry(BBox(cx=50, by=90, w=300, h=80), 200, 100)
        assert patch.side == 100
        assert 0 <= patch.x0 <= 200 - 100
        assert patch.y0 == 0

    def test_degenerate_box(self):
        with pytest.raises(InvalidBox):
            BBox(cx=0, by=0, w=0, h=10)

    def test_no_intersection(self):
        with pytest.raises(InvalidBox):
            crop_geometry(BBox(cx=-100, by=-50, w=10, h=10), 640, 480)

    @settings(max_examples=50, deadline=None)
    @given(
        cx=st.floats(10, 600), by=st.floats(10, 470),
        w=st.floats(1, 200), h=st.floats(1, 200),
    )
    def test_square_and_containment(self, cx, by, w, h):
        patch = crop_geometry(BBox(cx=cx, by=by, w=w, h=h), 640, 480)
        expect = max(1, int(round(2 * max(w, h))))
        assert patch.side == min(expect, 480)
        assert 0 <= patch.x0 <= 640 - patch.side
        assert 0 <= patch.y0 <= 480 - patch.side


def test_operations_are_pure(rng):
    depth_vals = rng.uniform(0, 30, (8, 8)).astype(np.float32)
    mask_vals = rng.random((8, 8)) < 0.5
    index = BandIndex(DepthGrid(depth_vals), DrivableMask(mask_vals))
    a = placement_band(index, 9.0, 3.0)
    b = placement_band(index, 9.0, 3.0)
    assert pixel_xy(a).tobytes() == pixel_xy(b).tobytes()
