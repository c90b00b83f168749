import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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
    clip_box,
    closest_allowed_depth,
    crop_geometry,
    drivable_mask,
    in_band,
    placement_band,
)
from scene_placer.sampler import SceneContext

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
        assert band.tolist() == [5, 6, 7, 8, 9]

    def test_default_tau_matches_brute_force(self, rng):
        depth_vals = rng.uniform(0, 30, (16, 16)).astype(np.float32)
        mask_vals = rng.random((16, 16)) < 0.5
        band = placement_band(BandIndex(DepthGrid(depth_vals), DrivableMask(mask_vals)),
                              12.0, 5.0)
        assert [tuple(p) for p in pixel_xy(band, 16).tolist()] == brute_force_band(
            depth_vals, mask_vals, 12.0, 5.0
        )

    def test_dimension_mismatch(self):
        # a band's depth and mask must share a shape; the scene, the one
        # builder of a BandIndex, checks it
        with pytest.raises(DimensionMismatch, match="differ in shape"):
            SceneContext(frame_w=2, frame_h=2, camera_id="c", depth=DepthGrid(np.zeros((2, 2))),
                         drivable=DrivableMask(np.ones((3, 3), bool)))

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
        assert [tuple(p) for p in pixel_xy(band, w).tolist()] == brute_force_band(
            depth_vals, mask_vals, d, tau
        )
        # every member satisfies both constraints
        for x, y in pixel_xy(band, w).tolist():
            assert mask_vals[y, x]
            assert abs(float(depth_vals[y, x]) - d) <= tau


class TestPixelSet:
    """A band's pixel set is an int64 array of row-major flat indices, and
    BandIndex.pixel decodes one of them by the grid's width."""

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (3, 5)])
    def test_len_getitem_and_xy_agree(self, shape):
        # a full band lists every pixel once; on all three grids decoding by
        # the height instead of the width would give wrong pixels
        h, w = shape
        index = BandIndex(DepthGrid(np.full(shape, 4.0)), DrivableMask(np.ones(shape, bool)))
        band = placement_band(index, 4.0, 1.0)
        expect = [(x, y) for y in range(h) for x in range(w)]
        assert band.dtype == np.int64 and len(band) == h * w
        assert [index.pixel(band[i]) for i in range(len(band))] == expect
        assert [tuple(p) for p in pixel_xy(band, w).tolist()] == expect

    def test_partial_band_on_wide_grid(self):
        depth = np.zeros((2, 6), np.float32)
        depth[1, 4] = depth[0, 5] = depth[1, 0] = 9.0
        index = BandIndex(DepthGrid(depth), DrivableMask(np.ones((2, 6), bool)))
        band = placement_band(index, 9.0, 0.5)
        assert band.tolist() == [5, 6, 10]
        assert [index.pixel(i) for i in band] == [(5, 0), (0, 1), (4, 1)]
        assert pixel_xy(band, 6).tolist() == [[5, 0], [0, 1], [4, 1]]

    def test_band_includes_pixels_exactly_tau_away(self):
        # |2 - 7| == 5 exactly in float32: the bound is inclusive
        index = BandIndex(DepthGrid([[2.0, 1.9], [12.0, 12.1]]),
                          DrivableMask(np.ones((2, 2), bool)))
        assert [index.pixel(i) for i in placement_band(index, 7.0, 5.0)] == [(0, 0), (0, 1)]

    def test_empty_band(self):
        band = placement_band(BandIndex(DepthGrid(np.zeros((2, 3))),
                                        DrivableMask(np.ones((2, 3), bool))), 20.0, 1.0)
        assert band.dtype == np.int64 and len(band) == 0
        assert pixel_xy(band, 3).shape == (0, 2)


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
    assert band.tolist() == parent_band(depth, mask, d, tau).tolist()
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


# Reference copies of the three frame tests that clip_box replaced: the
# sampler's visible share and clip, and the frame test of crop_geometry and
# load_layout.
def ref_visible_fraction(box, frame_w, frame_h):
    ix = max(0.0, min(box.x1, frame_w) - max(box.x0, 0.0))
    iy = max(0.0, min(box.y1, frame_h) - max(box.y0, 0.0))
    return ix * iy / box.area


def ref_clip_box(box, frame_w, frame_h):
    x0 = max(box.x0, 0.0)
    x1 = min(box.x1, float(frame_w))
    y0 = max(box.y0, 0.0)
    y1 = min(box.y1, float(frame_h))
    return BBox(cx=(x0 + x1) / 2.0, by=y1, w=x1 - x0, h=y1 - y0)


def ref_meets_frame(box, frame_w, frame_h):
    return box.x1 > 0 and box.x0 < frame_w and box.y1 > 0 and box.y0 < frame_h


def _bits(box):
    return [float(v).hex() for v in (box.cx, box.by, box.w, box.h)]


@st.composite
def boxes_near_frames(draw):
    """A frame and a box whose extent on each axis lies across, inside,
    outside, on or just off an edge, touching it from either side, or is
    larger than the frame or a tiny fraction of a pixel wide."""
    fw, fh = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))

    def axis(size):
        # quarter-pixel extents and starts are exact, so touching is exact
        extent = draw(st.one_of(st.integers(1, 12 * size).map(lambda q: q / 4),
                                st.floats(1e-3, 1e4),
                                st.sampled_from([1e-300, 5e-324, 3.0 * size])))
        edge = float(draw(st.sampled_from([0, size])))
        towards = draw(st.sampled_from([-np.inf, np.inf]))
        start = draw(st.one_of(
            st.floats(-4.0 * size, 4.0 * size),
            st.integers(-8 * size, 8 * size).map(lambda q: q / 4),
            st.sampled_from([edge - extent, edge, edge - extent / 2]),
            st.sampled_from([edge - extent, edge]).map(
                lambda v: float(np.nextafter(v, towards))),  # a hair off touching
        ))
        return start, extent

    x0, w = axis(fw)
    y0, h = axis(fh)
    return BBox(cx=x0 + w / 2.0, by=y0 + h, w=w, h=h), fw, fh


class TestClipBox:
    @settings(max_examples=500, deadline=None)
    @given(case=boxes_near_frames())
    @example(case=(BBox(cx=100.0, by=50.0, w=1e-300, h=10.0), 640, 480))
    @example(case=(BBox(cx=20.0, by=300.0, w=8.0, h=1e-300), 640, 480))
    def test_matches_the_helpers_it_replaced(self, case):
        box, fw, fh = case
        clipped = clip_box(box, fw, fh)
        if not ref_meets_frame(box, fw, fh):
            assert clipped is None
        elif clipped is None:
            # the one difference: an extent that is zero in float arithmetic
            # inside the frame, which ref_meets_frame lets through
            ix = min(box.x1, fw) - max(box.x0, 0.0)
            iy = min(box.y1, fh) - max(box.y0, 0.0)
            assert ix == 0.0 or iy == 0.0
        assume(box.area > 0)  # the visible share is a ratio of areas
        if clipped is None:
            # rejected exactly where the visible share is 0
            assert ref_visible_fraction(box, fw, fh) == 0.0
            return
        assert _bits(clipped) == _bits(ref_clip_box(box, fw, fh))
        assert (clipped.area / box.area).hex() == ref_visible_fraction(box, fw, fh).hex()
        assert 0.0 <= clipped.x0 and clipped.x1 <= fw and 0.0 <= clipped.y0 and clipped.y1 <= fh

    def test_bit_for_bit_on_random_boxes(self, rng):
        # float edges inside the frame, where (x0 + x1) / 2 and other
        # spellings of the centre round differently
        for cx, by, w, h in zip(rng.uniform(-50, 690, 20_000), rng.uniform(-50, 530, 20_000),
                                rng.lognormal(3, 1, 20_000), rng.lognormal(3, 1, 20_000)):
            box = BBox(cx=cx, by=by, w=w, h=h)
            clipped = clip_box(box, 640, 480)
            if clipped is None:
                assert not ref_meets_frame(box, 640, 480)
                continue
            assert _bits(clipped) == _bits(ref_clip_box(box, 640, 480))
            assert clipped.area / box.area == ref_visible_fraction(box, 640, 480)

    def test_zero_float_extent_inside_the_frame_is_outside(self):
        # both edges of a 1e-300-wide box at cx = 100 round to 100
        box = BBox(cx=100.0, by=50.0, w=1e-300, h=10.0)
        assert ref_meets_frame(box, 640, 480)
        assert clip_box(box, 640, 480) is None
        with pytest.raises(InvalidBox):
            crop_geometry(box, 640, 480)

    @pytest.mark.parametrize("box, expect", [
        (BBox(cx=50, by=40, w=20, h=10), (50, 40, 20, 10)),  # inside: unchanged
        (BBox(cx=-5, by=40, w=20, h=10), (2.5, 40, 5, 10)),  # over the left edge
        (BBox(cx=50, by=55, w=20, h=10), (50, 48, 20, 3)),  # over the bottom edge
        (BBox(cx=32, by=100, w=200, h=200), (32, 48, 64, 48)),  # larger than the frame
    ])
    def test_clips_to_the_frame(self, box, expect):
        got = clip_box(box, 64, 48)
        assert (got.cx, got.by, got.w, got.h) == expect

    @pytest.mark.parametrize("box", [
        BBox(cx=-10, by=40, w=20, h=10),  # right edge touches x = 0
        BBox(cx=74, by=40, w=20, h=10),  # left edge touches x = 64
        BBox(cx=50, by=0, w=20, h=10),  # bottom edge touches y = 0
        BBox(cx=50, by=58, w=20, h=10),  # top edge touches y = 48
        BBox(cx=-100, by=-50, w=10, h=10),  # off a corner
    ])
    def test_no_shared_area_is_none(self, box):
        assert clip_box(box, 64, 48) is None


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
    assert a.tobytes() == b.tobytes()
