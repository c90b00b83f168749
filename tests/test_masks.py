import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scene_placer.errors import EmptyMask
from scene_placer.geometry import BBox, PatchRect, crop_geometry
from scene_placer.masks import (
    InstanceMask,
    composite_masks,
    composite_order,
    rasterize_mask,
    refine_bbox,
    refine_layout,
    visibility_filter,
)
from scene_placer.sampler import FrameAugmentation, PlacementProposal, Provenance

from conftest import write_mask_pgm


def _proposal(d, idx=0):
    return PlacementProposal(
        class_id=1, d=d, d_effective=d,
        box=BBox(cx=10, by=10, w=4, h=4), show_prob=0.5,
        provenance=Provenance(index=idx, attempts=1, anchor_px=(0, 0)),
        patch=PatchRect(x0=6, y0=4, side=8),
    )


def brute_force_tight_box(mask: InstanceMask):
    xs, ys = [], []
    for y in range(mask.height):
        for x in range(mask.width):
            if mask.bits[y, x]:
                xs.append(x)
                ys.append(y)
    sx = mask.patch.side / mask.width
    sy = mask.patch.side / mask.height
    x_lo = mask.patch.x0 + min(xs) * sx
    x_hi = mask.patch.x0 + (max(xs) + 1) * sx
    y_hi = mask.patch.y0 + (max(ys) + 1) * sy
    return x_lo, y_hi - (max(ys) + 1 - min(ys)) * sy, x_hi, y_hi


class TestRefineBBox:
    def test_full_patch_mask(self):
        mask = InstanceMask(bits=np.ones((8, 8), bool), patch=PatchRect(10, 20, 8))
        box = refine_bbox(mask)
        assert (box.x0, box.y0, box.x1, box.y1) == (10, 20, 18, 28)

    def test_single_pixel(self):
        bits = np.zeros((8, 8), bool)
        bits[4, 3] = True
        mask = InstanceMask(bits=bits, patch=PatchRect(0, 0, 8))
        box = refine_bbox(mask)
        assert (box.x0, box.y0, box.w, box.h) == (3, 4, 1, 1)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            refine_bbox(InstanceMask(bits=np.zeros((4, 4), bool),
                                     patch=PatchRect(0, 0, 4)))

    def test_scaled_mask_resolution(self):
        # 16x16 mask bitmap over an 8-pixel patch: everything scales by 0.5
        bits = np.zeros((16, 16), bool)
        bits[2:6, 4:10] = True
        mask = InstanceMask(bits=bits, patch=PatchRect(100, 200, 8))
        box = refine_bbox(mask)
        assert box.x0 == pytest.approx(102.0)
        assert box.w == pytest.approx(3.0)
        assert box.y0 == pytest.approx(201.0)
        assert box.h == pytest.approx(2.0)

    def test_random_masks_match_brute_force(self, rng):
        for _ in range(1000):
            h, w = rng.integers(2, 12, 2)
            bits = rng.random((h, w)) < 0.3
            if not bits.any():
                bits[rng.integers(h), rng.integers(w)] = True
            mask = InstanceMask(bits=bits,
                                patch=PatchRect(int(rng.integers(0, 50)),
                                                int(rng.integers(0, 50)),
                                                int(w)))
            # keep mask square-agnostic: use width for side so sx == 1
            box = refine_bbox(mask)
            x_lo, y_lo, x_hi, y_hi = brute_force_tight_box(mask)
            assert box.x0 == pytest.approx(x_lo)
            assert box.y0 == pytest.approx(y_lo)
            assert box.x1 == pytest.approx(x_hi)
            assert box.y1 == pytest.approx(y_hi)

    def test_tightness(self, rng):
        bits = rng.random((10, 10)) < 0.4
        bits[5, 5] = True
        mask = InstanceMask(bits=bits, patch=PatchRect(0, 0, 10))
        box = refine_bbox(mask)
        # border rows/columns of the tight box must contain set bits
        assert bits[int(box.y0), :].any() and bits[int(box.y1) - 1, :].any()
        assert bits[:, int(box.x0)].any() and bits[:, int(box.x1) - 1].any()


class TestCompositeOrder:
    def test_sort_by_disparity(self):
        props = [_proposal(30), _proposal(10), _proposal(20)]
        assert composite_order(props) == [1, 2, 0]

    def test_stable_on_ties(self):
        props = [_proposal(5) for _ in range(4)]
        assert composite_order(props) == [0, 1, 2, 3]

    def test_matches_reference_sort(self, rng):
        ds = rng.uniform(0, 30, 20).tolist()
        props = [_proposal(d, i) for i, d in enumerate(ds)]
        expect = [i for _, i in sorted((d, i) for i, d in enumerate(ds))]
        assert composite_order(props) == expect


def _square_mask(x0, y0, side):
    return InstanceMask(bits=np.ones((side, side), bool),
                        patch=PatchRect(x0, y0, side))


def _composite(masks, order, frame_w, frame_h):
    return composite_masks([rasterize_mask(m, frame_w, frame_h) for m in masks], order)


def owned_share(owner, footprints):
    """Per footprint, the share of its pixels that the full-frame owner map
    gives to it."""
    out = []
    for i, (box, bits) in enumerate(footprints):
        total = np.count_nonzero(bits)
        out.append(np.count_nonzero(owner[box][bits] == i) / total if total else 0.0)
    return out


def max_disparity_owner(props, masks, frame_w, frame_h):
    """Full-frame owner map of full square masks: at each pixel, the covering
    proposal of greatest disparity (greatest index on ties), or -1."""
    owner = np.full((frame_h, frame_w), -1, dtype=np.int32)
    for y in range(frame_h):
        for x in range(frame_w):
            covering = [i for i, m in enumerate(masks)
                        if m.patch.x0 <= x < m.patch.x0 + m.patch.side
                        and m.patch.y0 <= y < m.patch.y0 + m.patch.side]
            if covering:
                owner[y, x] = max(covering, key=lambda i: (props[i].d_effective, i))
    return owner


class TestCompositeMasks:
    def test_disjoint_masks_fully_visible(self):
        props = [_proposal(5), _proposal(10)]
        masks = [_square_mask(0, 0, 4), _square_mask(10, 10, 4)]
        plan = _composite(masks, composite_order(props), 20, 20)
        assert plan.visible_frac.tolist() == [1.0, 1.0]

    def test_total_occlusion(self):
        props = [_proposal(5), _proposal(10)]  # second is nearer
        masks = [_square_mask(2, 2, 4), _square_mask(2, 2, 4)]
        plan = _composite(masks, composite_order(props), 10, 10)
        assert plan.visible_frac[0] == 0.0
        assert plan.visible_frac[1] == 1.0

    def test_pixelwise_max_disparity_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            props, masks = [], []
            for i in range(n):
                d = float(rng.uniform(1, 30))
                props.append(_proposal(d, i))
                side = int(rng.integers(2, 8))
                masks.append(_square_mask(int(rng.integers(0, 12)),
                                          int(rng.integers(0, 12)), side))
            plan = _composite(masks, composite_order(props), 16, 16)
            # oracle: the visible proposal at a pixel is the max-disparity one
            owner = max_disparity_owner(props, masks, 16, 16)
            assert plan.visible_frac.tolist() == owned_share(owner, plan.footprints)

    def test_visible_masks_disjoint_union_preserved(self, rng):
        props = [_proposal(float(d), i) for i, d in enumerate([3, 8, 8, 15])]
        masks = [_square_mask(i * 2, i * 2, 5) for i in range(4)]
        plan = _composite(masks, composite_order(props), 16, 16)
        # visible pixels are pairwise disjoint and cover the union of the inputs
        visible = [frac * np.count_nonzero(fp.bits)
                   for frac, fp in zip(plan.visible_frac, plan.footprints)]
        assert visible == pytest.approx(np.rint(visible))
        all_input = np.zeros((16, 16), bool)
        for fp in plan.footprints:
            all_input[fp.box] |= fp.bits
        assert sum(np.rint(visible)) == np.count_nonzero(all_input)


class TestVisibilityFilter:
    def test_zero_threshold_keeps_all(self):
        props = [_proposal(5), _proposal(10)]
        masks = [_square_mask(0, 0, 4), _square_mask(0, 0, 4)]
        plan = _composite(masks, composite_order(props), 10, 10)
        kept, _ = visibility_filter(plan, 0.0)
        assert kept == [0, 1]

    def test_fully_occluded_dropped(self):
        props = [_proposal(5), _proposal(10)]
        masks = [_square_mask(0, 0, 4), _square_mask(0, 0, 4)]
        plan = _composite(masks, composite_order(props), 10, 10)
        assert visibility_filter(plan, 0.2) == ([1], [0])

    def test_removing_occluded_preserves_others(self):
        props = [_proposal(5), _proposal(10), _proposal(20)]
        masks = [_square_mask(0, 0, 4), _square_mask(0, 0, 4), _square_mask(8, 8, 4)]
        plan = _composite(masks, composite_order(props), 16, 16)
        assert visibility_filter(plan, 0.2) == ([1, 2], [0])
        # the kept masks composited alone keep the same visible shares
        alone = _composite(masks[1:], composite_order(props[1:]), 16, 16)
        assert np.array_equal(alone.visible_frac, plan.visible_frac[[1, 2]])

    def test_stacked_chain_matches_exhaustive_recompute(self):
        props = [_proposal(5), _proposal(10), _proposal(20)]
        # middle mask is covered by the near mask, far mask mostly covered too
        masks = [_square_mask(0, 0, 6), _square_mask(0, 0, 5), _square_mask(0, 0, 5)]
        plan = _composite(masks, composite_order(props), 10, 10)
        kept, dropped = visibility_filter(plan, 0.2)
        # exhaustive oracle over subsets: keep exactly those above threshold
        fracs = plan.visible_frac
        assert kept == [i for i in range(3) if fracs[i] >= 0.2]
        assert dropped == [i for i in range(3) if fracs[i] < 0.2]

    @pytest.mark.parametrize("min_visible", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, min_visible):
        plan = _composite([_square_mask(0, 0, 4)], [0], 10, 10)
        with pytest.raises(ValueError, match="min_visible"):
            visibility_filter(plan, min_visible)


# Full-frame reference, the painter's algorithm: every mask becomes a
# (frame_h, frame_w) array, pasted in order into an owner map where later
# ones win, and visibility is counted on that map over the whole frame.

def _ref_rasterize(mask, frame_w, frame_h):
    out = np.zeros((frame_h, frame_w), dtype=bool)
    side = mask.patch.side
    x0, y0 = mask.patch.x0, mask.patch.y0
    fx0, fx1 = max(x0, 0), min(x0 + side, frame_w)
    fy0, fy1 = max(y0, 0), min(y0 + side, frame_h)
    if fx0 >= fx1 or fy0 >= fy1:
        return out
    xs = ((np.arange(fx0, fx1) - x0 + 0.5) * mask.width / side).astype(np.intp)
    ys = ((np.arange(fy0, fy1) - y0 + 0.5) * mask.height / side).astype(np.intp)
    xs = np.clip(xs, 0, mask.width - 1)
    ys = np.clip(ys, 0, mask.height - 1)
    out[fy0:fy1, fx0:fx1] = mask.bits[np.ix_(ys, xs)]
    return out


def _ref_composite(masks, order, frame_w, frame_h):
    footprints = [_ref_rasterize(m, frame_w, frame_h) for m in masks]
    owner = np.full((frame_h, frame_w), -1, dtype=np.int32)
    for i in order:
        owner[footprints[i]] = i
    visible = np.zeros(len(masks))
    for i, fp in enumerate(footprints):
        total = fp.sum()
        visible[i] = (owner == i).sum() / total if total else 0.0
    return footprints, visible


def _ref_kept(visible_frac, min_visible):
    return [i for i in range(len(visible_frac)) if visible_frac[i] >= min_visible]


def _random_mask(rng, frame_w, frame_h):
    """Patch anywhere from fully left/above the frame to fully right/below
    it, with a bitmap larger or smaller than the patch (not always square),
    sometimes all zero."""
    side = int(rng.integers(1, 12))
    x0 = int(rng.integers(-side - 2, frame_w + 3))
    y0 = int(rng.integers(-side - 2, frame_h + 3))
    mh, mw = (int(v) for v in rng.integers(1, 2 * side + 4, 2))
    density = rng.choice([0.0, 0.3, 0.8, 1.0])
    bits = rng.random((mh, mw)) < density
    return InstanceMask(bits=bits, patch=PatchRect(x0, y0, side))


class TestBoxClippedCompositingMatchesFullFrame:
    def test_random_cases(self, rng):
        shapes = {"left": 0, "top": 0, "right": 0, "bottom": 0, "outside": 0,
                  "empty": 0, "larger": 0, "smaller": 0, "ties": 0, "raised": 0}
        for _ in range(400):
            frame_w, frame_h = (int(v) for v in rng.integers(4, 24, 2))
            n = int(rng.integers(1, 8))
            # few distinct disparities, so paste-order ties are common
            props = [_proposal(float(rng.integers(1, 4)), i) for i in range(n)]
            masks = [_random_mask(rng, frame_w, frame_h) for _ in range(n)]
            order = composite_order(props)
            min_visible = float(rng.choice([0.0, 0.2, 0.5, 1.0]))

            plan = _composite(masks, order, frame_w, frame_h)
            ref_fps, ref_visible = _ref_composite(masks, order, frame_w, frame_h)
            assert np.array_equal(plan.visible_frac, ref_visible)
            assert len(plan.footprints) == n
            for fp, ref in zip(plan.footprints, ref_fps):
                pasted = np.zeros((frame_h, frame_w), bool)
                pasted[fp.box] = fp.bits
                assert np.array_equal(pasted, ref)

            kept, dropped = visibility_filter(plan, min_visible)
            assert kept == _ref_kept(ref_visible, min_visible)
            assert dropped == [i for i in range(n) if i not in kept]

            # dropping occluded masks never lowers a kept mask's visible
            # share, so compositing the kept ones alone drops none of them
            alone = _composite([masks[i] for i in kept],
                                    composite_order([props[i] for i in kept]),
                                    frame_w, frame_h)
            assert (alone.visible_frac >= plan.visible_frac[kept]).all()
            shapes["raised"] += bool((alone.visible_frac > plan.visible_frac[kept]).any())
            assert visibility_filter(alone, min_visible) == (list(range(len(kept))), [])

            for m in masks:
                p = m.patch
                shapes["left"] += p.x0 < 0 < p.x0 + p.side
                shapes["top"] += p.y0 < 0 < p.y0 + p.side
                shapes["right"] += p.x0 < frame_w < p.x0 + p.side
                shapes["bottom"] += p.y0 < frame_h < p.y0 + p.side
                shapes["outside"] += (p.x0 >= frame_w or p.y0 >= frame_h
                                      or p.x0 + p.side <= 0 or p.y0 + p.side <= 0)
                shapes["empty"] += not m.bits.any()
                shapes["larger"] += m.width > p.side and m.height > p.side
                shapes["smaller"] += m.width < p.side and m.height < p.side
            shapes["ties"] += len({p.d_effective for p in props}) < n
        assert all(shapes.values()), shapes


def _clustered_512_masks(rng):
    """32 proposals clustered near the middle of a 1600x900 frame, in
    ascending disparity, and the 512x512 elliptic mask that each is given."""
    yy, xx = np.ogrid[:512, :512]
    bits = ((xx - 256) / 100) ** 2 + ((yy - 256) / 120) ** 2 <= 1.0
    props = []
    for i in range(32):
        cx, by = rng.uniform(700, 900), rng.uniform(550, 700)
        w, h = rng.uniform(20, 40, 2)
        box = BBox(cx=cx, by=by, w=w, h=h)
        props.append(PlacementProposal(
            class_id=1, d=float(i), d_effective=float(i), box=box, show_prob=0.5,
            provenance=Provenance(index=i, attempts=1, anchor_px=(0, 0)),
            patch=crop_geometry(box, 1600, 900)))
    return props, bits


def test_clustered_512_masks_match_full_frame(rng):
    props, bits = _clustered_512_masks(rng)
    masks = [InstanceMask(bits=bits, patch=p.patch) for p in props]
    order = composite_order(props)
    plan = _composite(masks, order, 1600, 900)
    _, ref_visible = _ref_composite(masks, order, 1600, 900)
    assert 0.0 < ref_visible.min() < ref_visible.max() == 1.0
    assert np.array_equal(plan.visible_frac, ref_visible)


def test_refine_layout_holds_one_full_resolution_mask_at_a_time(tmp_path, rng):
    """32 clustered proposals on a 1600x900 frame, each with a 512x512 mask
    file: refinement keeps only each mask's footprint (about 80x80 here) and
    counts visibility on a coverage map of the footprints' union box, so its
    traced peak stays near one mask read (file bytes plus bitmap, 0.5 MB).
    Keeping every bitmap (8.4 MB) or a full-frame int32 map (5.8 MB) would
    exceed the bound."""
    props, bits = _clustered_512_masks(rng)
    for i, p in enumerate(props):
        props[i] = replace(p, mask_path=str(tmp_path / f"{i}.pgm"))
        write_mask_pgm(bits, props[i].mask_path)
    aug = FrameAugmentation(frame_id="0", frame=(1600, 900), proposals=props, dropped=0)
    first = refine_layout(aug, 0.2)
    tracemalloc.start()
    try:
        again = refine_layout(aug, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert len(first.proposals) + first.dropped == 32
    assert all(p.mask_path == props[p.provenance.index].mask_path for p in first.proposals)
    assert peak < 1_500_000, peak
