"""Mask-driven box refinement and occlusion-aware compositing.

Instance masks live in patch-local pixels and are placed in the frame by
their PatchRect. Compositing resolves overlaps as if the masks were pasted
far-to-near (ascending disparity, i.e. nearest last), so that near
objects hide far ones, and gives each proposal the share of its mask left
visible. A mask covers only its patch, so each is rasterized over the part of
its patch inside the frame as soon as it is read, and only that footprint is
kept: one full-resolution mask is alive at a time. Visibility is counted once
per frame, nearest first, over a coverage map of the union of the footprints'
boxes, not the frame: dropping occluded proposals selects on those shares and
counts nothing again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import dataset_io
from ._numpy import np
from .errors import EmptyMask
from .geometry import BBox, PatchRect
from .sampler import FrameAugmentation


@dataclass(frozen=True)
class InstanceMask:
    """Binary object mask in patch-local coordinates.

    The stored bitmap may be at a different resolution than the patch (e.g.
    512x512 from a fixed-size generator); it is scaled back to the patch side
    when mapped into the frame.
    """

    bits: np.ndarray  # (h, w) bool
    patch: PatchRect

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.bits.ndim != 2:
            raise ValueError("mask must be 2-D")

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]


class Footprint(NamedTuple):
    """A mask's frame pixels, clipped to the frame: bits[r, c] covers frame
    pixel (box[1].start + c, box[0].start + r). Outside the box the mask
    covers nothing, so all painting and counting stays inside it."""

    box: tuple  # (row slice, column slice) into a (frame_h, frame_w) array
    bits: np.ndarray  # (rows, cols) bool


@dataclass
class CompositePlan:
    """Occlusion-resolved footprints: footprints[i] is proposal i's
    box-clipped rasterized footprint (before occlusion) and visible_frac[i]
    the share of it that no nearer footprint covers."""

    footprints: list  # list of Footprint
    visible_frac: np.ndarray  # per proposal, 0..1


def refine_bbox(mask: InstanceMask) -> BBox:
    """Tight box around the mask's set bits, in frame coordinates.

    Pixel (px, py) covers [px, px+1) x [py, py+1) patch-locally, scaled by
    patch.side / mask resolution when mapped to the frame.
    """
    rows = mask.bits.any(axis=1)
    cols = mask.bits.any(axis=0)
    if not rows.any():
        raise EmptyMask("mask has no set bits")
    y_min, y_max = np.argmax(rows), mask.height - 1 - np.argmax(rows[::-1])
    x_min, x_max = np.argmax(cols), mask.width - 1 - np.argmax(cols[::-1])
    sx = mask.patch.side / mask.width
    sy = mask.patch.side / mask.height
    x_lo = mask.patch.x0 + x_min * sx
    x_hi = mask.patch.x0 + (x_max + 1) * sx
    y_hi = mask.patch.y0 + (y_max + 1) * sy
    h = (y_max + 1 - y_min) * sy
    return BBox(cx=(x_lo + x_hi) / 2.0, by=float(y_hi), w=float(x_hi - x_lo), h=float(h))


def composite_order(proposals) -> list:
    """Paste order: ascending disparity (farthest first), stable on ties."""
    return sorted(range(len(proposals)), key=lambda i: (proposals[i].d_effective, i))


def rasterize_mask(mask: InstanceMask, frame_w: int, frame_h: int) -> Footprint:
    """Nearest-neighbor placement of a patch-local mask onto the frame grid,
    over the part of its patch that lies inside the frame."""
    side = mask.patch.side
    x0, y0 = mask.patch.x0, mask.patch.y0
    fx0, fx1 = max(x0, 0), min(x0 + side, frame_w)
    fy0, fy1 = max(y0, 0), min(y0 + side, frame_h)
    if fx0 >= fx1 or fy0 >= fy1:
        return Footprint(box=(slice(0, 0), slice(0, 0)), bits=np.zeros((0, 0), dtype=bool))
    # frame pixel centers sampled back into mask resolution
    xs = ((np.arange(fx0, fx1) - x0 + 0.5) * mask.width / side).astype(np.intp)
    ys = ((np.arange(fy0, fy1) - y0 + 0.5) * mask.height / side).astype(np.intp)
    xs = np.clip(xs, 0, mask.width - 1)
    ys = np.clip(ys, 0, mask.height - 1)
    return Footprint(box=(slice(fy0, fy1), slice(fx0, fx1)), bits=mask.bits[np.ix_(ys, xs)])


def composite_masks(footprints, order) -> CompositePlan:
    """Resolve overlaps as if the footprints were pasted in the given order,
    later ones winning: walked nearest first, each footprint's visible share
    is that of its pixels not yet covered on a map of their union box."""
    boxes = [box for box, bits in footprints if bits.size]
    y0 = min((r.start for r, _ in boxes), default=0)
    x0 = min((c.start for _, c in boxes), default=0)
    y1 = max((r.stop for r, _ in boxes), default=0)
    x1 = max((c.stop for _, c in boxes), default=0)
    covered = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    visible = np.zeros(len(footprints))
    for i in reversed(order):
        (rows, cols), bits = footprints[i]
        total = np.count_nonzero(bits)
        if total:
            here = covered[rows.start - y0:rows.stop - y0, cols.start - x0:cols.stop - x0]
            visible[i] = (total - np.count_nonzero(here & bits)) / total
            here |= bits
    return CompositePlan(footprints=footprints, visible_frac=visible)


def visibility_filter(plan: CompositePlan, min_visible: float):
    """Split the plan's proposals at min_visible.

    Returns (kept, dropped): ascending indices of the proposals visible at
    least min_visible, and of the rest.
    """
    if not 0.0 <= min_visible <= 1.0:
        raise ValueError("min_visible must be in [0, 1]")
    kept, dropped = [], []
    for i, frac in enumerate(plan.visible_frac.tolist()):
        (kept if frac >= min_visible else dropped).append(i)
    return kept, dropped


def _refine_one(p, frame_w: int, frame_h: int):
    """Proposal p refined to the tight box of its mask, with the mask's
    footprint; None when p has no mask file or its mask has no set bits. The
    full-resolution mask is freed on return."""
    if p.mask_path is None or not os.path.exists(p.mask_path):
        return None
    mask = InstanceMask(bits=dataset_io.read_mask_pgm(p.mask_path), patch=p.patch)
    try:
        box = refine_bbox(mask)
    except EmptyMask:
        return None
    return replace(p, box=box), rasterize_mask(mask, frame_w, frame_h)


def refine_layout(aug: FrameAugmentation, min_visible: float) -> FrameAugmentation:
    """Refine each proposal to the tight box of its mask, composite the masked
    proposals far-to-near and drop those visible below min_visible.

    Each proposal's mask is the file at its mask_path, mapped into the
    proposal's stored patch and clipped to the layout's frame. A proposal
    with no mask file, or an all-zero one, passes through unchanged and is not
    composited. Passed-through proposals come first, then the kept masked ones.
    The patches do not move, so refining a refined layout changes nothing.
    """
    masked, footprints, passthrough = [], [], []
    for p in aug.proposals:
        refined = _refine_one(p, *aug.frame)
        if refined is None:
            passthrough.append(p)
            continue
        masked.append(refined[0])
        footprints.append(refined[1])
    kept, dropped = [], []
    if masked:
        plan = composite_masks(footprints, composite_order(masked))
        kept, dropped = visibility_filter(plan, min_visible)
    return FrameAugmentation(
        frame_id=aug.frame_id,
        frame=aug.frame,
        proposals=passthrough + [masked[i] for i in kept],
        dropped=aug.dropped + len(dropped),
    )
