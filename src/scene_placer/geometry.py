"""Raster-grid types and deterministic geometric primitives.

Depth values are relative disparity: higher means closer to the camera.
Nothing here ever inverts them; all statistics live in disparity space.
Boxes use continuous pixel coordinates with a bottom-center anchor.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .errors import DimensionMismatch, EmptyDrivableSpace, InvalidBox


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DepthGrid:
    """Per-pixel relative disparity for one frame, shape (height, width)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, np.float32))
        if self.values.ndim != 2:
            raise DimensionMismatch("depth grid must be 2-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("depth values must be finite")
        if np.any(self.values < 0):
            raise ValueError("depth values must be >= 0")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def grid_scale(frame_w, frame_h, grid: DepthGrid) -> float:
    """Frame pixels per grid pixel; a grid may be coarser than its frame,
    but the scale must then be the same on both axes."""
    sx, sy = frame_w / grid.width, frame_h / grid.height
    if abs(sx - sy) > 1e-6:
        raise DimensionMismatch(f"grid-to-frame scale differs between axes:"
                                f" {sx:g} across, {sy:g} down")
    return sx


@dataclass(frozen=True)
class LabelGrid:
    """Per-pixel semantic class indices, shape (height, width), uint8."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_array(self.labels, np.uint8))
        if self.labels.ndim != 2:
            raise DimensionMismatch("label grid must be 2-D")


@dataclass(frozen=True)
class DrivableMask:
    """Boolean mask of drivable-space pixels, shape (height, width)."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _frozen_array(self.bits, bool))
        if self.bits.ndim != 2:
            raise DimensionMismatch("drivable mask must be 2-D")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box anchored at its bottom-center point.

    cx: horizontal center, by: bottom edge, both in continuous frame pixels.
    """

    cx: float
    by: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise InvalidBox(f"degenerate box w={self.w} h={self.h}")

    @property
    def x0(self) -> float:
        return self.cx - self.w / 2.0

    @property
    def x1(self) -> float:
        return self.cx + self.w / 2.0

    @property
    def y0(self) -> float:
        return self.by - self.h

    @property
    def y1(self) -> float:
        return self.by

    @property
    def center_y(self) -> float:
        return self.by - self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class PatchRect:
    """Square crop region in frame pixels; side is kept so the caller can map
    the patch to a fixed-resolution target (512x512)."""

    x0: int
    y0: int
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise InvalidBox(f"patch side must be >= 1, got {self.side}")


def drivable_mask(labels: LabelGrid, drivable_classes) -> DrivableMask:
    """Mark pixels whose label is in the drivable set (e.g. road, terrain, sidewalk)."""
    classes = sorted(set(int(c) for c in drivable_classes))
    if not classes:
        raise ValueError("drivable_classes must be non-empty")
    # labels are uint8: a class outside 0..255 would silently match nothing
    bad = [c for c in classes if not 0 <= c <= 255]
    if bad:
        raise ValueError(f"drivable classes {bad} are outside the label range 0..255")
    bits = labels.labels == classes[0]
    for c in classes[1:]:
        bits |= labels.labels == c
    return DrivableMask(bits)


def _within_tau(disparity, d: float, tau: float):
    """|disparity - d| <= tau, elementwise in float32."""
    return np.abs(disparity - np.float32(d)) <= np.float32(tau)


def in_band(disparity, drivable, d: float, tau: float):
    """The band predicate, elementwise in float32: drivable and |disparity - d| <= tau."""
    return drivable & _within_tau(disparity, d, tau)


class BandIndex:
    """One frame's drivable pixels, grouped by row, for band queries.

    `flat` holds the drivable pixels' row-major flat indices (ascending) and
    `values` their float32 disparities; row r's pixels are
    `flat[row_start[r]:row_start[r + 1]]`. For each row in `rows` (those with
    a drivable pixel) `row_lo`/`row_hi` are its least and greatest disparity.
    `pixel(i)` decodes a flat index. `SceneContext`, the one builder, checks
    that the depth and mask have one shape.
    """

    def __init__(self, depth: DepthGrid, mask: DrivableMask):
        self.width = depth.width
        self.flat = _frozen_array(np.flatnonzero(mask.bits), np.int64)
        self.values = _frozen_array(depth.values[mask.bits], np.float32)
        # flat index of each row's first pixel, and of the end of the grid
        row_first = np.arange(depth.height + 1) * depth.width
        self.row_start = _frozen_array(np.searchsorted(self.flat, row_first), np.int64)
        # bounds of non-empty rows only: reduceat of an empty row would
        # return the next row's first value instead of an empty extreme
        self.rows = _frozen_array(np.flatnonzero(np.diff(self.row_start)), np.int64)
        starts = self.row_start[self.rows]
        self.row_lo = _frozen_array(np.minimum.reduceat(self.values, starts), np.float32)
        self.row_hi = _frozen_array(np.maximum.reduceat(self.values, starts), np.float32)

    def pixel(self, i) -> tuple:
        """The grid pixel (x, y) of row-major flat index i."""
        y, x = divmod(int(i), self.width)
        return x, y


def placement_band(index: BandIndex, d: float, tau: float) -> np.ndarray:
    """All drivable pixels whose disparity is within tau of the target d.

    This is the admissible anchor region for an object sampled at depth d.
    Membership is exactly the float32 `in_band` predicate, and the pixels
    come as ascending (row-major) int64 flat indices, which `index.pixel`
    decodes. Only the drivable pixels of the candidate row span are compared:
    from the first to the last row whose disparity range, clipped towards d,
    passes the predicate. Float32 subtraction is monotone, so a row whose
    nearest bound fails holds no band pixel.
    """
    if not tau > 0:
        raise ValueError("tau must be > 0")
    nearest = np.clip(np.float32(d), index.row_lo, index.row_hi)
    cand = index.rows[_within_tau(nearest, d, tau)]
    if cand.size == 0:
        return np.empty(0, np.int64)
    s, e = index.row_start[cand[0]], index.row_start[cand[-1] + 1]
    return index.flat[s:e][_within_tau(index.values[s:e], d, tau)]


def closest_allowed_depth(index: BandIndex, d: float) -> float:
    """Depth of the drivable pixel nearest to d in float32; ties go to
    row-major order. Compares every drivable pixel."""
    if index.values.size == 0:
        raise EmptyDrivableSpace("cannot reset depth: no drivable pixels")
    # argmin returns the first minimum, which is the row-major tie-break
    best = np.argmin(np.abs(index.values - np.float32(d)))
    return float(index.values[best])


def clip_box(box: BBox, frame_w: int, frame_h: int) -> BBox | None:
    """The part of the box inside the frame_w x frame_h frame, or None when
    they share no area (in float arithmetic)."""
    x0, x1 = max(box.x0, 0.0), min(box.x1, float(frame_w))
    y0, y1 = max(box.y0, 0.0), min(box.y1, float(frame_h))
    if x1 - x0 > 0 and y1 - y0 > 0:
        return BBox(cx=(x0 + x1) / 2.0, by=y1, w=x1 - x0, h=y1 - y0)
    return None


def crop_geometry(box: BBox, frame_w: int, frame_h: int) -> PatchRect:
    """Square inpainting patch around a box: side = round(2 * max(w, h)).

    The square starts centered on the box center. If it overruns the frame it
    is shifted (never shrunk) back inside; only when the side exceeds a frame
    dimension is it clipped to fit.
    """
    if clip_box(box, frame_w, frame_h) is None:
        raise InvalidBox(f"box does not intersect the {frame_w}x{frame_h} frame")
    side = int(round(2.0 * max(box.w, box.h)))
    side = max(side, 1)
    if side > min(frame_w, frame_h):
        side = min(frame_w, frame_h)
    x0 = int(round(box.cx - side / 2.0))
    y0 = int(round(box.center_y - side / 2.0))
    x0 = min(max(x0, 0), frame_w - side)
    y0 = min(max(y0, 0), frame_h - side)
    return PatchRect(x0=x0, y0=y0, side=side)
