"""Raster-grid types and deterministic geometric primitives.

Depth values are relative disparity: higher means closer to the camera.
Nothing here ever inverts them; all statistics live in disparity space.
Boxes use continuous pixel coordinates with a bottom-center anchor.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class LabelGrid:
    """Per-pixel semantic class indices, shape (height, width), uint8."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_array(self.labels, np.uint8))
        if self.labels.ndim != 2:
            raise DimensionMismatch("label grid must be 2-D")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


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
class PixelSet:
    """Pixels of a grid `width` pixels wide, as row-major flat indices.

    Flat index i is the pixel (x, y) = (i % width, i // width), so ascending
    indices are the canonical row-major order. Picks decode one index each;
    the (n, 2) array of (x, y) pairs is built only when `xy` is read.
    """

    flat: np.ndarray
    width: int

    def __post_init__(self):
        object.__setattr__(self, "flat", _frozen_array(self.flat, np.int64).reshape(-1))

    def __len__(self) -> int:
        return self.flat.shape[0]

    def __getitem__(self, i):
        y, x = divmod(int(self.flat[i]), self.width)
        return x, y

    @property
    def xy(self) -> np.ndarray:
        ys, xs = np.divmod(self.flat, self.width)
        return _frozen_array(np.stack([xs, ys], axis=1), np.int64)


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


def placement_band(depth: DepthGrid, mask: DrivableMask, d: float, tau: float) -> PixelSet:
    """All drivable pixels whose disparity is within tau of the target d.

    This is the admissible anchor region for an object sampled at depth d.
    """
    if depth.values.shape != mask.bits.shape:
        raise DimensionMismatch(
            f"depth {depth.values.shape} vs mask {mask.bits.shape}"
        )
    if not tau > 0:
        raise ValueError("tau must be > 0")
    hit = mask.bits & (np.abs(depth.values - np.float32(d)) <= tau)
    return PixelSet(np.flatnonzero(hit), depth.width)  # ascending = row-major


def closest_allowed_depth(depth: DepthGrid, mask: DrivableMask, d: float) -> float:
    """Depth of the drivable pixel nearest to d; ties go to row-major order."""
    if depth.values.shape != mask.bits.shape:
        raise DimensionMismatch(
            f"depth {depth.values.shape} vs mask {mask.bits.shape}"
        )
    flat_idx = np.flatnonzero(mask.bits)
    if flat_idx.size == 0:
        raise EmptyDrivableSpace("cannot reset depth: no drivable pixels")
    vals = depth.values.reshape(-1)[flat_idx]
    # argmin returns the first minimum, which is the row-major tie-break
    best = np.argmin(np.abs(vals - np.float32(d)))
    return float(vals[best])


def crop_geometry(box: BBox, frame_w: int, frame_h: int) -> PatchRect:
    """Square inpainting patch around a box: side = round(2 * max(w, h)).

    The square starts centered on the box center. If it overruns the frame it
    is shifted (never shrunk) back inside; only when the side exceeds a frame
    dimension is it clipped to fit.
    """
    if box.x1 <= 0 or box.x0 >= frame_w or box.y1 <= 0 or box.y0 >= frame_h:
        raise InvalidBox("box does not intersect the frame")
    side = int(round(2.0 * max(box.w, box.h)))
    side = max(side, 1)
    if side > min(frame_w, frame_h):
        side = min(frame_w, frame_h)
    x0 = int(round(box.cx - side / 2.0))
    y0 = int(round(box.center_y - side / 2.0))
    x0 = min(max(x0, 0), frame_w - side)
    y0 = min(max(y0, 0), frame_h - side)
    return PatchRect(x0=x0, y0=y0, side=side)
