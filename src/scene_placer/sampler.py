"""Ancestral sampling of object placements from a fitted location model.

The chain is: class -> depth -> location (placement band) -> height -> width.
If the band for a sampled depth is empty, the depth is reset to the closest
value present in the drivable space and the band rebuilt.

Randomness comes from counter-based Philox streams keyed on
(master_seed, frame_id, proposal_index), so results are independent of
thread count and frame processing order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDrivableSpace,
    MaxAttemptsExceeded,
    UnknownClass,
)
from .fitting import Histogram, LocationModel
from .geometry import BBox, DepthGrid, DrivableMask, placement_band, closest_allowed_depth


@dataclass(frozen=True)
class SceneContext:
    """One frame's geometry: dimensions plus depth and drivable grids.

    Grids may be at a lower resolution than the frame; the scale factor
    mapping grid pixels to frame pixels must then be the same on both axes.
    """

    frame_w: int
    frame_h: int
    camera_id: str
    depth: DepthGrid
    drivable: DrivableMask

    def __post_init__(self):
        if self.depth.values.shape != self.drivable.bits.shape:
            raise DimensionMismatch("depth and drivable grids differ in shape")
        sx = self.frame_w / self.depth.width
        sy = self.frame_h / self.depth.height
        if abs(sx - sy) > 1e-6:
            raise DimensionMismatch("grid-to-frame scale differs between axes")

    @property
    def grid_scale(self) -> float:
        return self.frame_w / self.depth.width


@dataclass(frozen=True)
class Provenance:
    seed: int
    frame_id: str
    index: int
    attempts: int
    anchor_px: tuple  # (x, y) in grid pixels


@dataclass(frozen=True)
class PlacementProposal:
    class_id: int
    d: float  # depth sampled from the model
    d_effective: float  # depth after the empty-band reset (equals d if no reset)
    box: BBox
    show_prob: float
    provenance: Provenance
    mask_path: str | None = None


@dataclass
class FrameAugmentation:
    frame_id: str
    proposals: list
    dropped: int


@dataclass
class SamplerParams:
    tau: float = 5.0
    show_prob: float = 0.5
    min_visible_frac: float = 0.25
    max_attempts: int = 25


def substream(master_seed: int, frame_id: str, index: int) -> np.random.Generator:
    """Deterministic per-proposal RNG, stable across platforms and threads."""
    digest = hashlib.sha256(f"{master_seed}:{frame_id}:{index}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_histogram(hist: Histogram, rng: np.random.Generator) -> float:
    """Inverse-CDF draw: pick a bin by its probability, then uniform inside it."""
    cdf = np.cumsum(hist.probs)
    u = rng.random()
    i = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    i = min(i, len(hist.probs) - 1)
    return float(rng.uniform(hist.edges[i], hist.edges[i + 1]))


def sample_class(model: LocationModel, rng: np.random.Generator) -> int:
    cdf = np.cumsum(model.class_prior.probs)
    u = rng.random()
    i = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return model.prior_classes[min(i, len(model.prior_classes) - 1)]


def sample_depth(model: LocationModel, camera_id, class_id, rng) -> float:
    cm = model.class_model(camera_id, class_id)
    if cm is None:
        raise UnknownClass(f"no fitted model for class {class_id}")
    return math.exp(cm.depth.mu + cm.depth.sigma * rng.standard_normal())


def sample_location(scene: SceneContext, d: float, tau: float, rng):
    """Uniform pixel from the placement band; resets d if the band is empty.

    Returns (x, y, d_effective) with (x, y) in grid pixel coordinates.
    """
    band = placement_band(scene.depth, scene.drivable, d, tau)
    d_eff = d
    if len(band) == 0:
        d_eff = closest_allowed_depth(scene.depth, scene.drivable, d)
        band = placement_band(scene.depth, scene.drivable, d_eff, tau)
    if len(band) == 0:
        raise EmptyDrivableSpace("drivable mask has no set pixels")
    x, y = band[int(rng.integers(len(band)))]
    return x, y, d_eff


def sample_height(model: LocationModel, camera_id, class_id, d: float, rng) -> float:
    cm = model.class_model(camera_id, class_id)
    if cm is None:
        raise UnknownClass(f"no fitted model for class {class_id}")
    mu = cm.height_mu_curve.eval_clamped(d)
    sigma = max(0.0, cm.height_sigma_curve.eval_clamped(d))
    return math.exp(mu + sigma * rng.standard_normal())


def sample_width(model: LocationModel, camera_id, class_id, h: float, rng) -> float:
    cm = model.class_model(camera_id, class_id)
    if cm is None:
        raise UnknownClass(f"no fitted model for class {class_id}")
    return sample_histogram(cm.aspect, rng) * h


def _visible_fraction(box: BBox, frame_w: int, frame_h: int) -> float:
    ix = max(0.0, min(box.x1, frame_w) - max(box.x0, 0.0))
    iy = max(0.0, min(box.y1, frame_h) - max(box.y0, 0.0))
    return ix * iy / box.area


def _clip_box(box: BBox, frame_w: int, frame_h: int) -> BBox:
    x0 = max(box.x0, 0.0)
    x1 = min(box.x1, float(frame_w))
    y0 = max(box.y0, 0.0)
    y1 = min(box.y1, float(frame_h))
    return BBox(cx=(x0 + x1) / 2.0, by=y1, w=x1 - x0, h=y1 - y0)


def propose(
    scene: SceneContext,
    model: LocationModel,
    rng: np.random.Generator,
    params: SamplerParams,
    seed: int = 0,
    frame_id: str = "",
    index: int = 0,
) -> PlacementProposal:
    """Run the full ancestral chain; rejects mostly-offscreen boxes.

    A proposal whose box has less than params.min_visible_frac of its area
    inside the frame is resampled, up to params.max_attempts times.
    """
    scale = scene.grid_scale
    for attempt in range(1, params.max_attempts + 1):
        class_id = sample_class(model, rng)
        d = sample_depth(model, scene.camera_id, class_id, rng)
        x, y, d_eff = sample_location(scene, d, params.tau, rng)
        h = sample_height(model, scene.camera_id, class_id, d_eff, rng)
        w = sample_width(model, scene.camera_id, class_id, h, rng)
        # anchor at the bottom edge of the chosen grid pixel, in frame coords
        box = BBox(cx=(x + 0.5) * scale, by=(y + 1.0) * scale, w=w, h=h)
        if _visible_fraction(box, scene.frame_w, scene.frame_h) < params.min_visible_frac:
            continue
        return PlacementProposal(
            class_id=class_id,
            d=d,
            d_effective=d_eff,
            box=_clip_box(box, scene.frame_w, scene.frame_h),
            show_prob=params.show_prob,
            provenance=Provenance(
                seed=seed, frame_id=frame_id, index=index,
                attempts=attempt, anchor_px=(x, y),
            ),
        )
    raise MaxAttemptsExceeded(
        f"no visible proposal after {params.max_attempts} attempts"
    )


def augment_frame(
    scene: SceneContext,
    model: LocationModel,
    n_objects: int,
    master_seed: int,
    frame_id: str,
    params: SamplerParams | None = None,
) -> FrameAugmentation:
    """n_objects independent proposals, each on its own RNG substream.

    Proposals that exhaust the attempt budget are dropped and counted.
    """
    if params is None:
        params = SamplerParams()
    proposals = []
    dropped = 0
    for i in range(n_objects):
        rng = substream(master_seed, frame_id, i)
        try:
            proposals.append(
                propose(scene, model, rng, params, seed=master_seed,
                        frame_id=frame_id, index=i)
            )
        except MaxAttemptsExceeded:
            dropped += 1
    return FrameAugmentation(frame_id=frame_id, proposals=proposals, dropped=dropped)
