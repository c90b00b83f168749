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

from .config import RunConfig
from .errors import DimensionMismatch, EmptyDrivableSpace, MaxAttemptsExceeded
from .fitting import ClassModel, Histogram, LocationModel
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

    def anchor_box(self, x, y, w, h) -> BBox:
        """A w x h box in frame coordinates standing on the bottom edge of
        grid pixel (x, y), centred on it."""
        scale = self.grid_scale
        return BBox(cx=(x + 0.5) * scale, by=(y + 1.0) * scale, w=w, h=h)


@dataclass(frozen=True)
class Provenance:
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


def substream(master_seed: int, frame_id: str, index: int) -> np.random.Generator:
    """Deterministic per-proposal RNG, stable across platforms and threads."""
    digest = hashlib.sha256(f"{master_seed}:{frame_id}:{index}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _categorical(probs, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index, each with its probability."""
    cdf = np.cumsum(probs)
    i = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(i, len(probs) - 1)


def sample_histogram(hist: Histogram, rng: np.random.Generator) -> float:
    """Pick a bin by its probability, then a uniform value inside it."""
    i = _categorical(hist.probs, rng)
    return float(rng.uniform(hist.edges[i], hist.edges[i + 1]))


def sample_class(model: LocationModel, rng: np.random.Generator) -> int:
    return model.prior_classes[_categorical(model.class_prior, rng)]


def sample_depth(cm: ClassModel, rng) -> float:
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


def sample_height(cm: ClassModel, d: float, rng) -> float:
    mu = cm.height_mu_curve.eval_clamped(d)
    sigma = max(0.0, cm.height_sigma_curve.eval_clamped(d))
    return math.exp(mu + sigma * rng.standard_normal())


def sample_width(cm: ClassModel, h: float, rng) -> float:
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
    cfg: RunConfig,
    index: int = 0,
) -> PlacementProposal:
    """Run the full ancestral chain; rejects mostly-offscreen boxes.

    A proposal whose box has less than cfg.min_visible_frac of its area
    inside the frame is resampled, up to cfg.max_attempts times.
    """
    for attempt in range(1, cfg.max_attempts + 1):
        class_id = sample_class(model, rng)
        cm = model.class_model(scene.camera_id, class_id)
        d = sample_depth(cm, rng)
        x, y, d_eff = sample_location(scene, d, cfg.tau, rng)
        h = sample_height(cm, d_eff, rng)
        w = sample_width(cm, h, rng)
        box = scene.anchor_box(x, y, w, h)
        if _visible_fraction(box, scene.frame_w, scene.frame_h) < cfg.min_visible_frac:
            continue
        return PlacementProposal(
            class_id=class_id,
            d=d,
            d_effective=d_eff,
            box=_clip_box(box, scene.frame_w, scene.frame_h),
            show_prob=cfg.show_prob,
            provenance=Provenance(index=index, attempts=attempt, anchor_px=(x, y)),
        )
    raise MaxAttemptsExceeded(f"no visible proposal after {cfg.max_attempts} attempts")


def augment_frame(
    scene: SceneContext, model: LocationModel, frame_id: str, cfg: RunConfig
) -> FrameAugmentation:
    """cfg.n_objects independent proposals, each on its own RNG substream
    keyed on (cfg.seed, frame_id, index).

    Proposals that exhaust the attempt budget are dropped and counted.
    """
    proposals = []
    dropped = 0
    for i in range(cfg.n_objects):
        rng = substream(cfg.seed, frame_id, i)
        try:
            proposals.append(propose(scene, model, rng, cfg, index=i))
        except MaxAttemptsExceeded:
            dropped += 1
    return FrameAugmentation(frame_id=frame_id, proposals=proposals, dropped=dropped)
