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
from dataclasses import dataclass, field
from functools import cached_property

from ._numpy import np
from .config import RunConfig
from .errors import DimensionMismatch, MaxAttemptsExceeded
from .fitting import ClassModel, Histogram, LocationModel
from .geometry import (
    BandIndex,
    BBox,
    DepthGrid,
    DrivableMask,
    PatchRect,
    clip_box,
    closest_allowed_depth,
    crop_geometry,
    grid_scale,
    placement_band,
)


@dataclass(frozen=True)
class SceneContext:
    """One frame's geometry: dimensions plus depth and drivable grids.

    The grids have one shape and may be coarser than the frame; the `scale`
    mapping grid pixels to frame pixels must then be the same on both axes.
    """

    frame_w: int
    frame_h: int
    camera_id: str
    depth: DepthGrid
    drivable: DrivableMask
    scale: float = field(init=False)

    def __post_init__(self):
        if self.depth.values.shape != self.drivable.bits.shape:
            raise DimensionMismatch("depth and drivable grids differ in shape")
        object.__setattr__(self, "scale", grid_scale(self.frame_w, self.frame_h, self.depth))

    @cached_property
    def band_index(self) -> BandIndex:
        """The frame's band index, built on the first band query: scenes
        that are only evaluated never pay for it."""
        return BandIndex(self.depth, self.drivable)

    def anchor_box(self, x, y, w, h) -> BBox:
        """A w x h box in frame coordinates standing on the bottom edge of
        grid pixel (x, y), centred on it."""
        return BBox(cx=(x + 0.5) * self.scale, by=(y + 1.0) * self.scale, w=w, h=h)


@dataclass(frozen=True)
class Provenance:
    index: int
    attempts: int
    anchor_px: tuple  # (x, y) in grid pixels


@dataclass(frozen=True)
class PlacementProposal:
    """One placed object. `patch` is the inpainting crop of the sampled box,
    decided once when it is placed: its mask covers that patch, and `refine`
    maps the mask there whatever `box` has become."""

    class_id: int
    d: float  # depth sampled from the model
    d_effective: float  # depth after the empty-band reset (equals d if no reset)
    box: BBox
    show_prob: float
    provenance: Provenance
    patch: PatchRect
    mask_path: str | None = None


@dataclass
class FrameAugmentation:
    frame_id: str
    frame: tuple  # (width, height) in pixels
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

    Returns (x, y, d_effective), (x, y) the grid pixel of a drawn band index.
    """
    index = scene.band_index
    band = placement_band(index, d, tau)
    d_eff = d
    if len(band) == 0:
        d_eff = closest_allowed_depth(index, d)
        band = placement_band(index, d_eff, tau)  # holds the pixel d_eff was read from
    x, y = index.pixel(band[rng.integers(len(band))])
    return x, y, d_eff


def sample_height(cm: ClassModel, d: float, rng) -> float:
    mu = cm.height_mu_curve.eval_clamped(d)
    sigma = max(0.0, cm.height_sigma_curve.eval_clamped(d))
    return math.exp(mu + sigma * rng.standard_normal())


def sample_width(cm: ClassModel, h: float, rng) -> float:
    return sample_histogram(cm.aspect, rng) * h


def propose(
    scene: SceneContext,
    model: LocationModel,
    rng: np.random.Generator,
    cfg: RunConfig,
    index: int = 0,
) -> PlacementProposal:
    """Run the full ancestral chain; rejects mostly-offscreen boxes.

    A proposal whose box has less than cfg.min_visible_frac of its area (or
    none) inside the frame is resampled, up to cfg.max_attempts times.
    """
    for attempt in range(1, cfg.max_attempts + 1):
        class_id = sample_class(model, rng)
        cm = model.class_model(scene.camera_id, class_id)
        d = sample_depth(cm, rng)
        x, y, d_eff = sample_location(scene, d, cfg.tau, rng)
        h = sample_height(cm, d_eff, rng)
        w = sample_width(cm, h, rng)
        box = scene.anchor_box(x, y, w, h)
        clipped = clip_box(box, scene.frame_w, scene.frame_h)
        if clipped is None or clipped.area / box.area < cfg.min_visible_frac:
            continue
        return PlacementProposal(
            class_id=class_id,
            d=d,
            d_effective=d_eff,
            box=clipped,
            show_prob=cfg.show_prob,
            provenance=Provenance(index=index, attempts=attempt, anchor_px=(x, y)),
            patch=crop_geometry(clipped, scene.frame_w, scene.frame_h),
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
    return FrameAugmentation(frame_id=frame_id, frame=(scene.frame_w, scene.frame_h),
                             proposals=proposals, dropped=dropped)
