"""Layout-statistics evaluation: distributional distance between real and
sampled layouts, band validity, and class-frequency fit.

Real objects' disparities come from `fitting.object_depth`, one call per
frame with every box of the frame.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .fitting import LocationModel, object_depth
from .geometry import in_band
from .sampler import PlacementProposal, SceneContext


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise InsufficientData("ks_statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass
class ClassStats:
    class_id: int
    n_real: int
    n_proposed: int
    ks_depth: float | None
    ks_height: float | None
    ks_aspect: float | None
    comparable: bool


@dataclass
class LayoutReport:
    per_class: list  # ClassStats
    band_validity: float | None  # None when there are no proposals
    chi_square: float | None
    n_proposals: int
    n_real: int

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        for rec in doc["per_class"]:
            rec["class"] = rec.pop("class_id")
        return doc

    def to_text(self) -> str:
        lines = []
        lines.append(f"{'class':>8} {'n_real':>8} {'n_prop':>8} "
                     f"{'ks_depth':>9} {'ks_height':>9} {'ks_aspect':>9}")
        for s in self.per_class:
            def fmt(v):
                return f"{v:9.4f}" if v is not None else f"{'n/a':>9}"
            lines.append(
                f"{s.class_id:>8} {s.n_real:>8} {s.n_proposed:>8} "
                f"{fmt(s.ks_depth)} {fmt(s.ks_height)} {fmt(s.ks_aspect)}"
            )
        bv = "n/a" if self.band_validity is None else f"{self.band_validity:.4f}"
        cs = "n/a" if self.chi_square is None else f"{self.chi_square:.4f}"
        lines.append(f"band_validity {bv}")
        lines.append(f"chi_square    {cs}")
        lines.append(f"proposals     {self.n_proposals}")
        lines.append(f"real          {self.n_real}")
        return "\n".join(lines) + "\n"


def _anchor_band_valid(scene: SceneContext, prop: PlacementProposal, tau: float) -> bool:
    x, y = prop.provenance.anchor_px
    return (0 <= x < scene.depth.width and 0 <= y < scene.depth.height
            and bool(in_band(scene.depth.values[y, x], scene.drivable.bits[y, x],
                             prop.d_effective, tau)))


def layout_report(real_frames, augmentations, scenes, model: LocationModel,
                  tau: float) -> LayoutReport:
    """Compare sampled layouts against real layout statistics.

    real_frames: AnnotatedFrames; augmentations: FrameAugmentation list;
    scenes: frame_id -> SceneContext (must cover both sides for the depth
    marginal and band validity).
    """
    real_frames = list(real_frames)
    class_ids = np.concatenate([np.empty(0, np.int64)] + [fr.class_ids for fr in real_frames])
    boxes = np.concatenate([np.empty((0, 4))] + [fr.boxes for fr in real_frames])
    depths, probed = [np.empty(0)], [np.empty(0, bool)]  # probed: the box's frame has a scene
    for fr in real_frames:
        scene = scenes.get(fr.frame_id)
        if scene is not None:
            depths.append(object_depth(scene.depth, fr.boxes[:, 0], fr.boxes[:, 1]))
        probed.append(np.full(fr.class_ids.size, scene is not None))
    depths, probed = np.concatenate(depths), np.concatenate(probed)
    real = {}  # class -> {"d", "h", "r"}: arrays in frame order
    for cid in sorted(set(class_ids.tolist())):  # np.unique would import numpy.ma (5 ms)
        sel = class_ids == cid
        real[cid] = {"d": depths[sel[probed]], "h": boxes[sel, 3],
                     "r": boxes[sel, 2] / boxes[sel, 3]}
    n_real = class_ids.size

    proposed = {}
    valid = 0
    n_prop = 0
    for aug in augmentations:
        scene = scenes.get(aug.frame_id)
        for p in aug.proposals:
            n_prop += 1
            rec = proposed.setdefault(p.class_id, {"d": [], "h": [], "r": []})
            rec["d"].append(p.d_effective)
            rec["h"].append(p.box.h)
            rec["r"].append(p.box.w / p.box.h)
            if scene is not None and _anchor_band_valid(scene, p, tau):
                valid += 1

    per_class = []
    for cid in sorted(set(real) | set(proposed)):
        r = real.get(cid)
        p = proposed.get(cid)
        comparable = r is not None and p is not None
        def ks(key):
            if not comparable or not len(r[key]) or not p[key]:
                return None
            return ks_statistic(r[key], p[key])
        per_class.append(ClassStats(
            class_id=cid,
            n_real=len(r["h"]) if r else 0,
            n_proposed=len(p["h"]) if p else 0,
            ks_depth=ks("d"),
            ks_height=ks("h"),
            ks_aspect=ks("r"),
            comparable=comparable,
        ))

    chi = None
    if n_prop > 0:
        obs = np.array(
            [len(proposed.get(c, {"h": []})["h"]) for c in model.prior_classes],
            dtype=np.float64,
        )
        expected = model.class_prior * n_prop
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (obs - expected) ** 2 / expected, 0.0)
        chi = float(terms.sum())

    return LayoutReport(
        per_class=per_class,
        band_validity=(valid / n_prop) if n_prop else None,
        chi_square=chi,
        n_proposals=n_prop,
        n_real=n_real,
    )

