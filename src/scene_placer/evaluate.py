"""Layout-statistics evaluation: distributional distance between real and
sampled layouts, band validity, and class-frequency fit.

Also hosts the random-location baseline (uniform frame positions, model
sizes) used purely as a comparison policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import InsufficientData
from .fitting import LocationModel, object_depth
from .sampler import (
    PlacementProposal,
    Provenance,
    SceneContext,
    sample_class,
    sample_depth,
    sample_height,
    sample_width,
)


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
        return {
            "per_class": [
                {
                    "class": s.class_id,
                    "n_real": s.n_real,
                    "n_proposed": s.n_proposed,
                    "ks_depth": s.ks_depth,
                    "ks_height": s.ks_height,
                    "ks_aspect": s.ks_aspect,
                    "comparable": s.comparable,
                }
                for s in self.per_class
            ],
            "band_validity": self.band_validity,
            "chi_square": self.chi_square,
            "n_proposals": self.n_proposals,
            "n_real": self.n_real,
        }

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
    if not (0 <= x < scene.depth.width and 0 <= y < scene.depth.height):
        return False
    if not scene.drivable.bits[y, x]:
        return False
    return abs(float(scene.depth.values[y, x]) - prop.d_effective) <= tau


def layout_report(real_frames, augmentations, scenes, model: LocationModel,
                  tau: float) -> LayoutReport:
    """Compare sampled layouts against real layout statistics.

    real_frames: AnnotatedFrames; augmentations: FrameAugmentation list;
    scenes: frame_id -> SceneContext (must cover both sides for the depth
    marginal and band validity).
    """
    real = {}  # class -> dict of lists
    n_real = 0
    for fr in real_frames:
        scene = scenes.get(fr.frame_id)
        for ann in fr.annotations:
            n_real += 1
            rec = real.setdefault(ann.class_id, {"d": [], "h": [], "r": []})
            if scene is not None:
                rec["d"].append(object_depth(scene.depth, ann.box.cx, ann.box.by))
            rec["h"].append(ann.box.h)
            rec["r"].append(ann.box.w / ann.box.h)

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
            if not comparable or not r[key] or not p[key]:
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


def propose_random_location(scene: SceneContext, model: LocationModel,
                            rng, cfg: RunConfig) -> PlacementProposal:
    """Baseline policy: class/size from the model, location uniform in frame."""
    class_id = sample_class(model, rng)
    cm = model.class_model(scene.camera_id, class_id)
    d = sample_depth(cm, rng)
    x = int(rng.integers(scene.depth.width))
    y = int(rng.integers(scene.depth.height))
    h = sample_height(cm, d, rng)
    w = sample_width(cm, h, rng)
    return PlacementProposal(
        class_id=class_id, d=d, d_effective=d, box=scene.anchor_box(x, y, w, h),
        show_prob=cfg.show_prob,
        provenance=Provenance(index=0, attempts=1, anchor_px=(x, y)),
    )


def save_report(report: LayoutReport, json_path=None, text_path=None):
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    if text_path is not None:
        with open(text_path, "w", encoding="utf-8") as f:
            f.write(report.to_text())
