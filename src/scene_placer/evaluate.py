"""Layout-statistics evaluation: distributional distance between real and
sampled layouts, band validity, and class-frequency fit.

Both sides are compared as columns of class id, disparity, height and w/h.
The real side comes from `fitting.object_columns`, the reading the fit uses:
each box's bottom-center is mapped to grid pixels by the frame-to-grid scale
and probed on its frame's depth grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ._numpy import np
from .errors import InsufficientData
from .fitting import LocationModel, object_columns
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
    band_validity: float | None  # None when no proposal's frame has a scene
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


def layout_report(real_frames, read_depth, augmentations, scenes, model: LocationModel,
                  tau: float) -> LayoutReport:
    """Compare sampled layouts against real layout statistics.

    real_frames: AnnotatedFrames, read as `fit_model` reads them, through
    `object_columns` and `read_depth` of each `depth_path` (a frame without
    one has no disparities); augmentations:
    FrameAugmentation list; scenes: frame_id -> SceneContext. band_validity
    is the share of the proposals of frames with a scene whose anchor lies in
    their band; the proposals of other frames count everywhere else.
    """
    real = object_columns(list(real_frames), read_depth)
    props = [(p, scenes.get(aug.frame_id)) for aug in augmentations for p in aug.proposals]
    proposed = (np.array([p.class_id for p, _ in props], np.int64),
                np.array([p.d_effective for p, _ in props], np.float64),
                np.array([p.box.h for p, _ in props], np.float64),
                np.array([p.box.w / p.box.h for p, _ in props], np.float64))
    checked = [_anchor_band_valid(scene, p, tau) for p, scene in props if scene is not None]
    n_prop = len(props)

    per_class = []
    probed = ~np.isnan(real[1])
    # sorted(set()), not np.unique: its first call in a process imports numpy.ma (5 ms)
    for cid in sorted(set(real[0].tolist()) | set(proposed[0].tolist())):
        r_of, p_of = real[0] == cid, proposed[0] == cid
        comparable = bool(r_of.any() and p_of.any())
        # ks_depth, ks_height, ks_aspect; boxes without a disparity count in all but ks_depth
        ks = [ks_statistic(real[k][sel], proposed[k][p_of]) if comparable and sel.any() else None
              for k, sel in ((1, r_of & probed), (2, r_of), (3, r_of))]
        per_class.append(ClassStats(cid, int(np.count_nonzero(r_of)),
                                    int(np.count_nonzero(p_of)), *ks, comparable))

    chi = None
    if n_prop > 0:
        obs = np.array([np.count_nonzero(proposed[0] == c) for c in model.prior_classes],
                       dtype=np.float64)
        expected = model.class_prior * n_prop
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (obs - expected) ** 2 / expected, 0.0)
        chi = float(terms.sum())

    return LayoutReport(
        per_class=per_class,
        band_validity=(sum(checked) / len(checked)) if checked else None,
        chi_square=chi,
        n_proposals=n_prop,
        n_real=real[0].size,
    )

