"""Shared synthetic fixtures: hand-built models, scenes, and datasets, the
PGM writers for grids and masks, and the random-location baseline policy the
evaluation tests compare against.

The synthetic generative process defined here is the oracle for the fit and
sampling tests: data are drawn from known parameters, and the tests check
that fitting/sampling recovers them.
"""

import numpy as np
import pytest

from scene_placer import dataset_io
from scene_placer.config import RunConfig
from scene_placer.dataset_io import AnnotatedFrame
from scene_placer.fitting import (
    ClassModel,
    Histogram,
    LocationModel,
    LogNormalParams,
    PowerCurve,
)
from scene_placer.geometry import DepthGrid, DrivableMask, LabelGrid, crop_geometry
from scene_placer.sampler import (
    PlacementProposal,
    Provenance,
    SceneContext,
    sample_class,
    sample_depth,
    sample_height,
    sample_width,
)


def write_depth_grid(grid: DepthGrid, path, scale: float):
    """16-bit PGM that dataset_io.read_depth_grid(path, scale) reads back."""
    dataset_io._write_pnm(path, "P5", 65535,
                          np.round(grid.values / np.float32(scale)).astype(">u2"))


def write_label_grid(grid: LabelGrid, path):
    dataset_io._write_pnm(path, "P5", 255, grid.labels)


def write_mask_pgm(bits, path):
    """Set bits as 255, the rest as 0."""
    dataset_io._write_pnm(path, "P5", 255,
                          np.where(np.asarray(bits, dtype=bool), 255, 0).astype(np.uint8))


def pixel_xy(flat, width) -> np.ndarray:
    """The (n, 2) int64 array of the (x, y) pairs of row-major flat indices
    into a grid `width` pixels wide, in their order."""
    ys, xs = np.divmod(np.asarray(flat, np.int64), width)
    return np.stack([xs, ys], axis=1)


def make_class_model(
    class_id=1,
    depth_mu=2.0,
    depth_sigma=0.5,
    h_a=1.0,
    h_b=0.5,
    h_c=0.8,
    h_sigma=0.1,
    aspect_edges=(0.5, 1.0, 1.5, 2.0),
    aspect_probs=(0.2, 0.5, 0.3),
    domain=(0.05, 60.0),
):
    lo, hi = domain
    return ClassModel(
        class_id=class_id,
        depth=LogNormalParams(mu=depth_mu, sigma=depth_sigma),
        height_mu_curve=PowerCurve(a=h_a, b=h_b, c=h_c, domain_lo=lo, domain_hi=hi),
        height_sigma_curve=PowerCurve(a=h_sigma, b=0.0, c=1.0, domain_lo=lo, domain_hi=hi),
        aspect=Histogram(edges=np.asarray(aspect_edges), probs=np.asarray(aspect_probs)),
        sample_count=10_000,
    )


def make_model(class_models):
    class_models = {cm.class_id: cm for cm in class_models}
    n = len(class_models)
    return LocationModel(
        cameras={"default": class_models, "*": class_models},
        class_prior=np.full(n, 1.0 / n),
        prior_classes=tuple(sorted(class_models)),
    )


def make_scene(depth_values, drivable_bits, frame_scale=1, camera_id="default"):
    depth = DepthGrid(np.asarray(depth_values, dtype=np.float32))
    mask = DrivableMask(np.asarray(drivable_bits, dtype=bool))
    return SceneContext(
        frame_w=depth.width * frame_scale,
        frame_h=depth.height * frame_scale,
        camera_id=camera_id,
        depth=depth,
        drivable=mask,
    )


def open_scene(side=200, max_depth=60.0, frame_scale=20, camera_id="default"):
    """Fully drivable scene whose depth field finely covers [0, max_depth],
    so any plausible sampled depth has a non-empty band without reset."""
    vals = np.linspace(0.0, max_depth, side * side, dtype=np.float32).reshape(side, side)
    return make_scene(vals, np.ones((side, side), bool),
                      frame_scale=frame_scale, camera_id=camera_id)


def draw_objects(cm: ClassModel, n, rng):
    """Draw (d, h, ratio) triples from the generative process of a ClassModel."""
    d = np.exp(cm.depth.mu + cm.depth.sigma * rng.standard_normal(n))
    mu_h = cm.height_mu_curve.a + cm.height_mu_curve.b * d**cm.height_mu_curve.c
    sigma_h = cm.height_sigma_curve.a
    h = np.exp(mu_h + sigma_h * rng.standard_normal(n))
    cdf = np.cumsum(cm.aspect.probs)
    bins = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    bins = np.minimum(bins, len(cm.aspect.probs) - 1)
    lo = cm.aspect.edges[bins]
    hi = cm.aspect.edges[bins + 1]
    ratio = rng.uniform(lo, hi)
    return d, h, ratio


def synthetic_dataset(class_models, n_per_class, rng, camera_id="cam0"):
    """One AnnotatedFrame per object, with a constant depth grid equal to the
    object's true depth so the fit's 3x3-median probe reads it back exactly.
    Returns the frames and the reader of their grids: each frame's
    `depth_path` is its id, which the reader maps to the frame's grid."""
    frames = []
    grids = {}
    fid = 0
    for cm in class_models:
        d, h, ratio = draw_objects(cm, n_per_class, rng)
        for i in range(n_per_class):
            grids[str(fid)] = DepthGrid(np.full((8, 8), d[i], dtype=np.float32))
            frames.append(AnnotatedFrame(
                frame_id=str(fid), camera_id=camera_id, width=64, height=64,
                class_ids=[cm.class_id], boxes=[[32.0, 48.0, ratio[i] * h[i], h[i]]],
                depth_path=str(fid),
            ))
            fid += 1
    return frames, grids.__getitem__


def expected_columns(doc) -> dict:
    """Per listed image id of a COCO-style document, the class ids and the
    `cx, by, w, h` rows its annotations give, in document order: each box
    value is taken as float64, then cx = x + w/2 and by = y + h. Annotations
    of unlisted images are left out."""
    out = {img["id"]: ([], []) for img in doc["images"]}
    for ann in doc["annotations"]:
        if ann["image_id"] in out:
            x, y, w, h = map(float, ann["bbox"])
            out[ann["image_id"]][0].append(ann["category_id"])
            out[ann["image_id"]][1].append([x + w / 2, y + h, w, h])
    return out


def assert_frames_hold_columns(frames, doc):
    """`frames`, as read from `doc`, are sorted by integer id and hold the
    expected columns bit for bit, as read-only int64 and float64 arrays."""
    want = expected_columns(doc)
    assert [f.frame_id for f in frames] == [str(i) for i in sorted(want)]
    for f in frames:
        ids, rows = want[int(f.frame_id)]
        assert f.class_ids.dtype == np.int64 and f.class_ids.tolist() == ids
        assert f.boxes.dtype == np.float64 and f.boxes.shape == (len(ids), 4)
        assert f.boxes.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert not f.class_ids.flags.writeable and not f.boxes.flags.writeable


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
        patch=crop_geometry(scene.anchor_box(x, y, w, h), scene.frame_w, scene.frame_h),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
