"""Cross-commit golden check: `augment` layout bytes on a small fixed scene.

The digests below are a recorded reference for the row-major band pick. Any
change to which band pixel a draw picks, to the empty-band depth reset, or to
the drivable mask shows up here as a changed digest. Determinism tests
elsewhere compare a build only with itself, which cannot catch such a change.

The scene covers the paths that pick a pixel differently if indexing goes
wrong: a 40x20 grid under an 80x40 frame next to a full-resolution one, two
drivable classes, sampled depths above every drivable disparity (band empty,
depth reset), and drivable columns at both frame edges (boxes clipped).

A second set of digests covers `augment --masks-dir` on the same scene, so
refinement, compositing and the visibility filter are pinned the same way.
"""

import hashlib
import json

import numpy as np

from scene_placer import dataset_io
from scene_placer.cli import _Grids, main
from scene_placer.config import RunConfig
from scene_placer.geometry import DepthGrid, LabelGrid, crop_geometry
from scene_placer.sampler import augment_frame

from conftest import make_class_model, make_model

DEPTH_SCALE = 1.0 / 256.0
SEED = 11

# (frame id, frame width, frame height, grid width, grid height)
FRAMES = [(0, 80, 40, 40, 20), (1, 48, 24, 48, 24)]

GOLDEN_SHA256 = {
    "0.json": "228e9069468dc6f66b6e0eac657595b499682ed42c24bc37bd2e65afc6986dce",
    "1.json": "5e66419eab305751468128c3e1d2938b6e3636ed775326a1a0f1036529f0b10e",
}


# `augment --masks-dir` on the same scene: masks of several resolutions,
# all-zero and missing masks, patches against the frame edges and proposals
# dropped as occluded
GOLDEN_MASKED_SHA256 = {
    "0.json": "67f4a0893a4f8218621fbe56f5792a23727c41a5961301eead408395f03ad549",
    "1.json": "c140ce1e3d53e0028951ce71b80990baa5f797971de68d72e384b7b6439287f1",
}

# bitmap side per proposal index (mod 4): larger and smaller than the patches
MASK_RES = (64, 7, 33, 128)


def _grids(gw, gh):
    """Road rows in the lower half with disparity rising toward the bottom
    (at most 12), sidewalk (class 3) stripes, and an undrivable top half."""
    y, x = np.mgrid[0:gh, 0:gw]
    depth = np.where(y >= gh // 2,
                     12.0 * (y - gh // 2 + 1) / (gh - gh // 2) - 0.05 * (x % 7),
                     0.5 + 0.01 * x)
    labels = np.where(y < gh // 2, 7, np.where(x % 5 == 0, 3, 1))
    return DepthGrid(depth.astype(np.float32)), LabelGrid(labels.astype(np.uint8))


def _write_dataset(tmp_path):
    (tmp_path / "depth").mkdir()
    (tmp_path / "semantic").mkdir()
    images = []
    for fid, fw, fh, gw, gh in FRAMES:
        depth, labels = _grids(gw, gh)
        dataset_io.write_depth_grid(depth, tmp_path / "depth" / f"{fid}.pgm", DEPTH_SCALE)
        dataset_io.write_label_grid(labels, tmp_path / "semantic" / f"{fid}.pgm")
        images.append({"id": fid, "width": fw, "height": fh, "camera": "default",
                       "depth_path": f"{fid}.pgm", "semantic_path": f"{fid}.pgm"})
    ann = tmp_path / "annotations.json"
    ann.write_text(json.dumps({"images": images, "annotations": [],
                               "categories": [{"id": 1}, {"id": 2}]}))
    # depth medians of 10 and 14 put a large share of draws above the
    # drivable maximum of 12 + tau, so their bands are empty
    model = make_model([
        make_class_model(class_id=1, depth_mu=np.log(10.0), depth_sigma=0.6,
                         h_a=1.0, h_b=0.2),
        make_class_model(class_id=2, depth_mu=np.log(14.0), depth_sigma=0.5,
                         h_a=0.5, h_b=0.3),
    ])
    dataset_io.save_model(model, tmp_path / "model.json")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drivable_classes": [1, 3], "n_objects": 16}))
    return ann, cfg


def test_augment_layout_bytes_match_recorded_digests(tmp_path):
    ann, cfg = _write_dataset(tmp_path)
    out = tmp_path / "layouts"
    assert main([str(a) for a in (
        "augment", ann, "--model", tmp_path / "model.json",
        "--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
        "--out-layouts", out, "--config", cfg, "--seed", SEED)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == GOLDEN_SHA256


def test_golden_scene_exercises_reset_and_edge_clipping(tmp_path):
    """The fixed scene must keep covering the empty-band reset and clipped
    anchors, or the digests above stop guarding those paths."""
    ann, cfg_path = _write_dataset(tmp_path)
    cfg = RunConfig.from_file(cfg_path).replace(seed=SEED)
    model = dataset_io.load_model(tmp_path / "model.json")
    resets = clipped = coarse = 0
    for frame in dataset_io.read_annotations(ann):
        scene = _Grids(cfg, tmp_path / "depth", tmp_path / "semantic").scene(frame)
        coarse += scene.grid_scale > 1
        aug = augment_frame(scene, model, frame.frame_id, cfg)
        for p in aug.proposals:
            resets += p.d_effective != p.d
            clipped += p.box.x0 == 0.0 or p.box.x1 == float(scene.frame_w)
    assert coarse == 1
    assert resets > 0
    assert clipped > 0


def _mask_bits(i):
    """Deterministic mask for proposal index i: index 5 (mod 8) is all zero,
    index 7 (mod 8) gets no file, odd indices are near-full, even ones an
    ellipse offset toward a corner."""
    res = MASK_RES[i % 4]
    y, x = np.mgrid[0:res, 0:res] + 0.5
    if i % 8 == 5:
        return np.zeros((res, res), bool)
    if i % 2:
        return (x > res * 0.05) & (y > res * 0.1)
    cx, cy = res * (0.35 + 0.05 * (i % 3)), res * (0.6 - 0.04 * (i % 5))
    return ((x - cx) / (res * 0.3)) ** 2 + ((y - cy) / (res * 0.35)) ** 2 <= 1.0


def _write_masks(tmp_path, n_objects):
    masks = tmp_path / "masks"
    masks.mkdir()
    for fid, *_ in FRAMES:
        for i in range(n_objects):
            if i % 8 != 7:
                dataset_io.write_mask_pgm(_mask_bits(i), masks / f"{fid}_{i}.pgm")
    return masks


def _augment_masked(tmp_path, monkeypatch):
    """Run from the dataset root with a relative --masks-dir: layouts store
    the mask paths, which must not depend on the temporary directory."""
    ann, cfg = _write_dataset(tmp_path)
    _write_masks(tmp_path, RunConfig.from_file(cfg).n_objects)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "layouts"
    assert main([str(a) for a in (
        "augment", ann, "--model", tmp_path / "model.json",
        "--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
        "--masks-dir", "masks", "--out-layouts", out, "--config", cfg,
        "--seed", SEED)]) == 0
    return ann, cfg, out


def test_masked_augment_layout_bytes_match_recorded_digests(tmp_path, monkeypatch):
    _, _, out = _augment_masked(tmp_path, monkeypatch)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == GOLDEN_MASKED_SHA256


def test_golden_masked_scene_exercises_edges_and_occlusion(tmp_path, monkeypatch):
    """Masked proposals must keep touching the frame edges, some must be
    dropped as occluded and some passed through, or the digests above stop
    guarding those paths."""
    ann, cfg_path, out = _augment_masked(tmp_path, monkeypatch)
    cfg = RunConfig.from_file(cfg_path).replace(seed=SEED)
    model = dataset_io.load_model(tmp_path / "model.json")
    edge = occluded = unmasked = 0
    for frame in dataset_io.read_annotations(ann):
        scene = _Grids(cfg, tmp_path / "depth", tmp_path / "semantic").scene(frame)
        aug = augment_frame(scene, model, frame.frame_id, cfg)
        for i, p in enumerate(aug.proposals):
            patch = crop_geometry(p.box, frame.width, frame.height)
            masked = i % 8 not in (5, 7)
            edge += masked and (patch.x0 == 0 or patch.y0 == 0
                                or patch.x0 + patch.side == frame.width
                                or patch.y0 + patch.side == frame.height)
        doc = dataset_io.load_layout(out / f"{frame.frame_id}.json")
        occluded += doc["dropped"] - aug.dropped
        unmasked += sum(rec["mask"] is None for rec in doc["proposals"])
    assert edge > 0
    assert occluded > 0
    assert unmasked > 0
