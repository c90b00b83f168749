"""Cross-commit golden checks: `augment` layout bytes on a small fixed scene,
and `fit` model and `eval` report bytes on a small fixed dataset.

The digests below are a recorded reference for the row-major band pick. Any
change to which band pixel a draw picks, to the empty-band depth reset, or to
the drivable mask shows up here as a changed digest. Determinism tests
elsewhere compare a build only with itself, which cannot catch such a change.

The scene covers the paths that pick a pixel differently if indexing goes
wrong: a 40x20 grid under an 80x40 frame next to a full-resolution one, two
drivable classes, sampled depths above every drivable disparity (band empty,
depth reset), and drivable columns at both frame edges (boxes clipped).

A second set of digests covers `augment --masks-dir` followed by `refine` on
the same scene, so refinement, compositing and the visibility filter are
pinned the same way. `augment --masks-dir` only names each proposal's mask;
`refine` is the one command that reads masks, so the pipeline refines once.

A third pair of digests covers `fit` and `eval` (the depth probe at every
box's bottom-center mapped to grid pixels, the depth log-normal, the power
curves, the pooled fallback and the report), on its own dataset described
at the digests.

The bytes include the layout format (schema 3: the frame, anchors, sampled
depths, attempts, inpainting patches, mask paths relative to the layout), so
a format change moves both sets of layout digests too.
"""

import argparse
import hashlib
import json
import os

import numpy as np

from scene_placer import dataset_io, sampler
from scene_placer.cli import _readers, _scene, main
from scene_placer.config import RunConfig
from scene_placer.evaluate import layout_report
from scene_placer.geometry import BandIndex, DepthGrid, LabelGrid
from scene_placer.sampler import augment_frame

from conftest import (
    make_class_model,
    make_model,
    write_depth_grid,
    write_label_grid,
    write_mask_pgm,
)

DEPTH_SCALE = 1.0 / 256.0
SEED = 11

# (frame id, frame width, frame height, grid width, grid height)
FRAMES = [(0, 80, 40, 40, 20), (1, 48, 24, 48, 24)]

GOLDEN_SHA256 = {
    "0.json": "ebcf0037189994152d6e67a6ccbdef88910bd6ba4bf39eb4a1b3ea572a281bb5",
    "1.json": "9ff2b9c640c8e9101c63456db242aa0c0dea2d6f152a795740f45009e920039a",
}


# `augment --masks-dir` then `refine` on the same scene: masks of several
# resolutions, all-zero and missing masks, patches against the frame edges and
# proposals dropped as occluded
GOLDEN_MASKED_SHA256 = {
    "0.json": "4a51972340ff3402bfef681ac47499b4fe7303cafa4394630bb7ec1f37b29d6d",
    "1.json": "f6861f38ba62384fb2b3391c75c897489693b89da0723db7c21dc9e17073df3a",
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
        write_depth_grid(depth, tmp_path / "depth" / f"{fid}.pgm", DEPTH_SCALE)
        write_label_grid(labels, tmp_path / "semantic" / f"{fid}.pgm")
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
    cfg = dataset_io.load_config(cfg_path).replace(seed=SEED)
    model = dataset_io.load_model(tmp_path / "model.json")
    resets = clipped = coarse = 0
    dirs = argparse.Namespace(depth_dir=tmp_path / "depth", semantic_dir=tmp_path / "semantic")
    for frame in dataset_io.read_annotations(ann):
        scene = _scene(frame, dirs, *_readers(dirs, cfg))
        coarse += scene.frame_w > scene.depth.width
        aug = augment_frame(scene, model, frame.frame_id, cfg)
        for p in aug.proposals:
            resets += p.d_effective != p.d
            clipped += p.box.x0 == 0.0 or p.box.x1 == float(scene.frame_w)
    assert coarse == 1
    assert resets > 0
    assert clipped > 0


def test_band_index_is_built_once_per_augmented_frame_and_never_by_eval(tmp_path, monkeypatch):
    """Each scene builds its band index on its first band query and reuses
    it for every later draw; eval draws no band, so it builds none."""
    ann, cfg = _write_dataset(tmp_path)
    built = []

    def counting_index(depth, mask):
        built.append(depth.values.shape)
        return BandIndex(depth, mask)

    monkeypatch.setattr(sampler, "BandIndex", counting_index)
    dirs = ("--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
            "--config", cfg)
    out = tmp_path / "layouts"
    assert main([str(a) for a in ("augment", ann, "--model", tmp_path / "model.json",
                                  "--out-layouts", out, "--seed", SEED, *dirs)]) == 0
    assert sorted(built) == sorted((gh, gw) for *_, gw, gh in FRAMES)

    built.clear()
    assert main([str(a) for a in ("eval", ann, "--model", tmp_path / "model.json",
                                  "--layouts", out, "--out-report", tmp_path / "r.json",
                                  *dirs)]) == 0
    assert built == []

    run_cfg = dataset_io.load_config(cfg)
    frames = dataset_io.read_annotations(ann)
    grid_dirs = argparse.Namespace(depth_dir=tmp_path / "depth", semantic_dir=tmp_path / "semantic")
    depth, drivable = _readers(grid_dirs, run_cfg)
    scenes = {fr.frame_id: _scene(fr, grid_dirs, depth, drivable) for fr in frames}
    augs = [dataset_io.load_layout(out / f"{fr.frame_id}.json") for fr in frames]
    report = layout_report(frames, depth, augs, scenes,
                           dataset_io.load_model(tmp_path / "model.json"), run_cfg.tau)
    assert report.band_validity == 1.0
    assert not any("band_index" in vars(scene) for scene in scenes.values())
    assert built == []


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
                write_mask_pgm(_mask_bits(i), masks / f"{fid}_{i}.pgm")
    return masks


def _run_masked_augment(tmp_path, ann, cfg, masks_dir, out):
    assert main([str(a) for a in (
        "augment", ann, "--model", tmp_path / "model.json",
        "--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
        "--masks-dir", masks_dir, "--out-layouts", out, "--config", cfg,
        "--seed", SEED)]) == 0


def _refine(layouts, cfg, out):
    out.mkdir()
    for fid, *_ in FRAMES:
        assert main([str(a) for a in (
            "refine", layouts / f"{fid}.json", "--out", out / f"{fid}.json",
            "--config", cfg)]) == 0


def _augment_masked(tmp_path):
    """`augment --masks-dir` into layouts/, then `refine` into refined/."""
    ann, cfg = _write_dataset(tmp_path)
    masks = _write_masks(tmp_path, dataset_io.load_config(cfg).n_objects)
    out = tmp_path / "layouts"
    _run_masked_augment(tmp_path, ann, cfg, masks, out)
    _refine(out, cfg, tmp_path / "refined")
    return ann, cfg, out


def test_masked_augment_layout_bytes_match_recorded_digests(tmp_path):
    _augment_masked(tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "refined").iterdir())}
    assert digests == GOLDEN_MASKED_SHA256


def test_refining_the_refined_golden_masked_scene_changes_no_byte(tmp_path):
    """Every mask is mapped into the patch its proposal stored at augment
    time, not one around the refined box, so refine is idempotent."""
    _, cfg, _ = _augment_masked(tmp_path)
    _refine(tmp_path / "refined", cfg, tmp_path / "again")
    for fid, *_ in FRAMES:
        assert ((tmp_path / "again" / f"{fid}.json").read_bytes()
                == (tmp_path / "refined" / f"{fid}.json").read_bytes())


def test_masks_dir_then_refine_equals_refining_hand_set_masks_once(tmp_path, monkeypatch):
    """`augment --masks-dir` reads no mask and keeps the sampled boxes, so
    refining its layouts gives the bytes of refining plain layouts whose
    mask paths were set by hand: the pipeline refines each box once."""
    ann, cfg = _write_dataset(tmp_path)
    masks = _write_masks(tmp_path, dataset_io.load_config(cfg).n_objects)
    reads = []
    real_read = dataset_io.read_mask_pgm
    monkeypatch.setattr(dataset_io, "read_mask_pgm",
                        lambda path: reads.append(path) or real_read(path))
    _run_masked_augment(tmp_path, ann, cfg, masks, tmp_path / "named")
    assert reads == []
    plain = tmp_path / "plain"
    assert main([str(a) for a in (
        "augment", ann, "--model", tmp_path / "model.json",
        "--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
        "--out-layouts", plain, "--config", cfg, "--seed", SEED)]) == 0
    (tmp_path / "by_hand").mkdir()
    for fid, *_ in FRAMES:
        named = dataset_io.load_layout(tmp_path / "named" / f"{fid}.json")
        sampled = dataset_io.load_layout(plain / f"{fid}.json")
        assert [p.box for p in named.proposals] == [p.box for p in sampled.proposals]
        doc = json.loads((plain / f"{fid}.json").read_text())
        for rec in doc["proposals"]:
            rec["mask"] = str(masks / f"{fid}_{rec['index']}.pgm")
        (tmp_path / "by_hand" / f"{fid}.json").write_text(json.dumps(doc))
    _refine(tmp_path / "named", cfg, tmp_path / "refined_named")
    assert reads
    _refine(tmp_path / "by_hand", cfg, tmp_path / "refined_by_hand")
    for fid, *_ in FRAMES:
        assert ((tmp_path / "refined_named" / f"{fid}.json").read_bytes()
                == (tmp_path / "refined_by_hand" / f"{fid}.json").read_bytes())


def test_masked_layout_bytes_do_not_depend_on_masks_dir_spelling(tmp_path, monkeypatch):
    """Layouts store mask paths relative to themselves: a relative
    --masks-dir from the dataset root and an absolute one from another
    directory write the same bytes."""
    ann, cfg, out = _augment_masked(tmp_path)
    monkeypatch.chdir(tmp_path)
    _run_masked_augment(tmp_path, ann, cfg, "masks", "relative")
    for name in ("0.json", "1.json"):
        assert (tmp_path / "relative" / name).read_bytes() == (out / name).read_bytes()


def test_masks_dir_picks_each_mask_by_proposal_index(tmp_path):
    """Proposals dropped at max_attempts leave gaps in the indices; a kept
    proposal still gets the mask file of its own index, not of its position."""
    ann, _ = _write_dataset(tmp_path)
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"drivable_classes": [1, 3], "n_objects": 16,
                               "max_attempts": 1, "min_visible_frac": 1.0}))
    masks = tmp_path / "masks"
    masks.mkdir()
    for fid, *_ in FRAMES:
        for i in range(16):
            write_mask_pgm(np.ones((8, 8), bool), masks / f"{fid}_{i}.pgm")
    _run_masked_augment(tmp_path, ann, cfg, masks, tmp_path / "layouts")
    run_cfg = dataset_io.load_config(cfg).replace(seed=SEED)
    model = dataset_io.load_model(tmp_path / "model.json")
    sampling_drops = 0
    dirs = argparse.Namespace(depth_dir=tmp_path / "depth", semantic_dir=tmp_path / "semantic")
    for frame in dataset_io.read_annotations(ann):
        scene = _scene(frame, dirs, *_readers(dirs, run_cfg))
        sampling_drops += augment_frame(scene, model, frame.frame_id, run_cfg).dropped
        aug = dataset_io.load_layout(tmp_path / "layouts" / f"{frame.frame_id}.json")
        for p in aug.proposals:
            assert p.mask_path == str(masks / f"{frame.frame_id}_{p.provenance.index}.pgm")
    assert sampling_drops > 0


def test_eval_judges_stored_anchors_of_clipped_refined_proposals(tmp_path):
    """Refined and clipped boxes no longer stand on their anchors. Every
    anchor was drawn from its band, so band_validity must read 1.0."""
    ann, cfg, _ = _augment_masked(tmp_path)
    assert main([str(a) for a in (
        "eval", ann, "--model", tmp_path / "model.json", "--layouts", tmp_path / "refined",
        "--depth-dir", tmp_path / "depth", "--semantic-dir", tmp_path / "semantic",
        "--config", cfg, "--out-report", tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_proposals"] > 0
    assert report["band_validity"] == 1.0


def test_golden_masked_scene_exercises_edges_and_occlusion(tmp_path):
    """Masked proposals must keep touching the frame edges, some must be
    dropped as occluded and some passed through for a missing and for an
    all-zero mask file, or the digests above stop guarding those paths."""
    ann, _, out = _augment_masked(tmp_path)
    edge = occluded = missing = empty = 0
    for frame in dataset_io.read_annotations(ann):
        named = dataset_io.load_layout(out / f"{frame.frame_id}.json")
        for p in named.proposals:
            patch = p.patch
            masked = p.provenance.index % 8 not in (5, 7)
            edge += masked and (patch.x0 == 0 or patch.y0 == 0
                                or patch.x0 + patch.side == frame.width
                                or patch.y0 + patch.side == frame.height)
        refined = dataset_io.load_layout(tmp_path / "refined" / f"{frame.frame_id}.json")
        occluded += refined.dropped - named.dropped
        by_index = {p.provenance.index: p for p in named.proposals}
        for p in refined.proposals:
            passed = p == by_index[p.provenance.index]
            missing += passed and not os.path.exists(p.mask_path)
            empty += passed and os.path.exists(p.mask_path) and not (
                dataset_io.read_mask_pgm(p.mask_path).any())
    assert edge > 0
    assert occluded > 0
    assert missing > 0
    assert empty > 0


# `fit` and `eval` on a second fixed dataset: two cameras, a 40x20 grid under
# an 80x40 frame, a full-resolution grid, and 1x1, 1x5 and 6x1 grids under
# larger frames, with bottom-centers (mapped to grid pixels) inside every
# grid and off each edge and corner, so the depth probe's clipped window
# holds 1, 2, 3, 4, 6 or 9 cells. Every grid cell is > 0, so no probe reads
# disparity 0. Class 2 is scarce on camera "right", which has no fit of its
# own for it and uses the pooled fit.
GOLDEN_FIT_SHA256 = "a7ac56d4095da2e679205ccbd3d4647b64cbeef3b36c1a53828ba9ba352af749"
GOLDEN_EVAL_SHA256 = "b365bb552d2acacdfb970f5adadef7540cc90aa1933dd21001626e6ef746f640"

# (frame id, camera, frame width, frame height, grid width, grid height)
FIT_FRAMES = [(0, "left", 80, 40, 40, 20), (1, "right", 48, 24, 48, 24),
              (2, "left", 8, 8, 1, 1), (3, "right", 4, 20, 1, 5),
              (4, "left", 24, 4, 6, 1)]
FIT_MIN_SAMPLES = 12


def _fit_boxes(rng, fw, fh, n_random):
    """Bottom-centers on the 3x3 lattice {before, inside, after} x the same
    for rows, then `n_random` more spread past every edge; as (cx, by)."""
    lattice = [(cx, by) for cx in (-2.5, fw / 2, fw + 2.5) for by in (-2.5, fh / 2, fh + 2.5)]
    spread = zip(rng.uniform(-0.3 * fw, 1.3 * fw, n_random),
                 rng.uniform(-0.3 * fh, 1.3 * fh, n_random))
    return lattice + [(round(float(cx), 2), round(float(by), 2)) for cx, by in spread]


def _write_fit_dataset(tmp_path):
    rng = np.random.default_rng(SEED)
    (tmp_path / "depth").mkdir()
    (tmp_path / "semantic").mkdir()
    images, annotations = [], []
    for fid, camera, fw, fh, gw, gh in FIT_FRAMES:
        # disparities k/256 with k in [64, 4096): quantised like a PGM read, all > 0
        depth = rng.integers(64, 4096, (gh, gw)).astype(np.float32) * np.float32(DEPTH_SCALE)
        labels = np.where(rng.random((gh, gw)) < 0.7, 1, 7).astype(np.uint8)
        labels.flat[0] = 1  # the 1x1 grid stays drivable
        write_depth_grid(DepthGrid(depth), tmp_path / "depth" / f"{fid}.pgm",
                                    DEPTH_SCALE)
        write_label_grid(LabelGrid(labels), tmp_path / "semantic" / f"{fid}.pgm")
        images.append({"id": fid, "width": fw, "height": fh, "camera": camera,
                       "depth_path": f"{fid}.pgm", "semantic_path": f"{fid}.pgm"})
        for i, (cx, by) in enumerate(_fit_boxes(rng, fw, fh, 40 if gw > 1 < gh else 6)):
            scarce = camera == "right" and i % 7 != 3
            w, h = (round(float(v), 2) for v in rng.uniform(1.0, 9.0, 2))
            annotations.append({"id": len(annotations) + 1, "image_id": fid,
                                "category_id": 1 if i % 2 == 0 or scarce else 2,
                                "bbox": [cx - w / 2, by - h, w, h]})
    ann = tmp_path / "annotations.json"
    ann.write_text(json.dumps({"images": images, "annotations": annotations,
                               "categories": [{"id": 1}, {"id": 2}]}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drivable_classes": [1], "n_objects": 6,
                               "min_samples": FIT_MIN_SAMPLES}))
    return ann, cfg


def _fit_and_eval(tmp_path):
    ann, cfg = _write_fit_dataset(tmp_path)
    grids = ["--depth-dir", tmp_path / "depth"]
    assert main([str(a) for a in (
        "fit", ann, *grids, "--out-model", tmp_path / "model.json", "--config", cfg)]) == 0
    grids += ["--semantic-dir", tmp_path / "semantic"]
    assert main([str(a) for a in (
        "augment", ann, "--model", tmp_path / "model.json", *grids,
        "--out-layouts", tmp_path / "layouts", "--config", cfg, "--seed", SEED)]) == 0
    assert main([str(a) for a in (
        "eval", ann, "--model", tmp_path / "model.json", "--layouts", tmp_path / "layouts",
        *grids, "--config", cfg, "--out-report", tmp_path / "report.json")]) == 0
    return ann


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fit_and_eval_bytes_match_recorded_digests(tmp_path):
    _fit_and_eval(tmp_path)
    assert _sha256(tmp_path / "model.json") == GOLDEN_FIT_SHA256
    assert _sha256(tmp_path / "report.json") == GOLDEN_EVAL_SHA256


def test_golden_fit_dataset_exercises_windows_cameras_and_fallback(tmp_path):
    """The fixed dataset must keep probing every clipped window size on
    positive disparities and keep a pooled fallback on two cameras, or the
    digests above stop guarding those paths."""
    ann = _fit_and_eval(tmp_path)
    sizes = set()
    for frame in dataset_io.read_annotations(ann):
        grid = dataset_io.read_depth_grid(tmp_path / "depth" / frame.depth_path, DEPTH_SCALE)
        for cx, by in (frame.boxes[:, :2] / (frame.width / grid.width)).tolist():
            ix = min(max(int(np.floor(cx)), 0), grid.width - 1)
            iy = min(max(int(np.floor(by - 1e-9)), 0), grid.height - 1)
            window = grid.values[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2]
            sizes.add(window.size)
            assert window.min() > 0
    assert sizes == {1, 2, 3, 4, 6, 9}
    model = dataset_io.load_model(tmp_path / "model.json")
    assert set(model.cameras) == {"left", "right", "*"}
    assert 2 not in model.cameras["right"]
    assert model.class_model("right", 2) is model.cameras["*"][2]
    assert 2 in model.cameras["left"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_proposals"] > 0
    assert all(c["ks_depth"] is not None for c in report["per_class"])
