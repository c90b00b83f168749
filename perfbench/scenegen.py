"""Seeded synthetic street scenes for the pipeline benchmark.

`generate(spec, seed, out_dir)` writes everything the CLI reads:

- ``annotations.json``: every annotated frame (input of ``fit`` and ``eval``);
- ``augment.json``: the first ``n_aug`` frames (input of ``augment``);
- ``depth/<scene>.pgm``: 16-bit disparity grids, stored value = disparity * 256;
- ``semantic/<scene>.pgm``: 8-bit label grids (road and sidewalk are drivable);
- ``masks/<frame>_<i>.pgm``: one 512x512 instance mask per proposal slot,
  for workloads that composite masks.

Objects are drawn from known per-class parameters: a log-normal disparity, a
power-curve log-height ``a + b * d**c`` with Gaussian noise, and a mixture of
aspect-ratio modes. Each object is anchored on a drivable pixel of the row
whose ground disparity matches its own, and its height is drawn at the
disparity stored at that pixel. The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

DEPTH_SCALE = 256  # the CLI's default depth_scale is 1/256
MASK_SIDE = 512
ROAD, SIDEWALK, SKY, BUILDING = 1, 3, 10, 11  # road and sidewalk are drivable by default


@dataclass(frozen=True)
class ClassSpec:
    class_id: int
    depth_mu: float  # log-disparity mean
    depth_sigma: float
    h_a: float  # log-height mean = h_a + h_b * d**h_c (frame pixels)
    h_b: float
    h_c: float
    h_sigma: float
    aspect_modes: tuple  # ((ratio, spread, weight), ...)
    h_modes: tuple = ((0.0, 1.0),)  # sub-types: ((log-height offset, weight), ...)


@dataclass(frozen=True)
class CameraSpec:
    camera_id: str
    horizon_frac: float  # horizon row as a fraction of the grid height
    d_max: float  # ground disparity at the bottom row


@dataclass(frozen=True)
class RareQuota:
    """One box of `class_id` in every frame f with f % every == offset."""

    class_id: int
    every: int
    offset: int


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    frame_w: int
    frame_h: int
    grid_w: int
    grid_h: int
    cameras: tuple
    scenes_per_camera: int
    n_train: int  # frames in annotations.json
    n_aug: int  # leading frames also written to augment.json
    boxes_per_frame: int
    classes: tuple
    class_weights: tuple  # for the common classes, aligned with `classes`
    rare: tuple = ()
    objects_per_frame: int = 12
    masks: bool = False

    @property
    def n_annotations(self) -> int:
        return self.n_train * self.boxes_per_frame


# Cars mix sedans and vans, pedestrians adults and children: log-heights are
# bimodal, which the fitted single log-normal cannot follow.
CAR = ClassSpec(1, np.log(14.0), 0.5, -0.81, 2.66, 0.2, 0.07, ((1.2, 0.12, 0.55), (2.3, 0.25, 0.45)),
                h_modes=((-0.12, 0.6), (0.25, 0.4)))
PEDESTRIAN = ClassSpec(2, np.log(30.0), 0.45, -0.69, 2.66, 0.2, 0.07, ((0.38, 0.06, 1.0),),
                       h_modes=((0.0, 0.7), (-0.4, 0.3)))
CYCLIST = ClassSpec(3, np.log(36.0), 0.5, -0.75, 2.66, 0.2, 0.10, ((0.65, 0.1, 0.7), (1.5, 0.15, 0.3)))
TRUCK = ClassSpec(4, np.log(10.0), 0.5, -0.10, 2.66, 0.2, 0.12, ((1.6, 0.2, 0.5), (2.6, 0.3, 0.5)))
BUS = ClassSpec(5, np.log(9.0), 0.4, -0.05, 2.66, 0.2, 0.10, ((2.9, 0.3, 1.0),))
TRAILER = ClassSpec(6, np.log(8.0), 0.3, 0.0, 2.66, 0.2, 0.10, ((2.0, 0.2, 1.0),))

WORKLOADS = {
    spec.name: spec
    for spec in (
        # Full-resolution grids: every sampling attempt scans 1.44 M pixels and
        # every frame reads 4.3 MB of PGM, so geometry, sampler and grid reads
        # dominate while fitting and masks do almost nothing. The rear camera
        # sees a short stretch of road and cyclists (one per frame, so pooled
        # fallback) are close: some sampled depths have an empty band and reset.
        WorkloadSpec(
            name="hd-road", frame_w=1600, frame_h=900, grid_w=1600, grid_h=900,
            cameras=(CameraSpec("front", 0.5, 64.0), CameraSpec("rear", 0.47, 24.0)),
            scenes_per_camera=6, n_train=36, n_aug=10, boxes_per_frame=10,
            classes=(CAR, PEDESTRIAN, CYCLIST), class_weights=(0.6, 0.4, 0.0),
            rare=(RareQuota(3, 1, 0),), objects_per_frame=12,
        ),
        # Tens of thousands of annotations on grids 4x coarser than the frame:
        # fit is object_depth per annotation plus the depth-window loop, eval
        # probes every real box again. Class 5 is rare on every camera (pooled
        # fallback) and class 6 is rare overall (excluded).
        WorkloadSpec(
            name="dense-fit", frame_w=1600, frame_h=900, grid_w=400, grid_h=225,
            cameras=(CameraSpec("cam0", 0.5, 64.0), CameraSpec("cam1", 0.48, 60.0),
                     CameraSpec("cam2", 0.52, 68.0), CameraSpec("cam3", 0.5, 56.0)),
            scenes_per_camera=4, n_train=400, n_aug=8, boxes_per_frame=60,
            classes=(CAR, PEDESTRIAN, CYCLIST, TRUCK, BUS, TRAILER),
            class_weights=(0.45, 0.3, 0.15, 0.1, 0.0, 0.0),
            rare=(RareQuota(5, 5, 0), RareQuota(6, 40, 7)),
            objects_per_frame=48,
        ),
        # Tiny grids (placement_band is cheap) under full-size frames with 32
        # proposals, each with its own 512x512 mask: refinement, compositing
        # and mask reads dominate.
        WorkloadSpec(
            name="mask-composite", frame_w=1600, frame_h=900, grid_w=160, grid_h=90,
            cameras=(CameraSpec("front", 0.5, 64.0),),
            scenes_per_camera=8, n_train=40, n_aug=6, boxes_per_frame=10,
            classes=(CAR, PEDESTRIAN, CYCLIST), class_weights=(0.5, 0.3, 0.2),
            objects_per_frame=32, masks=True,
        ),
    )
}


@dataclass
class Scene:
    name: str
    camera: CameraSpec
    depth_raw: np.ndarray  # (grid_h, grid_w) uint16, disparity * 256
    labels: np.ndarray  # (grid_h, grid_w) uint8
    horizon: float  # horizon row in grid pixels

    def __post_init__(self):
        self.drivable = np.isin(self.labels, (ROAD, SIDEWALK))


@dataclass
class Dataset:
    """What the generator wrote, kept in memory for the output checks."""

    spec: WorkloadSpec
    root: str
    scenes: dict  # scene name -> Scene
    frame_scene: dict  # frame id (str) -> scene name
    aug_frame_ids: list


def _rng(spec: WorkloadSpec, seed: int, *extra) -> np.random.Generator:
    key = [int(seed), zlib.crc32(spec.name.encode()), *extra]
    return np.random.default_rng(key)


def _write_pgm(path: str, values: np.ndarray, maxval: int):
    dtype = ">u2" if maxval > 255 else np.uint8
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        f.write(np.ascontiguousarray(values, dtype=dtype).tobytes())


def make_scene(spec: WorkloadSpec, camera: CameraSpec, name: str, rng) -> Scene:
    """Ground (road + sidewalk) below the horizon with disparity rising toward
    the bottom row; sky and buildings above it with low disparity."""
    gw, gh = spec.grid_w, spec.grid_h
    horizon = gh * (camera.horizon_frac + rng.uniform(-0.02, 0.02))
    rows = np.arange(gh, dtype=np.float64)[:, None] + 0.5
    cols = np.arange(gw, dtype=np.float64)[None, :] + 0.5
    t = np.clip((rows - horizon) / (gh - horizon), 0.0, 1.0)
    roll = rng.uniform(-0.08, 0.08)
    ground_d = camera.d_max * t * (1.0 + roll * (cols / gw - 0.5))
    ground_d = ground_d + rng.normal(0.0, 0.05, size=(gh, gw))
    ground = rows >= horizon

    road_half = gw * (0.08 + 0.34 * t)
    road_center = gw * (0.5 + rng.uniform(-0.05, 0.05))
    labels = np.where(np.abs(cols - road_center) <= road_half, ROAD, SIDEWALK)
    labels = np.where(ground, labels, SKY).astype(np.uint8)

    depth = np.where(ground, ground_d, 0.1)
    # buildings: column blocks above the horizon with their own low disparity
    edges = np.sort(rng.integers(0, gw, size=9))
    for i, (x0, x1) in enumerate(zip(edges[:-1], edges[1:])):
        if i % 2:
            continue
        top = int(horizon * rng.uniform(0.1, 0.7))
        block = (slice(top, int(horizon)), slice(int(x0), int(x1)))
        labels[block] = BUILDING
        depth[block] = rng.uniform(0.5, 3.0)
    raw = np.clip(np.round(np.maximum(depth, 0.0) * DEPTH_SCALE), 0, 65535).astype(np.uint16)
    return Scene(name=name, camera=camera, depth_raw=raw, labels=labels, horizon=horizon)


def _draw_box(spec: WorkloadSpec, cls: ClassSpec, scene: Scene, rng):
    """One object on the ground at its own disparity; returns a COCO bbox."""
    gw, gh = spec.grid_w, spec.grid_h
    scale = spec.frame_w / gw
    first = int(np.ceil(scene.horizon)) + 1
    modes = np.array(cls.aspect_modes, dtype=np.float64)
    while True:
        d = float(np.exp(cls.depth_mu + cls.depth_sigma * rng.standard_normal()))
        # row whose ground disparity is d (ignoring roll and noise)
        y = int(scene.horizon + d / scene.camera.d_max * (gh - scene.horizon))
        if not first <= y < gh:
            continue
        x = int(rng.integers(gw))
        d_pix = scene.depth_raw[y, x] / DEPTH_SCALE
        if d_pix <= 0:
            continue
        offsets = np.array(cls.h_modes, dtype=np.float64)
        offset = offsets[rng.choice(len(offsets), p=offsets[:, 1] / offsets[:, 1].sum()), 0]
        h = float(np.exp(cls.h_a + offset + cls.h_b * d_pix**cls.h_c + cls.h_sigma * rng.standard_normal()))
        mode = modes[rng.choice(len(modes), p=modes[:, 2] / modes[:, 2].sum())]
        ratio = max(0.1, mode[0] + mode[1] * rng.standard_normal())
        w = ratio * h
        cx, by = (x + 0.5) * scale, (y + 1.0) * scale
        x0, x1 = max(cx - w / 2.0, 0.0), min(cx + w / 2.0, float(spec.frame_w))
        y0 = max(by - h, 0.0)
        x0, y0 = round(x0, 2), round(y0, 2)
        bw, bh = round(x1 - x0, 2), round(by - y0, 2)
        if bw >= 1.0 and bh >= 1.0:
            return [x0, y0, bw, bh]


def _frame_classes(spec: WorkloadSpec, frame_index: int, rng) -> list:
    out = [q.class_id for q in spec.rare if frame_index % q.every == q.offset]
    weights = np.array(spec.class_weights, dtype=np.float64)
    picks = rng.choice(len(spec.classes), size=spec.boxes_per_frame - len(out),
                       p=weights / weights.sum())
    return out + [spec.classes[i].class_id for i in picks]


def make_mask(rng) -> np.ndarray:
    """An elliptical object roughly filling the central half of the patch."""
    yy, xx = np.ogrid[:MASK_SIDE, :MASK_SIDE]
    cx, cy = MASK_SIDE / 2 + rng.normal(0, 8, size=2)
    rx, ry = rng.uniform(0.08, 0.25) * MASK_SIDE, rng.uniform(0.2, 0.25) * MASK_SIDE
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def generate(spec: WorkloadSpec, seed: int, out_dir: str) -> Dataset:
    for sub in ("depth", "semantic") + (("masks",) if spec.masks else ()):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    rng = _rng(spec, seed)

    scenes = {}
    for cam in spec.cameras:
        for k in range(spec.scenes_per_camera):
            name = f"{cam.camera_id}_{k}"
            scene = make_scene(spec, cam, name, rng)
            scenes[name] = scene
            _write_pgm(os.path.join(out_dir, "depth", name + ".pgm"), scene.depth_raw, 65535)
            _write_pgm(os.path.join(out_dir, "semantic", name + ".pgm"), scene.labels, 255)

    by_id = {c.class_id: c for c in spec.classes}
    images, annotations, frame_scene = [], [], {}
    n_cam = len(spec.cameras)
    for f in range(spec.n_train):
        cam = spec.cameras[f % n_cam]
        scene = scenes[f"{cam.camera_id}_{(f // n_cam) % spec.scenes_per_camera}"]
        frame_scene[str(f)] = scene.name
        images.append({"id": f, "camera": cam.camera_id, "width": spec.frame_w,
                       "height": spec.frame_h, "depth_path": scene.name + ".pgm",
                       "semantic_path": scene.name + ".pgm"})
        for cid in _frame_classes(spec, f, rng):
            annotations.append({"id": len(annotations) + 1, "image_id": f, "category_id": cid,
                                "bbox": _draw_box(spec, by_id[cid], scene, rng)})
    categories = [{"id": c.class_id} for c in spec.classes]

    def dump(name, imgs):
        ids = {img["id"] for img in imgs}
        doc = {"images": imgs, "categories": categories,
               "annotations": [a for a in annotations if a["image_id"] in ids]}
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))

    dump("annotations.json", images)
    dump("augment.json", images[: spec.n_aug])

    if spec.masks:
        for f in range(spec.n_aug):
            for i in range(spec.objects_per_frame):
                bits = make_mask(_rng(spec, seed, f, i))
                _write_pgm(os.path.join(out_dir, "masks", f"{f}_{i}.pgm"),
                           np.where(bits, 255, 0).astype(np.uint8), 255)

    return Dataset(spec=spec, root=out_dir, scenes=scenes, frame_scene=frame_scene,
                   aug_frame_ids=[str(f) for f in range(spec.n_aug)])
