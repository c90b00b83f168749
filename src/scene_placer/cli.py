"""Command-line entry points: fit, augment, refine, eval, render.

Exit codes: 0 ok, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import dataset_io
from .config import RunConfig
from .errors import ScenePlacerError
from .evaluate import layout_report, save_report
from .fitting import fit_model
from .geometry import BBox, DepthGrid, drivable_mask
from .masks import refine_layout
from .sampler import FrameAugmentation, PlacementProposal, Provenance, SceneContext, augment_frame


def _resolve(base_dir, path):
    """`path` under `base_dir`; os.path.join keeps an absolute path as it is."""
    return path if path is None or base_dir is None else os.path.join(base_dir, path)


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) with the command's flags laid over it."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = vars(args)
    classes = flags.get("drivable_classes")
    return cfg.replace(seed=flags.get("seed"), tau=flags.get("tau"),
                       n_objects=flags.get("objects_per_frame"),
                       drivable_classes=[int(c) for c in classes.split(",")] if classes else None)


class _Grids:
    """Frames' depth grids and drivable masks, each PGM file read once per
    reader however many frames share it (keyed by resolved path)."""

    def __init__(self, cfg, depth_dir=None, semantic_dir=None):
        self.cfg, self.depth_dir, self.semantic_dir = cfg, depth_dir, semantic_dir
        self._depth, self._drivable = {}, {}

    def depth(self, frame) -> DepthGrid:
        path = _resolve(self.depth_dir, frame.depth_path)
        if path is None:
            raise ScenePlacerError(f"frame {frame.frame_id} has no depth path")
        if path not in self._depth:
            self._depth[path] = dataset_io.read_depth_grid(path, self.cfg.depth_scale)
        return self._depth[path]

    def scene(self, frame) -> SceneContext:
        depth = self.depth(frame)
        path = _resolve(self.semantic_dir, frame.semantic_path)
        if path not in self._drivable:
            self._drivable[path] = drivable_mask(dataset_io.read_label_grid(path),
                                                 self.cfg.drivable_classes)
        return SceneContext(frame_w=frame.width, frame_h=frame.height, camera_id=frame.camera_id,
                            depth=depth, drivable=self._drivable[path])


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model, warnings = fit_model(frames, _Grids(cfg, args.depth_dir).depth, cfg)
    dataset_io.save_model(model, args.out_model)
    for cam in sorted(model.cameras, key=str):
        for cid, cm in sorted(model.cameras[cam].items()):
            flag = " (fallback)" if cm.fallback else ""
            print(f"camera {cam} class {cid}: {cm.sample_count} samples{flag}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _augment_one(frame, model, cfg, args):
    # a reader per frame, so the frame's grids are freed when it is done
    scene = _Grids(cfg, args.depth_dir, args.semantic_dir).scene(frame)
    aug = augment_frame(scene, model, frame.frame_id, cfg)
    if args.masks_dir:
        paths = [os.path.join(args.masks_dir, f"{aug.frame_id}_{i}.pgm")
                 for i in range(len(aug.proposals))]
        aug = refine_layout(aug, paths, frame.width, frame.height,
                            cfg.min_visible_composite)
    dataset_io.save_layout(aug, os.path.join(args.out_layouts, f"{frame.frame_id}.json"))
    return aug


def cmd_augment(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    os.makedirs(args.out_layouts, exist_ok=True)
    usable = [f for f in frames if f.has_grids]
    skipped = len(frames) - len(usable)
    dropped = 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for aug in pool.map(lambda fr: _augment_one(fr, model, cfg, args), usable):
            dropped += aug.dropped
    print(f"augmented {len(usable)} frames ({skipped} skipped, {dropped} proposals dropped)")
    return 0


def _proposal_from_json(rec, scale) -> PlacementProposal:
    cx, by, w, h = rec["box"]
    ax = min(max(int(cx / scale), 0), 10**9)
    ay = max(int(round(by / scale)) - 1, 0)
    return PlacementProposal(
        class_id=int(rec["class"]),
        d=float(rec["d"]),
        d_effective=float(rec["d"]),
        box=BBox(cx=cx, by=by, w=w, h=h),
        show_prob=float(rec["show_prob"]),
        provenance=Provenance(index=0, attempts=1, anchor_px=(ax, ay)),
        mask_path=rec["mask"],
    )


def _read_layout(path, scenes=None) -> FrameAugmentation:
    """A layout file; each anchor is rebuilt on the grid of the frame's scene
    in `scenes`, or in frame pixels when the frame has none."""
    doc = dataset_io.load_layout(path)
    scene = (scenes or {}).get(doc["frame_id"])
    scale = scene.grid_scale if scene is not None else 1.0
    return FrameAugmentation(
        frame_id=doc["frame_id"],
        proposals=[_proposal_from_json(rec, scale) for rec in doc["proposals"]],
        dropped=doc["dropped"],
    )


def cmd_refine(args) -> int:
    cfg = _load_config(args)
    aug = _read_layout(args.layout)
    aug = refine_layout(aug, [p.mask_path for p in aug.proposals],
                        args.width, args.height, cfg.min_visible_composite)
    dataset_io.save_layout(aug, args.out)
    print(f"refined layout: {len(aug.proposals)} proposals kept, {aug.dropped} dropped")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    grids = _Grids(cfg, args.depth_dir, args.semantic_dir)
    scenes = {fr.frame_id: grids.scene(fr) for fr in frames if fr.has_grids}
    augs = [_read_layout(os.path.join(args.layouts, name), scenes)
            for name in sorted(os.listdir(args.layouts)) if name.endswith(".json")]
    report = layout_report(frames, augs, scenes, model, cfg.tau)
    save_report(report, json_path=args.out_report,
                text_path=args.out_text)
    print(report.to_text(), end="")
    return 0


def cmd_render(args) -> int:
    aug = _read_layout(args.layout)
    real_boxes = []
    if args.annotations:
        for fr in dataset_io.read_annotations(args.annotations):
            if fr.frame_id == aug.frame_id:
                real_boxes = [a.box for a in fr.annotations]
    dataset_io.render_overlay(args.width, args.height, real_boxes,
                              [p.box for p in aug.proposals], args.out)
    return 0


# the run-parameter flags; each command takes only those it reads
_FLAGS = {
    "--config": dict(help="JSON config file (flat RunConfig fields); flags override it"),
    "--seed": dict(type=int, help="master seed (default 0)"),
    "--jobs": dict(type=int, default=1, help="worker threads (default 1)"),
    "--tau": dict(type=float, help="placement band depth threshold (default 5.0)"),
    "--objects-per-frame": dict(type=int, help="proposals per frame (default 12)"),
    "--drivable-classes": dict(help="comma-separated drivable class indices (default 1,2,3)"),
}


def _add_flags(p, *names):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()
    parser = argparse.ArgumentParser(
        prog="scene-placer",
        description="Scene-aware probabilistic object placement. "
        "Config defaults: " + ", ".join(
            f"{k}={v}" for k, v in defaults.to_dict().items()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a location model from annotations")
    _add_flags(p, "--config")
    p.add_argument("annotations")
    p.add_argument("--depth-dir", help="base dir for relative depth paths")
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("augment", help="sample placement proposals per frame")
    _add_flags(p, *_FLAGS)
    p.add_argument("annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--depth-dir")
    p.add_argument("--semantic-dir")
    p.add_argument("--masks-dir", help="optional per-proposal mask PGMs")
    p.add_argument("--out-layouts", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("refine", help="mask-based box refinement of a layout")
    _add_flags(p, "--config")
    p.add_argument("layout")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="layout statistics vs real annotations")
    _add_flags(p, "--config", "--tau", "--drivable-classes")
    p.add_argument("annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--layouts", required=True)
    p.add_argument("--depth-dir")
    p.add_argument("--semantic-dir")
    p.add_argument("--out-report")
    p.add_argument("--out-text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render a layout overlay PPM")
    p.add_argument("layout")
    p.add_argument("--annotations")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenePlacerError, FileNotFoundError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
