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
from .geometry import BBox, crop_geometry, drivable_mask
from .masks import InstanceMask, composite_masks, composite_order, refine_bbox, visibility_filter
from .sampler import FrameAugmentation, PlacementProposal, Provenance, SamplerParams, SceneContext, augment_frame


def _resolve(base_dir, path):
    if path is None:
        return None
    return path if os.path.isabs(path) or base_dir is None else os.path.join(base_dir, path)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "objects_per_frame", None) is not None:
        overrides["n_objects"] = args.objects_per_frame
    if getattr(args, "drivable_classes", None):
        overrides["drivable_classes"] = [int(c) for c in args.drivable_classes.split(",")]
    return cfg.replace(**overrides)


def _jobs(args) -> int:
    if getattr(args, "jobs", None) is not None:
        return max(1, args.jobs)
    env = os.environ.get("SCENE_PLACER_JOBS")
    return max(1, int(env)) if env else 1


def _build_scene(frame, cfg, depth_dir=None, semantic_dir=None) -> SceneContext:
    depth = dataset_io.read_depth_grid(_resolve(depth_dir, frame.depth_path), cfg.depth_scale)
    labels = dataset_io.read_label_grid(_resolve(semantic_dir, frame.semantic_path))
    return SceneContext(
        frame_w=frame.width,
        frame_h=frame.height,
        camera_id=frame.camera_id,
        depth=depth,
        drivable=drivable_mask(labels, cfg.drivable_classes),
    )


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    if not frames:
        print("error: empty dataset", file=sys.stderr)
        return 2
    cache = {}

    def depth_lookup(frame):
        path = _resolve(args.depth_dir, frame.depth_path)
        if path is None:
            raise ScenePlacerError(f"frame {frame.frame_id} has no depth path")
        if path not in cache:
            cache[path] = dataset_io.read_depth_grid(path, cfg.depth_scale)
        return cache[path]

    model, warnings = fit_model(frames, depth_lookup, cfg)
    dataset_io.save_model(model, args.out_model)
    for cam in sorted(model.cameras, key=str):
        for cid, cm in sorted(model.cameras[cam].items()):
            flag = " (fallback)" if cm.fallback else ""
            print(f"camera {cam} class {cid}: {cm.sample_count} samples{flag}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _augment_one(frame, model, cfg, args):
    scene = _build_scene(frame, cfg, args.depth_dir, args.semantic_dir)
    params = SamplerParams(
        tau=cfg.tau,
        show_prob=cfg.show_prob,
        min_visible_frac=cfg.min_visible_frac,
        max_attempts=cfg.max_attempts,
    )
    aug = augment_frame(scene, model, cfg.n_objects, cfg.seed, frame.frame_id, params)
    if args.masks_dir:
        aug = _refine_with_masks(aug, frame.width, frame.height, args.masks_dir, cfg)
    dataset_io.save_layout(aug, os.path.join(args.out_layouts, f"{frame.frame_id}.json"))
    return aug


def _refine_with_masks(aug, frame_w, frame_h, masks_dir, cfg):
    """Attach per-proposal mask files when present; refine boxes and drop
    proposals occluded below the visibility threshold."""
    masked = []
    masks = []
    passthrough = []
    for i, p in enumerate(aug.proposals):
        path = os.path.join(masks_dir, f"{aug.frame_id}_{i}.pgm")
        if os.path.exists(path):
            bits = dataset_io.read_mask_pgm(path)
            patch = crop_geometry(p.box, frame_w, frame_h)
            mask = InstanceMask(bits=bits, patch=patch)
            try:
                box = refine_bbox(mask)
            except ScenePlacerError:
                passthrough.append(p)
                continue
            masked.append(PlacementProposal(
                class_id=p.class_id, d=p.d, d_effective=p.d_effective,
                box=box, show_prob=p.show_prob, provenance=p.provenance,
                mask_path=path,
            ))
            masks.append(mask)
        else:
            passthrough.append(p)
    if masked:
        order = composite_order(masked)
        plan = composite_masks(masked, masks, order, frame_w, frame_h)
        kept, _ = visibility_filter(plan, cfg.min_visible_composite)
        dropped_here = len(masked) - len(kept)
        masked = [masked[i] for i in kept]
    else:
        dropped_here = 0
    return FrameAugmentation(
        frame_id=aug.frame_id,
        proposals=passthrough + masked,
        dropped=aug.dropped + dropped_here,
    )


def cmd_augment(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    os.makedirs(args.out_layouts, exist_ok=True)
    usable = [f for f in frames if f.has_grids]
    skipped = len(frames) - len(usable)
    jobs = _jobs(args)
    dropped = 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
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
        provenance=Provenance(seed=0, frame_id="", index=0, attempts=1,
                              anchor_px=(ax, ay)),
        mask_path=rec.get("mask"),
    )


def cmd_refine(args) -> int:
    cfg = _load_config(args)
    doc = dataset_io.load_layout(args.layout)
    proposals = [_proposal_from_json(rec, 1.0) for rec in doc["proposals"]]
    masked, masks, passthrough = [], [], []
    for p in proposals:
        if p.mask_path and os.path.exists(p.mask_path):
            bits = dataset_io.read_mask_pgm(p.mask_path)
            patch = crop_geometry(p.box, args.width, args.height)
            mask = InstanceMask(bits=bits, patch=patch)
            box = refine_bbox(mask)
            masked.append(PlacementProposal(
                class_id=p.class_id, d=p.d, d_effective=p.d_effective,
                box=box, show_prob=p.show_prob, provenance=p.provenance,
                mask_path=p.mask_path,
            ))
            masks.append(mask)
        else:
            passthrough.append(p)
    dropped = doc["dropped"]
    if masked:
        order = composite_order(masked)
        plan = composite_masks(masked, masks, order, args.width, args.height)
        kept, _ = visibility_filter(plan, cfg.min_visible_composite)
        dropped += len(masked) - len(kept)
        masked = [masked[i] for i in kept]
    aug = FrameAugmentation(frame_id=doc["frame_id"],
                            proposals=passthrough + masked, dropped=dropped)
    dataset_io.save_layout(aug, args.out)
    print(f"refined {len(masked)} masked proposals, dropped {dropped}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    scenes = {}
    for fr in frames:
        if fr.has_grids:
            scenes[fr.frame_id] = _build_scene(fr, cfg, args.depth_dir, args.semantic_dir)
    augs = []
    for name in sorted(os.listdir(args.layouts)):
        if not name.endswith(".json"):
            continue
        doc = dataset_io.load_layout(os.path.join(args.layouts, name))
        scene = scenes.get(doc["frame_id"])
        scale = scene.grid_scale if scene is not None else 1.0
        augs.append(FrameAugmentation(
            frame_id=doc["frame_id"],
            proposals=[_proposal_from_json(rec, scale) for rec in doc["proposals"]],
            dropped=doc["dropped"],
        ))
    report = layout_report(frames, augs, scenes, model, cfg.tau)
    save_report(report, json_path=args.out_report,
                text_path=args.out_text)
    print(report.to_text(), end="")
    return 0


def cmd_render(args) -> int:
    doc = dataset_io.load_layout(args.layout)
    real_boxes = []
    if args.annotations:
        for fr in dataset_io.read_annotations(args.annotations):
            if fr.frame_id == doc["frame_id"]:
                real_boxes = [a.box for a in fr.annotations]
    proposal_boxes = []
    for rec in doc["proposals"]:
        cx, by, w, h = rec["box"]
        proposal_boxes.append(BBox(cx=cx, by=by, w=w, h=h))
    dataset_io.render_overlay(args.width, args.height, real_boxes,
                              proposal_boxes, args.out)
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file (flat RunConfig fields)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--jobs", type=int,
                   help="worker threads (default: $SCENE_PLACER_JOBS or 1)")
    p.add_argument("--tau", type=float,
                   help="placement band depth threshold (default 5.0)")
    p.add_argument("--objects-per-frame", type=int,
                   help="proposals per frame (default 12)")
    p.add_argument("--drivable-classes",
                   help="comma-separated drivable class indices (default 1,2,3)")


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
    _add_common(p)
    p.add_argument("annotations")
    p.add_argument("--depth-dir", help="base dir for relative depth paths")
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("augment", help="sample placement proposals per frame")
    _add_common(p)
    p.add_argument("annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--depth-dir")
    p.add_argument("--semantic-dir")
    p.add_argument("--masks-dir", help="optional per-proposal mask PGMs")
    p.add_argument("--out-layouts", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("refine", help="mask-based box refinement of a layout")
    _add_common(p)
    p.add_argument("layout")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="layout statistics vs real annotations")
    _add_common(p)
    p.add_argument("annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--layouts", required=True)
    p.add_argument("--depth-dir")
    p.add_argument("--semantic-dir")
    p.add_argument("--out-report")
    p.add_argument("--out-text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render a layout overlay PPM")
    _add_common(p)
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
