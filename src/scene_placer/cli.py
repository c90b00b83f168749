"""Command-line entry points: fit, augment, refine, eval, render.

Exit codes: 0 ok, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import suppress
from dataclasses import asdict, replace

from . import dataset_io
from .config import RunConfig
from .errors import DimensionMismatch, EmptyDrivableSpace, ScenePlacerError
from .evaluate import layout_report
from .fitting import fit_model
from .geometry import BBox, DepthGrid, drivable_mask, grid_scale
from .masks import refine_layout
from .sampler import SceneContext, augment_frame


def _resolve(base_dir, path):
    """`path` under `base_dir`; os.path.join keeps an absolute path as it is."""
    return path if path is None or base_dir is None else os.path.join(base_dir, path)


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) with the command's flags laid over it."""
    cfg = dataset_io.load_config(args.config) if args.config else RunConfig()
    flags = vars(args)
    return cfg.replace(seed=flags.get("seed"), tau=flags.get("tau"),
                       n_objects=flags.get("objects_per_frame"),
                       drivable_classes=flags.get("drivable_classes"))


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
        try:  # every command reads its grids here: the one check that names the frame
            grid_scale(frame.width, frame.height, self._depth[path])
        except DimensionMismatch as e:
            raise DimensionMismatch(f"frame {frame.frame_id}: {e}") from None
        return self._depth[path]

    def scene(self, frame) -> SceneContext:
        depth = self.depth(frame)
        path = _resolve(self.semantic_dir, frame.semantic_path)
        if path not in self._drivable:
            self._drivable[path] = drivable_mask(dataset_io.read_label_grid(path),
                                                 self.cfg.drivable_classes)
        try:
            return SceneContext(frame_w=frame.width, frame_h=frame.height,
                                camera_id=frame.camera_id, depth=depth,
                                drivable=self._drivable[path])
        except DimensionMismatch as e:
            raise DimensionMismatch(f"frame {frame.frame_id}: {e}: depth"
                                    f" {_resolve(self.depth_dir, frame.depth_path)},"
                                    f" labels {path}") from None


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model, warnings = fit_model(frames, _Grids(cfg, args.depth_dir).depth, cfg)
    dataset_io.save_model(model, args.out_model)
    for cam in sorted(model.cameras, key=str):
        for cid, cm in sorted(model.cameras[cam].items()):
            print(f"camera {cam} class {cid}: {cm.sample_count} samples")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _augment_one(frame, model, cfg, args):
    # a reader per frame, so the frame's grids are freed when it is done
    scene = _Grids(cfg, args.depth_dir, args.semantic_dir).scene(frame)
    try:
        aug = augment_frame(scene, model, frame.frame_id, cfg)
    except EmptyDrivableSpace as e:
        raise EmptyDrivableSpace(f"frame {frame.frame_id}: {e} of the drivable classes"
                                 f" {cfg.drivable_classes}") from None
    if args.masks_dir:  # named here, read by `refine`: a mask may not exist yet
        aug.proposals = [replace(p, mask_path=os.path.join(
            args.masks_dir, f"{aug.frame_id}_{p.provenance.index}.pgm")) for p in aug.proposals]
    return aug


def cmd_augment(args) -> int:
    from concurrent.futures import ThreadPoolExecutor  # only augment starts threads

    cfg = _load_config(args)
    # numpy loads on first use (`_numpy`), not thread-safely on Python 3.11:
    # reading the annotations and the model loads it before the pool starts
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    os.makedirs(args.out_layouts, exist_ok=True)
    usable = [f for f in frames if f.has_grids]
    skipped = len(frames) - len(usable)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        augs = list(pool.map(lambda fr: _augment_one(fr, model, cfg, args), usable))
    for aug in augs:  # written once every frame has succeeded: a failed run writes none
        dataset_io.save_layout(aug, os.path.join(args.out_layouts, f"{aug.frame_id}.json"))
    dropped = sum(aug.dropped for aug in augs)
    print(f"augmented {len(usable)} frames ({skipped} skipped, {dropped} proposals dropped)")
    return 0


def cmd_refine(args) -> int:
    cfg = _load_config(args)
    aug = dataset_io.load_layout(args.layout)
    given = (args.width or aug.frame[0], args.height or aug.frame[1])
    if given != aug.frame:
        raise ScenePlacerError(f"{args.layout}: --width/--height give a {given[0]}x{given[1]}"
                               f" frame, the layout's is {aug.frame[0]}x{aug.frame[1]}")
    aug = refine_layout(aug, cfg.min_visible_composite)
    dataset_io.save_layout(aug, args.out)
    print(f"refined layout: {len(aug.proposals)} proposals kept, {aug.dropped} dropped")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model = dataset_io.load_model(args.model)
    paths = [os.path.join(args.layouts, name)
             for name in sorted(os.listdir(args.layouts)) if name.endswith(".json")]
    augs = [dataset_io.load_layout(path) for path in paths]
    laid_out = {}  # frame id -> the path of its layout
    for aug, path in zip(augs, paths):
        if laid_out.setdefault(aug.frame_id, path) != path:
            raise ScenePlacerError(f"frame {aug.frame_id} has two layouts:"
                                   f" {laid_out[aug.frame_id]} and {path}")
    grids = _Grids(cfg, args.depth_dir, args.semantic_dir)
    scenes = {fr.frame_id: grids.scene(fr) for fr in frames
              if fr.has_grids and fr.frame_id in laid_out}
    report = layout_report(frames, lambda fr: None if fr.depth_path is None else grids.depth(fr),
                           augs, scenes, model, cfg.tau)
    dataset_io.save_report(report, json_path=args.out_report, text_path=args.out_text)
    print(report.to_text(), end="")
    return 0


def cmd_render(args) -> int:
    aug = dataset_io.load_layout(args.layout)
    real_boxes = []
    if args.annotations:
        for fr in dataset_io.read_annotations(args.annotations):
            if fr.frame_id == aug.frame_id:
                real_boxes = [BBox(*row) for row in fr.boxes.tolist()]
    dataset_io.render_overlay(*aug.frame, real_boxes, [p.box for p in aug.proposals], args.out)
    return 0


def _class_list(text: str) -> list[int]:
    """argparse type of --drivable-classes: comma-separated integers, none empty."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type of --jobs and of refine's --width/--height: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


# the run-parameter flags; each command takes only those it reads
_FLAGS = {
    "--config": dict(help="JSON config file (flat RunConfig fields); flags override it"),
    "--seed": dict(type=int, help="master seed (default 0)"),
    "--jobs": dict(type=_positive_int, default=1, help="worker threads (default 1)"),
    "--tau": dict(type=float, help="placement band depth threshold (default 5.0)"),
    "--objects-per-frame": dict(type=int, help="proposals per frame (default 12)"),
    "--drivable-classes": dict(type=_class_list,
                               help="comma-separated drivable class indices (default 1,2,3)"),
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
            f"{k}={v}" for k, v in asdict(defaults).items()),
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
    p.add_argument("--masks-dir", help="record MASKS_DIR/F_i.pgm as the mask of proposal i "
                   "of frame F, for `refine` to apply (the file may come later)")
    p.add_argument("--out-layouts", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("refine", help="mask-based box refinement of a layout")
    _add_flags(p, "--config")
    p.add_argument("layout")
    p.add_argument("--width", type=_positive_int, help="must equal the layout's frame width")
    p.add_argument("--height", type=_positive_int, help="must equal the layout's frame height")
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenePlacerError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of the CLI (`python -m scene_placer.cli`, the
    `scene-placer` script): `main` with its stdout held in memory, then write
    that out, flush stdout and stderr and end the process with `os._exit`.
    Every output is written by then, so the interpreter's teardown, which
    frees each module and object in turn, would only add time. `atexit` hooks
    do not run; callers that need them call `main` in-process, which leaves
    the process and `os.environ` as they are."""
    # The package calls no BLAS routine, yet OpenBLAS starts worker threads
    # when numpy loads, and they spin beside augment's worker threads. numpy
    # loads lazily, so this runs before the library reads the variable; a
    # user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # Held here and written below, so that a failed write exits 120 however
    # stdout is buffered: raised in the command, argparse would drop it and
    # `main` would report an input error.
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main()
    except SystemExit as e:  # argparse: 0 after --help, 2 on a usage error
        code = e.code
    for stream, text in ((stdout, sys.stdout.getvalue()), (sys.stderr, "")):
        if stream is None:  # started with the descriptor closed
            continue
        try:
            stream.write(text)
            stream.flush()
        except (OSError, ValueError) as e:  # ValueError: text its encoding cannot take
            code = 120  # the interpreter's own status when its flush at exit fails
            if stream is stdout and sys.stderr is not None:
                with suppress(OSError):
                    sys.stderr.write(f"error: cannot write stdout: {e}\n")
    os._exit(code)


if __name__ == "__main__":
    run()
