"""Command-line entry points: fit, augment, refine, eval, render.

Exit codes: 0 ok, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
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
from .geometry import BBox, drivable_mask
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


def _readers(args, cfg):
    """Readers of a frame's depth grid and drivable mask by its path, resolved
    under --depth-dir or --semantic-dir; each looks its PGM reader up in
    `dataset_io` when called, so a tracer that rebinds it sees the call."""
    return (lambda p: dataset_io.read_depth_grid(_resolve(args.depth_dir, p), cfg.depth_scale),
            lambda p: drivable_mask(dataset_io.read_label_grid(_resolve(args.semantic_dir, p)),
                                    cfg.drivable_classes))


def _scene(frame, args, depth, drivable) -> SceneContext:
    """The frame's scene on the grids the path readers give for its paths; a
    grid that fits neither the frame nor the other grid names the frame and
    both files."""
    try:
        return SceneContext(frame.width, frame.height, frame.camera_id,
                            depth(frame.depth_path), drivable(frame.semantic_path))
    except DimensionMismatch as e:
        files = (_resolve(args.depth_dir, frame.depth_path),
                 _resolve(args.semantic_dir, frame.semantic_path))
        raise DimensionMismatch(f"frame {frame.frame_id}: {e}: depth {files[0]},"
                                f" labels {files[1]}") from None


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    frames = dataset_io.read_annotations(args.annotations)
    model, warnings = fit_model(frames, _readers(args, cfg)[0], cfg)
    dataset_io.save_model(model, args.out_model)
    for cam in sorted(model.cameras, key=str):
        for cid, cm in sorted(model.cameras[cam].items()):
            print(f"camera {cam} class {cid}: {cm.sample_count} samples")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _augment_one(frame, model, cfg, args):
    scene = _scene(frame, args, *_readers(args, cfg))  # read for this frame alone, freed with it
    try:
        aug = augment_frame(scene, model, frame.frame_id, cfg)
    except EmptyDrivableSpace as e:
        raise EmptyDrivableSpace(f"frame {frame.frame_id}: {e} of the drivable classes"
                                 f" {cfg.drivable_classes}") from None
    except OverflowError as e:  # a fitted model's values keep every draw finite
        raise ScenePlacerError(f"frame {frame.frame_id}: sampling from {args.model}"
                               f" overflows ({e}): the model's values are out of range") from None
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
    sizes = {fr.frame_id: (fr.width, fr.height) for fr in frames}
    for aug, path in zip(augs, paths):
        if laid_out.setdefault(aug.frame_id, path) != path:
            raise ScenePlacerError(f"frame {aug.frame_id} has two layouts:"
                                   f" {laid_out[aug.frame_id]} and {path}")
        size = sizes.get(aug.frame_id, aug.frame)
        if size != aug.frame:
            raise ScenePlacerError(f"{path}: the layout of frame {aug.frame_id} is for a"
                                   f" {aug.frame[0]}x{aug.frame[1]} frame, {args.annotations}"
                                   f" gives {size[0]}x{size[1]}")
    depth, drivable = map(functools.cache, _readers(args, cfg))  # scenes and real boxes share grids
    scenes = {fr.frame_id: _scene(fr, args, depth, drivable) for fr in frames
              if fr.has_grids and fr.frame_id in laid_out}
    report = layout_report(frames, depth, augs, scenes, model, cfg.tau)
    dataset_io.save_report(report, json_path=args.out_report, text_path=args.out_text)
    unchecked = [len(aug.proposals) for aug in augs if aug.proposals and aug.frame_id not in scenes]
    if unchecked:
        print(f"warning: band_validity leaves out {sum(unchecked)} proposals of"
              f" {len(unchecked)} frames without an annotated depth and label grid",
              file=sys.stderr)
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
    "--seed": dict(type=int, help="master seed"),
    "--jobs": dict(type=_positive_int, default=1, help="worker threads (default %(default)s)"),
    "--tau": dict(type=float, help="placement band depth threshold"),
    "--objects-per-frame": dict(type=int, help="proposals per frame"),
    "--drivable-classes": dict(type=_class_list, help="comma-separated drivable class indices"),
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
