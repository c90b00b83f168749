"""Output checks. Each returns a list of error strings; empty means it passed."""

from __future__ import annotations

import json
import os
import tempfile

from pipeline import TAU
from scenegen import DEPTH_SCALE, Dataset

EPS = 1e-6


def exit_codes(invocations) -> list:
    return [f"{inv.stage}: exit code {inv.returncode} for {' '.join(inv.argv)}"
            for inv in invocations if inv.returncode != 0]


def identical(expected: dict, got: dict, what: str) -> list:
    """Same file names and byte-identical contents."""
    errors = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            errors.append(f"{what}: {name} missing")
        elif name not in expected:
            errors.append(f"{what}: unexpected {name}")
        elif expected[name] != got[name]:
            errors.append(f"{what}: {name} differs")
    return errors


def _anchor(data: Dataset, frame_id: str, prop: dict, tau: float) -> list:
    """Rebuild the sampled anchor pixel from an unclipped box and check it lies
    in the placement band of the benchmark's own grids."""
    spec = data.spec
    cx, by, w, _ = prop["box"]
    edge = EPS * spec.frame_w  # clipping rebuilds cx from both edges, off by an ulp
    if cx - w / 2.0 <= edge or cx + w / 2.0 >= spec.frame_w - edge:
        return []  # clipped horizontally: the box no longer centres on the anchor
    scale = spec.frame_w / spec.grid_w
    gx, gy = cx / scale - 0.5, by / scale - 1.0
    x, y = int(round(gx)), int(round(gy))
    where = f"frame {frame_id} box {prop['box']}"
    if abs(gx - x) > EPS * max(1.0, gx) or abs(gy - y) > EPS * max(1.0, gy):
        return [f"{where}: bottom-centre is not on a grid pixel"]
    if not (0 <= x < spec.grid_w and 0 <= y < spec.grid_h):
        return [f"{where}: anchor ({x}, {y}) outside the grid"]
    scene = data.scenes[data.frame_scene[frame_id]]
    if not scene.drivable[y, x]:
        return [f"{where}: anchor ({x}, {y}) is not drivable"]
    depth = scene.depth_raw[y, x] / DEPTH_SCALE
    if abs(depth - prop["d"]) > tau + 1e-4:
        return [f"{where}: anchor disparity {depth:.4f} not within {tau} of d={prop['d']:.4f}"]
    return []


def layouts(data: Dataset, files: dict, tau: float, what: str) -> list:
    """Per-layout checks on {file name: bytes} for the augmented frames."""
    spec = data.spec
    expected = {f"{fid}.json" for fid in data.aug_frame_ids}
    errors = [f"{what}: {name} missing" for name in sorted(expected - set(files))]
    errors += [f"{what}: unexpected {name}" for name in sorted(set(files) - expected)]
    for name, raw in sorted(files.items()):
        doc = json.loads(raw)
        fid = str(doc["frame_id"])
        props = doc["proposals"]
        if name != f"{fid}.json":
            errors.append(f"{what}/{name}: holds frame {fid}")
        if len(props) + doc["dropped"] != spec.objects_per_frame:
            errors.append(f"{what}/{name}: {len(props)} proposals + {doc['dropped']} dropped"
                          f" != {spec.objects_per_frame} objects per frame")
        for p in props:
            cx, by, w, h = p["box"]
            if not (w > 0 and h > 0 and cx - w / 2.0 >= -EPS and cx + w / 2.0 <= spec.frame_w + EPS
                    and by - h >= -EPS and by <= spec.frame_h + EPS):
                errors.append(f"{what}/{name}: box {p['box']} not inside the frame")
            elif p["mask"] is None and fid in data.frame_scene:
                errors.extend(f"{what}/{name}: {e}" for e in _anchor(data, fid, p, tau))
    return errors


def model_roundtrip(model_bytes: bytes, scratch_dir: str) -> list:
    """load_model then save_model must reproduce model.json byte for byte."""
    from scene_placer import dataset_io

    fd, src = tempfile.mkstemp(dir=scratch_dir, suffix=".json")
    dst = src + ".again.json"
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(model_bytes)
        dataset_io.save_model(dataset_io.load_model(src), dst)
        with open(dst, "rb") as f:
            again = f.read()
    finally:
        for path in (src, dst):
            if os.path.exists(path):
                os.unlink(path)
    return [] if again == model_bytes else ["model.json does not round-trip byte-identically"]


def pipeline_round(data, rnd, first, scratch: str) -> list:
    """Every check on one pipeline round; `first` is the run's first round
    (None for the first round itself), whose outputs later rounds must repeat."""
    errors = exit_codes(rnd.invocations)
    if not rnd.complete:
        return errors or ["pipeline did not complete"]
    out = rnd.outputs
    errors += identical(out["layouts_j1"], out["layouts"], "layouts --jobs 1 vs --jobs nproc")
    errors += layouts(data, out["layouts"], TAU, "layouts")
    errors += layouts(data, out["refined"], TAU, "refined")
    if first is None:
        errors += model_roundtrip(out["model"], scratch)
    else:
        errors += same_outputs(first, rnd, "vs first round")
    return errors


def _files(rnd) -> dict:
    files = {}
    for key, value in rnd.outputs.items():
        if isinstance(value, bytes):
            files[key] = value
        else:
            files.update({f"{key}/{name}": raw for name, raw in value.items()})
    return files


def same_outputs(expected, got, what: str) -> list:
    """Two rounds wrote byte-identical model, layouts and report."""
    return identical(_files(expected), _files(got), what)
