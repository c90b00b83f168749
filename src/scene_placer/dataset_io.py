"""File formats: COCO-style annotations, binary PGM/PPM grids, model JSON,
and per-frame augmented-layout JSON.

All writers produce canonical, diff-stable bytes; all readers reject
trailing garbage. Depth grids are 16-bit big-endian PGM scaled by a linear
factor; label and mask grids are 8-bit PGM.
"""

from __future__ import annotations

import json
import os
import reprlib
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import FormatError, ParseError, SchemaError, VersionError
from .fitting import (
    ClassModel,
    Histogram,
    LocationModel,
    LogNormalParams,
    MODEL_SCHEMA_VERSION,
    PowerCurve,
)
from .geometry import BBox, DepthGrid, LabelGrid


@dataclass(frozen=True)
class Annotation:
    class_id: int
    box: BBox
    mask_path: str | None = None


@dataclass(frozen=True)
class AnnotatedFrame:
    frame_id: str
    camera_id: str
    width: int
    height: int
    annotations: tuple
    depth_path: str | None = None
    semantic_path: str | None = None

    @property
    def has_grids(self) -> bool:
        return self.depth_path is not None and self.semantic_path is not None


# ---------------------------------------------------------------------------
# Schema checks of the JSON readers: (accepts the value, what it must be).
# Exact types: json.loads makes no subclasses, and a bool is not a number.
_NUMBER_TYPES = {int, float}
_INT = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in _NUMBER_TYPES, "a number")
_STR = (lambda v: type(v) is str, "a string")
_PATH = (lambda v: v is None or type(v) is str, "a string or null")
_BOOL = (lambda v: type(v) is bool, "true or false")
_LIST = (lambda v: type(v) is list, "a list")
_OBJECT = (lambda v: type(v) is dict, "an object")
_INTS = (lambda v: type(v) is list and all([type(c) is int for c in v]), "a list of integers")
_NUMBERS = (lambda v: type(v) is list and all([type(c) in _NUMBER_TYPES for c in v]),
            "a list of numbers")
_BOX = (lambda v: type(v) is list and len(v) == 4 and all([type(c) in _NUMBER_TYPES for c in v]),
        "a list of four numbers")
_MISSING = object()


def _read_json(path):
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", offset=e.pos) from e


def _get(rec, key, check, where, default=_MISSING):
    """Checked rec[key], or `default` if absent; errors name `where` (file, record)."""
    if type(rec) is not dict:
        raise SchemaError(f"{where} must be an object, got {reprlib.repr(rec)}")
    value = rec.get(key, default)
    if value is _MISSING:
        raise SchemaError(f"{where}: missing key {key!r}")
    accepts, expected = check
    if not accepts(value):
        raise SchemaError(f"{where}: {key!r} must be {expected}, got {reprlib.repr(value)}")
    return value


# ---------------------------------------------------------------------------
# COCO-style annotations

def read_annotations(path) -> list:
    """Parse a COCO-style JSON subset into AnnotatedFrames.

    Boxes are converted from [x, y, w, h] corner format to the bottom-center
    anchor representation used everywhere else.
    """
    doc = _read_json(path)
    where = f"{path}: top level"
    categories = {_get(c, "id", _INT, f"{path}: categories[{i}]")
                  for i, c in enumerate(_get(doc, "categories", _LIST, where, []))}
    per_image = {}
    for i, ann in enumerate(_get(doc, "annotations", _LIST, where, [])):
        rec = f"{path}: annotations[{i}]"
        cat = _get(ann, "category_id", _INT, rec)
        if cat not in categories:
            raise SchemaError(f"{rec} references unknown category {cat}")
        x, y, w, h = _get(ann, "bbox", _BOX, rec)
        per_image.setdefault(_get(ann, "image_id", _INT, rec), []).append(Annotation(
            class_id=cat, box=BBox(cx=x + w / 2.0, by=y + h, w=w, h=h),
            mask_path=_get(ann, "mask", _PATH, rec, None)))
    frames = []
    for i, img in enumerate(_get(doc, "images", _LIST, where, [])):
        rec = f"{path}: images[{i}]"
        image_id = _get(img, "id", _INT, rec)
        frames.append(AnnotatedFrame(
            frame_id=str(image_id),
            camera_id=_get(img, "camera", _STR, rec, "default"),
            width=_get(img, "width", _INT, rec),
            height=_get(img, "height", _INT, rec),
            annotations=tuple(per_image.get(image_id, [])),
            depth_path=_get(img, "depth_path", _PATH, rec, None),
            semantic_path=_get(img, "semantic_path", _PATH, rec, None),
        ))
    return sorted(frames, key=lambda f: int(f.frame_id))


def write_annotations(frames, path):
    """Write frames back out as normalized COCO-style JSON (sorted, canonical)."""
    images = []
    annotations = []
    cat_ids = set()
    ann_id = 1
    for fr in sorted(frames, key=lambda f: int(f.frame_id)):
        img = {
            "id": int(fr.frame_id),
            "camera": fr.camera_id,
            "width": fr.width,
            "height": fr.height,
        }
        if fr.depth_path is not None:
            img["depth_path"] = fr.depth_path
        if fr.semantic_path is not None:
            img["semantic_path"] = fr.semantic_path
        images.append(img)
        for ann in fr.annotations:
            cat_ids.add(ann.class_id)
            rec = {
                "id": ann_id,
                "image_id": int(fr.frame_id),
                "category_id": ann.class_id,
                "bbox": [ann.box.x0, ann.box.y0, ann.box.w, ann.box.h],
            }
            if ann.mask_path is not None:
                rec["mask"] = ann.mask_path
            annotations.append(rec)
            ann_id += 1
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c} for c in sorted(cat_ids)],
    }
    _atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# PGM / PPM rasters

def _parse_pnm_header(data: bytes, path):
    """Returns (magic, width, height, maxval, data_offset)."""
    pos = 0
    fields = []

    def skip_ws(p):
        while p < len(data):
            if data[p : p + 1].isspace():
                p += 1
            elif data[p : p + 1] == b"#":
                while p < len(data) and data[p : p + 1] != b"\n":
                    p += 1
            else:
                break
        return p

    if data[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: bad magic {data[:2]!r}")
    magic = data[:2].decode()
    pos = 2
    while len(fields) < 3:
        pos = skip_ws(pos)
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    return magic, w, h, maxval, pos


def _read_pgm(path, expect_maxval):
    with open(path, "rb") as f:
        data = f.read()
    magic, w, h, maxval, off = _parse_pnm_header(data, path)
    if magic != "P5":
        raise FormatError(f"{path}: expected P5, got {magic}")
    if maxval != expect_maxval:
        raise FormatError(f"{path}: expected maxval {expect_maxval}, got {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    n_bytes = w * h * dtype.itemsize
    if len(data) - off != n_bytes:
        raise FormatError(
            f"{path}: expected {n_bytes} data bytes, found {len(data) - off}"
        )
    raw = np.frombuffer(data, dtype=dtype, count=w * h, offset=off)
    return raw.reshape(h, w)


def read_depth_grid(path, scale: float) -> DepthGrid:
    """16-bit big-endian PGM; stored value times scale gives the disparity."""
    raw = _read_pgm(path, 65535)
    return DepthGrid(raw.astype(np.float32) * np.float32(scale))


def write_depth_grid(grid: DepthGrid, path, scale: float):
    raw = np.round(grid.values / np.float32(scale)).astype(">u2")
    header = f"P5\n{grid.width} {grid.height}\n65535\n".encode()
    _atomic_write_bytes(path, header + raw.tobytes())


def read_label_grid(path) -> LabelGrid:
    """8-bit PGM of semantic class indices."""
    return LabelGrid(_read_pgm(path, 255))


def write_label_grid(grid: LabelGrid, path):
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode()
    _atomic_write_bytes(path, header + grid.labels.tobytes())


def read_mask_pgm(path) -> np.ndarray:
    """Binary instance mask: 0 = background, 255 = object."""
    raw = _read_pgm(path, 255)
    return raw >= 128


def write_mask_pgm(bits: np.ndarray, path):
    raw = np.where(np.asarray(bits, dtype=bool), 255, 0).astype(np.uint8)
    header = f"P5\n{raw.shape[1]} {raw.shape[0]}\n255\n".encode()
    _atomic_write_bytes(path, header + raw.tobytes())


# ---------------------------------------------------------------------------
# Model serialization

def _curve_to_json(curve: PowerCurve) -> dict:
    return {"a": curve.a, "b": curve.b, "c": curve.c,
            "lo": curve.domain_lo, "hi": curve.domain_hi}


def _curve_from_json(obj, where) -> PowerCurve:
    a, b, c, lo, hi = [_get(obj, k, _NUMBER, where) for k in ("a", "b", "c", "lo", "hi")]
    return PowerCurve(a=a, b=b, c=c, domain_lo=lo, domain_hi=hi)


def _class_from_json(cid, rec, where) -> ClassModel:
    depth, mu_curve, sigma_curve, aspect = [
        _get(rec, k, _OBJECT, where)
        for k in ("depth", "height_mu_curve", "height_sigma_curve", "aspect")]
    return ClassModel(
        class_id=int(cid),
        depth=LogNormalParams(*[_get(depth, k, _NUMBER, f"{where}.depth") for k in ("mu", "sigma")]),
        height_mu_curve=_curve_from_json(mu_curve, f"{where}.height_mu_curve"),
        height_sigma_curve=_curve_from_json(sigma_curve, f"{where}.height_sigma_curve"),
        aspect=Histogram(*[_get(aspect, k, _NUMBERS, f"{where}.aspect")
                           for k in ("edges", "probs")]),
        sample_count=_get(rec, "count", _INT, where),
        fallback=_get(rec, "fallback", _BOOL, where, False),
    )


def model_to_json(model: LocationModel) -> dict:
    cameras = {}
    for cam, classes in model.cameras.items():
        cameras[cam] = {
            str(cid): {
                "depth": {"mu": cm.depth.mu, "sigma": cm.depth.sigma},
                "height_mu_curve": _curve_to_json(cm.height_mu_curve),
                "height_sigma_curve": _curve_to_json(cm.height_sigma_curve),
                "aspect": {
                    "edges": [float(v) for v in cm.aspect.edges],
                    "probs": [float(v) for v in cm.aspect.probs],
                },
                "count": cm.sample_count,
                "fallback": cm.fallback,
            }
            for cid, cm in classes.items()
        }
    return {
        "schema": MODEL_SCHEMA_VERSION,
        "cameras": cameras,
        "class_prior": {
            "classes": [int(c) for c in model.prior_classes],
            "probs": [float(v) for v in model.class_prior],
        },
        "config": model.config.to_dict(),
    }


def model_from_json(doc, where="model") -> LocationModel:
    """The model in `doc`; any defect raises VersionError naming `where`."""
    try:
        schema = _get(doc, "schema", _INT, "top level")
        if schema != MODEL_SCHEMA_VERSION:
            raise VersionError(f"{where}: unsupported model schema {schema!r},"
                               f" expected {MODEL_SCHEMA_VERSION}")
        cameras = _get(doc, "cameras", _OBJECT, "top level")
        prior = _get(doc, "class_prior", _OBJECT, "top level")
        return LocationModel(
            cameras={cam: {int(cid): _class_from_json(cid, rec, f"cameras[{cam!r}][{cid!r}]")
                           for cid, rec in _get(cameras, cam, _OBJECT, "cameras").items()}
                     for cam in cameras},
            class_prior=_get(prior, "probs", _NUMBERS, "class_prior"),
            prior_classes=tuple(_get(prior, "classes", _INTS, "class_prior")),
            config=RunConfig(**_get(doc, "config", _OBJECT, "top level")))
    except (SchemaError, TypeError, ValueError) as e:
        raise VersionError(f"{where}: malformed model document: {e}") from e


def save_model(model: LocationModel, path):
    _atomic_write_text(path, json.dumps(model_to_json(model),
                                        sort_keys=True, indent=2) + "\n")


def load_model(path) -> LocationModel:
    return model_from_json(_read_json(path), path)


# ---------------------------------------------------------------------------
# Augmented layouts

def layout_to_json(aug) -> dict:
    """AugmentedLayout document; field order is fixed for diff stability."""
    return {
        "frame_id": aug.frame_id,
        "proposals": [
            {
                "class": p.class_id,
                "d": p.d_effective,
                "box": [p.box.cx, p.box.by, p.box.w, p.box.h],
                "show_prob": p.show_prob,
                "mask": p.mask_path,
            }
            for p in aug.proposals
        ],
        "dropped": aug.dropped,
    }


def save_layout(aug, path):
    _atomic_write_text(path, json.dumps(layout_to_json(aug), indent=2) + "\n")


# per proposal record of a layout: key -> check
_PROPOSAL_FIELDS = {"class": _INT, "d": _NUMBER, "box": _BOX, "show_prob": _NUMBER, "mask": _PATH}


def load_layout(path) -> dict:
    """A layout document, with every key its readers use checked."""
    doc = _read_json(path)
    where = f"{path}: layout"
    _get(doc, "frame_id", _STR, where)
    _get(doc, "dropped", _INT, where)
    for i, rec in enumerate(_get(doc, "proposals", _LIST, where)):
        for key, check in _PROPOSAL_FIELDS.items():
            _get(rec, key, check, f"{path}: proposals[{i}]")
    return doc


# ---------------------------------------------------------------------------
# Overlay rendering

BACKGROUND_GRAY = 128
REAL_BOX_COLOR = (0, 0, 255)  # blue
PROPOSAL_COLOR = (0, 255, 0)  # green
STROKE = 2


def _draw_rect(img: np.ndarray, box: BBox, color):
    h, w = img.shape[:2]
    x0 = int(round(box.x0))
    x1 = int(round(box.x1))
    y0 = int(round(box.y0))
    y1 = int(round(box.y1))
    for (ax0, ay0, ax1, ay1) in (
        (x0, y0, x1, y0 + STROKE),  # top
        (x0, y1 - STROKE, x1, y1),  # bottom
        (x0, y0, x0 + STROKE, y1),  # left
        (x1 - STROKE, y0, x1, y1),  # right
    ):
        cx0, cy0 = max(ax0, 0), max(ay0, 0)
        cx1, cy1 = min(ax1, w), min(ay1, h)
        if cx0 < cx1 and cy0 < cy1:
            img[cy0:cy1, cx0:cx1] = color


def render_overlay(frame_w, frame_h, real_boxes, proposal_boxes, path):
    """Static visualization: gray canvas, blue real boxes, green proposals."""
    img = np.full((frame_h, frame_w, 3), BACKGROUND_GRAY, dtype=np.uint8)
    for box in real_boxes:
        _draw_rect(img, box, REAL_BOX_COLOR)
    for box in proposal_boxes:
        _draw_rect(img, box, PROPOSAL_COLOR)
    header = f"P6\n{frame_w} {frame_h}\n255\n".encode()
    _atomic_write_bytes(path, header + img.tobytes())


# ---------------------------------------------------------------------------
# Atomic writes

def _atomic_write_bytes(path, data: bytes):
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))
