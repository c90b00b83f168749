"""File formats: COCO-style annotations, binary PGM grids, run-config JSON,
model JSON, per-frame augmented-layout JSON, the eval report and PPM overlays.

This is the one module that opens files. All writers produce canonical,
diff-stable bytes and replace their file atomically; all readers reject
trailing garbage, every JSON value passes one table of checks and every PGM
header one pattern. Depth grids are 16-bit big-endian PGM scaled by a linear
factor; label and mask grids are 8-bit PGM.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass

from ._numpy import np
from .config import RunConfig
from .errors import FormatError, ParseError, SchemaError, VersionError, describe
from .fitting import (
    ClassModel,
    Histogram,
    LocationModel,
    LogNormalParams,
    MODEL_SCHEMA_VERSION,
    PowerCurve,
)
from .geometry import BBox, DepthGrid, LabelGrid, PatchRect, _frozen_array, clip_box
from .sampler import FrameAugmentation, PlacementProposal, Provenance


@dataclass(frozen=True)
class AnnotatedFrame:
    """One image and its boxes as columns: `class_ids` (int64, shape (n,)) and
    `boxes` (float64, shape (n, 4), each row `cx, by, w, h`), both read-only."""

    frame_id: str
    camera_id: str
    width: int
    height: int
    class_ids: np.ndarray
    boxes: np.ndarray
    depth_path: str | None = None
    semantic_path: str | None = None

    def __post_init__(self):
        class_ids = _frozen_array(self.class_ids, np.int64)
        boxes = _frozen_array(self.boxes, np.float64)
        if class_ids.ndim != 1 or boxes.shape != (class_ids.size, 4):
            raise ValueError(f"frame {self.frame_id}: need n class ids and an (n, 4) box"
                             f" array, got shapes {class_ids.shape} and {boxes.shape}")
        object.__setattr__(self, "class_ids", class_ids)
        object.__setattr__(self, "boxes", boxes)

    @property
    def has_grids(self) -> bool:
        return self.depth_path is not None and self.semantic_path is not None


# ---------------------------------------------------------------------------
# Schema checks of the JSON readers: (accepts the value, what it must be).
# Exact types: json.loads makes no subclasses, and a bool is not a number.
# A number is finite: within +-_MAX, which rejects NaN, +-Infinity (also
# spelled 1e400) and ints too big for a float, and compares without raising.
_NUMBER_TYPES = {int, float}
_MAX = sys.float_info.max
_INT = (lambda v: type(v) is int, "an integer")
_SIZE = (lambda v: type(v) is int and v > 0, "an integer > 0")
_COUNT = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_NUMBER = (lambda v: type(v) in _NUMBER_TYPES and -_MAX <= v <= _MAX, "a finite number")
_STR = (lambda v: type(v) is str, "a string")
# `fit` prints camera ids: a lone surrogate, such as "\ud800", has no UTF-8 encoding
_PRINTABLE = (lambda v: type(v) is str and not re.search(r"[\ud800-\udfff]", v),
              "a string that UTF-8 can encode")
_PATH = (lambda v: v is None or type(v) is str, "a string or null")
_LIST = (lambda v: type(v) is list, "a list")
_OBJECT = (lambda v: type(v) is dict, "an object")
_INTS = (lambda v: type(v) is list and all([type(c) is int for c in v]), "a list of integers")
_NUMBERS = (lambda v: type(v) is list
            and all([type(c) in _NUMBER_TYPES and -_MAX <= c <= _MAX for c in v]),
            "a list of finite numbers")
_BOX = (lambda v: _NUMBERS[0](v) and len(v) == 4 and v[2] > 0 and v[3] > 0,
        "a list of four finite numbers, the last two (width, height) > 0")
_PIXEL = (lambda v: _INTS[0](v) and len(v) == 2, "a list of two integers")
_FRAME = (lambda v: _PIXEL[0](v) and min(v) > 0, "a list of two integers > 0")
_PATCH = (lambda v: _INTS[0](v) and len(v) == 3 and v[2] > 0,
          "a list of three integers, the last (side) > 0")
_MISSING = object()


def _read_json(path):
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", offset=e.pos) from e
    except RecursionError:
        raise ParseError(f"{path}: arrays or objects nested too deeply to parse") from None


def _write_json(path, doc, sort_keys=True):
    _atomic_write_bytes(path, (json.dumps(doc, sort_keys=sort_keys, indent=2) + "\n").encode())


def _get(rec, key, check, where, default=_MISSING):
    """Checked rec[key], or `default` if absent; errors name `where` (file, record)."""
    if type(rec) is not dict:
        raise SchemaError(f"{where} must be an object, got {describe(rec)}")
    value = rec.get(key, default)
    if value is _MISSING:
        raise SchemaError(f"{where}: missing key {key!r}")
    accepts, expected = check
    if not accepts(value):
        raise SchemaError(f"{where}: {key!r} must be {expected}, got {describe(value)}")
    return value


# ---------------------------------------------------------------------------
# COCO-style annotations

def _get_id(rec, key, where) -> int:
    """Checked rec[key], an integer that fits in int64 (an image or class id)."""
    value = _get(rec, key, _INT, where)
    if not -2**63 <= value < 2**63:
        raise SchemaError(f"{where}: {key!r} must fit in int64, got {describe(value)}")
    return value


def _check_annotation(ann, categories, where):
    """One annotation record's checks, in the order that names its first bad key."""
    cat = _get_id(ann, "category_id", where)
    if cat not in categories:
        raise SchemaError(f"{where} references unknown category {cat}")
    _get(ann, "bbox", _BOX, where)
    _get_id(ann, "image_id", where)


def _annotation_columns(anns, categories):
    """(image ids, class ids, boxes) of all annotation records, or None if a
    record fails any check of `_check_annotation`, which are all made here in
    bulk. Boxes go from [x, y, w, h] corners to `cx, by, w, h` rows."""
    if set(map(type, anns)) - {dict}:
        return None
    cats, images, bboxes = [list(map(dict.get, anns, itertools.repeat(key)))
                            for key in ("category_id", "image_id", "bbox")]
    if (set(map(type, cats + images)) - {int}
            or set(map(type, bboxes)) - {list} or set(map(len, bboxes)) - {4}
            or not categories.issuperset(cats)):
        return None
    flat = list(itertools.chain.from_iterable(bboxes))
    if set(map(type, flat)) - _NUMBER_TYPES:
        return None
    try:
        image_ids = np.array(images, dtype=np.int64)
        class_ids = np.array(cats, dtype=np.int64)
        boxes = np.array(flat, dtype=np.float64).reshape(-1, 4)
    except OverflowError:  # an id past int64, or an int past the float range
        return None
    size = np.abs(boxes)
    # an int just past _MAX converts to _MAX: compare those values exactly
    if (not np.all(size <= _MAX) or not np.all(boxes[:, 2:] > 0)
            or any(abs(flat[i]) > _MAX for i in np.flatnonzero(size == _MAX).tolist())):
        return None
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in scalar math
        boxes[:, 0] += boxes[:, 2] / 2.0
        boxes[:, 1] += boxes[:, 3]
    return image_ids, class_ids, boxes


def read_annotations(path) -> list:
    """Parse a COCO-style JSON subset into AnnotatedFrames, sorted by image id.

    Every annotation record is checked in bulk; only if one fails do the
    per-record checks run, in document order, to name the first bad record.
    Annotations of an image that is not listed are ignored.
    """
    doc = _read_json(path)
    where = f"{path}: top level"
    categories = {_get_id(c, "id", f"{path}: categories[{i}]")
                  for i, c in enumerate(_get(doc, "categories", _LIST, where, []))}
    anns = _get(doc, "annotations", _LIST, where, [])
    columns = _annotation_columns(anns, categories)
    if columns is None:
        for i, ann in enumerate(anns):
            _check_annotation(ann, categories, f"{path}: annotations[{i}]")
        raise AssertionError(f"{path}: the bulk annotation checks failed, no record did")
    image_ids, class_ids, boxes = columns
    order = np.argsort(image_ids, kind="stable")  # document order within an image
    image_ids, class_ids, boxes = image_ids[order], class_ids[order], boxes[order]
    images = {}  # image id -> (record index, frame fields)
    for i, img in enumerate(_get(doc, "images", _LIST, where, [])):
        rec = f"{path}: images[{i}]"
        image_id = _get_id(img, "id", rec)
        if image_id in images:
            raise SchemaError(f"{rec} repeats the id {image_id} of images[{images[image_id][0]}]")
        images[image_id] = i, dict(
            camera_id=_get(img, "camera", _PRINTABLE, rec, "default"),
            width=_get(img, "width", _SIZE, rec),
            height=_get(img, "height", _SIZE, rec),
            depth_path=_get(img, "depth_path", _PATH, rec, None),
            semantic_path=_get(img, "semantic_path", _PATH, rec, None))
    ids = np.array(sorted(images), dtype=np.int64)
    spans = zip(np.searchsorted(image_ids, ids, "left").tolist(),
                np.searchsorted(image_ids, ids, "right").tolist())
    return [AnnotatedFrame(frame_id=str(image_id), class_ids=class_ids[lo:hi], boxes=boxes[lo:hi],
                           **images[image_id][1])
            for image_id, (lo, hi) in zip(ids.tolist(), spans)]


# ---------------------------------------------------------------------------
# PGM / PPM rasters

# A binary PGM header: P5, then width, height and maxval, each after
# whitespace or '#' comments running to a newline, then one whitespace byte.
# Each number is a positive decimal integer of at most nine digits after any
# leading zeros (Netpbm itself rejects numbers past a C int).
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+0*([1-9][0-9]{0,8})" * 3 + rb"\s")


def _read_pgm(path, expect_maxval):
    with open(path, "rb") as f:
        data = f.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: not a binary PGM header"
                          " (P5, then positive width, height and maxval)")
    w, h, maxval = map(int, header.groups())
    if maxval != expect_maxval:
        raise FormatError(f"{path}: expected maxval {expect_maxval}, got {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    n_bytes = w * h * dtype.itemsize
    off = header.end()
    if len(data) - off != n_bytes:
        raise FormatError(
            f"{path}: expected {n_bytes} data bytes, found {len(data) - off}"
        )
    raw = np.frombuffer(data, dtype=dtype, count=w * h, offset=off)
    return raw.reshape(h, w)


def _write_pnm(path, magic, maxval, pixels: np.ndarray):
    """A binary PNM of `pixels`, (height, width) or (height, width, 3)."""
    h, w = pixels.shape[:2]
    _atomic_write_bytes(path, f"{magic}\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes())


def read_depth_grid(path, scale: float) -> DepthGrid:
    """16-bit big-endian PGM; stored value times scale gives the disparity."""
    raw = _read_pgm(path, 65535)
    return DepthGrid(raw.astype(np.float32) * np.float32(scale))


def read_label_grid(path) -> LabelGrid:
    """8-bit PGM of semantic class indices."""
    return LabelGrid(_read_pgm(path, 255))


def read_mask_pgm(path) -> np.ndarray:
    """Binary instance mask: 0 = background, 255 = object."""
    raw = _read_pgm(path, 255)
    return raw >= 128


# ---------------------------------------------------------------------------
# Run config: a flat object of RunConfig fields

# per RunConfig field annotation: the check of its JSON value
_CONFIG_CHECKS = {
    "int": _INT, "float": _NUMBER, "str": _STR, "list[int]": _INTS,
    "list[int] | None": (lambda v: v is None or _INTS[0](v), "null or a list of integers"),
}


def load_config(path) -> RunConfig:
    """The RunConfig in the file, absent fields at their defaults; an unknown
    key or a mistyped or out-of-range field raises SchemaError naming it."""
    doc = _read_json(path)
    where = f"{path}: config"
    defaults = RunConfig()
    values = {f.name: _get(doc, f.name, _CONFIG_CHECKS[f.type], where,
                           getattr(defaults, f.name)) for f in dataclasses.fields(RunConfig)}
    for key in doc:
        if key not in values:
            raise SchemaError(f"{where}: unknown key {describe(key)}")
    try:
        return RunConfig(**values)
    except ValueError as e:  # a range check
        raise SchemaError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# Model serialization

def _curve_to_json(curve: PowerCurve) -> dict:
    return {"a": curve.a, "b": curve.b, "c": curve.c,
            "lo": curve.domain_lo, "hi": curve.domain_hi}


def _curve_from_json(obj, where) -> PowerCurve:
    a, b, c, lo, hi = [_get(obj, k, _NUMBER, where) for k in ("a", "b", "c", "lo", "hi")]
    return PowerCurve(a=a, b=b, c=c, domain_lo=lo, domain_hi=hi)


def _class_from_json(cid, rec, where) -> ClassModel:
    if not re.fullmatch(r"0|-?[1-9][0-9]*", cid):  # str(int(cid)) == cid: one key per class
        raise SchemaError(f"{where}: class key must be a canonical integer such as '7'")
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
    }


def model_from_json(doc, where="model") -> LocationModel:
    """The model in `doc`; any defect raises VersionError naming `where`.
    Keys it does not read, such as older versions' config echo, are ignored."""
    try:
        schema = _get(doc, "schema", _INT, "top level")
        if schema != MODEL_SCHEMA_VERSION:
            raise VersionError(f"{where}: unsupported model schema {schema!r},"
                               f" expected {MODEL_SCHEMA_VERSION}")
        cameras = _get(doc, "cameras", _OBJECT, "top level")
        prior = _get(doc, "class_prior", _OBJECT, "top level")
        return LocationModel(
            cameras={cam: {cm.class_id: cm for cm in (
                               _class_from_json(cid, rec, f"cameras[{cam!r}][{cid!r}]")
                               for cid, rec in _get(cameras, cam, _OBJECT, "cameras").items())}
                     for cam in cameras},
            class_prior=_get(prior, "probs", _NUMBERS, "class_prior"),
            prior_classes=tuple(_get(prior, "classes", _INTS, "class_prior")))
    except (SchemaError, TypeError, ValueError) as e:
        raise VersionError(f"{where}: malformed model document: {e}") from e


def save_model(model: LocationModel, path):
    _write_json(path, model_to_json(model))


def load_model(path) -> LocationModel:
    return model_from_json(_read_json(path), path)


# ---------------------------------------------------------------------------
# Augmented layouts

LAYOUT_SCHEMA_VERSION = 3
_LAYOUT_SCHEMA = (lambda v: _INT[0](v) and v == LAYOUT_SCHEMA_VERSION, str(LAYOUT_SCHEMA_VERSION))


def save_layout(aug: FrameAugmentation, path):
    """Write `aug` in fixed key order; mask paths relative to the layout's directory."""
    base = os.path.dirname(os.path.abspath(path))
    doc = {
        "schema": LAYOUT_SCHEMA_VERSION,
        "frame_id": aug.frame_id,
        "frame": list(aug.frame),
        "proposals": [
            {
                "index": p.provenance.index,
                "class": p.class_id,
                "d_sampled": p.d,
                "d": p.d_effective,
                "anchor": list(p.provenance.anchor_px),
                "attempts": p.provenance.attempts,
                "box": [p.box.cx, p.box.by, p.box.w, p.box.h],
                "patch": [p.patch.x0, p.patch.y0, p.patch.side],
                "show_prob": p.show_prob,
                "mask": None if p.mask_path is None else os.path.relpath(p.mask_path, base),
            }
            for p in aug.proposals
        ],
        "dropped": aug.dropped,
    }
    _write_json(path, doc, sort_keys=False)


def load_layout(path) -> FrameAugmentation:
    """The FrameAugmentation that save_layout wrote to `path`, every key
    checked. Each proposal's box must meet the layout's frame and its patch
    lie inside it, as augment writes them; a SchemaError names the file and
    the proposal's index otherwise."""
    doc = _read_json(path)
    where = f"{path}: layout"
    _get(doc, "schema", _LAYOUT_SCHEMA, where)
    frame_w, frame_h = _get(doc, "frame", _FRAME, where)
    base = os.path.dirname(path)
    proposals = []
    for i, rec in enumerate(_get(doc, "proposals", _LIST, where)):
        at = f"{path}: proposals[{i}]"
        mask = _get(rec, "mask", _PATH, at)
        p = PlacementProposal(
            class_id=_get_id(rec, "class", at),
            d=_get(rec, "d_sampled", _NUMBER, at),
            d_effective=_get(rec, "d", _NUMBER, at),
            box=BBox(*_get(rec, "box", _BOX, at)),
            show_prob=_get(rec, "show_prob", _NUMBER, at),
            provenance=Provenance(index=_get(rec, "index", _COUNT, at),
                                  attempts=_get(rec, "attempts", _SIZE, at),
                                  anchor_px=tuple(_get(rec, "anchor", _PIXEL, at))),
            patch=PatchRect(*_get(rec, "patch", _PATCH, at)),
            mask_path=None if mask is None else os.path.normpath(os.path.join(base, mask)),
        )
        x0, y0, side = rec["patch"]
        inside = 0 <= x0 <= frame_w - side and 0 <= y0 <= frame_h - side
        for ok, problem in ((clip_box(p.box, frame_w, frame_h) is not None,
                             "box does not intersect"),
                            (inside, "patch does not lie inside")):
            if not ok:
                raise SchemaError(f"{path}: proposal {p.provenance.index}: {problem}"
                                  f" the {frame_w}x{frame_h} frame")
        proposals.append(p)
    return FrameAugmentation(frame_id=_get(doc, "frame_id", _STR, where), frame=(frame_w, frame_h),
                             proposals=proposals, dropped=_get(doc, "dropped", _COUNT, where))


# ---------------------------------------------------------------------------
# Eval report

def save_report(report, json_path=None, text_path=None):
    """Write an evaluate.LayoutReport as sorted JSON, as its text table, or both."""
    if json_path is not None:
        _write_json(json_path, report.to_json())
    if text_path is not None:
        _atomic_write_bytes(text_path, report.to_text().encode())


# ---------------------------------------------------------------------------
# Overlay rendering

BACKGROUND_GRAY = 128
REAL_BOX_COLOR = (0, 0, 255)  # blue
PROPOSAL_COLOR = (0, 255, 0)  # green
STROKE = 2


def _draw_rect(img: np.ndarray, box: BBox, color):
    h, w = img.shape[:2]
    # an edge a stroke or more off the canvas draws nothing, clamped or not;
    # clamped, an edge at infinity converts to int
    x0, x1 = [int(round(min(max(v, -STROKE), w + STROKE))) for v in (box.x0, box.x1)]
    y0, y1 = [int(round(min(max(v, -STROKE), h + STROKE))) for v in (box.y0, box.y1)]
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
    _write_pnm(path, "P6", 255, img)


# ---------------------------------------------------------------------------
# Atomic writes

def _atomic_write_bytes(path, data: bytes):
    """Write `data` to a new file beside `path`, then rename it over `path`.
    The file is created with mode 0o666 less the umask, as open(path, "w")
    would create it."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
