"""Fitting of the factorized location model from annotated training data.

Per (camera, class) we fit: a log-normal over object disparities, power
curves a + b * x**c interpolating the log-height mean/std across disparity
windows, and an empirical aspect-ratio histogram. A camera has an entry
only for the classes it has enough samples of; `LocationModel.class_model`
gives it the fit pooled over all cameras (the reserved "*" entry) for any
other. The class prior draws only classes with a pooled fit.

An object's disparity is read by `object_depth` from the depth grid at its
box's bottom-center, mapped from frame to grid pixels by the frame-to-grid
scale. Its one caller, `object_columns`, gives the fit and the evaluation
every box as columns, probing all boxes on one grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .config import RunConfig
from .errors import DegenerateFit, DimensionMismatch, InsufficientData, InvalidSample, UnknownClass
from .geometry import DepthGrid, grid_scale

# Exponent grid for the power-curve search; covers decreasing and strongly
# convex profiles while staying fully deterministic.
POWER_C_LO = 0.05
POWER_C_HI = 4.0
POWER_C_STEP = 0.005

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LogNormalParams:
    """Mean and std of the log-values (MLE)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("log-normal parameters must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class PowerCurve:
    """y(x) = a + b * x**c, fitted on x in [domain_lo, domain_hi]."""

    a: float
    b: float
    c: float
    domain_lo: float
    domain_hi: float

    def __post_init__(self):
        if not 0 < self.domain_lo <= self.domain_hi:  # x**c is real for x > 0
            raise ValueError(f"power curve domain [{self.domain_lo}, {self.domain_hi}]"
                             f" must have 0 < lo <= hi")

    def __call__(self, x: float) -> float:
        return self.a + self.b * x**self.c

    def eval_clamped(self, x: float) -> float:
        return self(min(max(x, self.domain_lo), self.domain_hi))


def _probabilities(values, name: str) -> np.ndarray:
    """`values` as a read-only 1-D float64 array, checked to be a distribution."""
    probs = np.asarray(values, dtype=np.float64)
    if probs.ndim != 1 or np.any(probs < 0) or not abs(probs.sum() - 1.0) <= 1e-9:
        raise ValueError(f"{name} must be a 1-D list of probabilities >= 0 summing to 1")
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: n+1 strictly increasing edges, n probabilities."""

    edges: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        probs = _probabilities(self.probs, "histogram probs")
        if edges.shape != (len(probs) + 1,) or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram edges must be len(probs) + 1 strictly increasing values")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class ClassModel:
    """All fitted conditionals for one object class (on one camera)."""

    class_id: int
    depth: LogNormalParams
    height_mu_curve: PowerCurve
    height_sigma_curve: PowerCurve
    aspect: Histogram
    sample_count: int


@dataclass(frozen=True)
class LocationModel:
    """Fitted model: per-camera class models plus the class prior."""

    cameras: dict  # camera_id -> {class_id -> ClassModel}; "*" holds pooled fits
    class_prior: np.ndarray  # probability of each entry of prior_classes
    prior_classes: tuple

    def __post_init__(self):
        probs = _probabilities(self.class_prior, "class_prior")
        if len(probs) != len(self.prior_classes):
            raise ValueError(f"class_prior has {len(probs)} probabilities for "
                             f"{len(self.prior_classes)} prior classes")
        unfitted = sorted(set(self.prior_classes) - set(self.cameras.get("*", {})))
        if unfitted:
            raise ValueError(f"class_prior draws classes {unfitted},"
                             f" which have no pooled ('*') fit")
        object.__setattr__(self, "class_prior", probs)

    def class_model(self, camera_id, class_id) -> ClassModel:
        """The camera's fit for the class, else the pooled one."""
        got = self.cameras.get(camera_id, {}).get(class_id)
        if got is None:
            got = self.cameras.get("*", {}).get(class_id)
        if got is None:
            raise UnknownClass(f"no fitted model for class {class_id}")
        return got


def fit_lognormal(samples) -> LogNormalParams:
    """MLE log-normal fit: mean and population std of the log data."""
    s = np.asarray(samples, dtype=np.float64)
    if s.size < 2:
        raise InsufficientData(f"need >= 2 samples, got {s.size}")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise InvalidSample("log-normal samples must be positive and finite")
    logs = np.log(s)
    return LogNormalParams(mu=float(logs.mean()), sigma=float(logs.std(ddof=0)))


def depth_height_profile(depths, heights, window, stride):
    """Log-height statistics in sliding depth windows.

    depths, heights: 1-D arrays, one entry per object. Windows are centred
    on a stride grid spanning the observed depth range. Returns four 1-D
    arrays over the non-empty windows: centre, mean and std of log-height,
    and count; callers pick the windows with enough members by count.
    """
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be > 0")
    d = np.asarray(depths, dtype=np.float64)
    if d.size == 0:
        raise InsufficientData("no (depth, height) observations")
    logh = np.log(np.asarray(heights, dtype=np.float64))
    lo, hi = d.min(), d.max()
    n_centers = int(math.floor((hi - lo) / stride + 1e-9)) + 1
    centers = lo + stride * np.arange(n_centers)
    if centers[-1] + 1e-9 < hi:
        centers = np.append(centers, centers[-1] + stride)
    out = []
    half = window / 2.0
    for c in centers:
        vals = logh[np.abs(d - c) <= half]
        if vals.size:
            out.append((c, vals.mean(), vals.std(ddof=0), vals.size))
    # the window centred on the smallest depth holds it: `out` is never empty
    return tuple(map(np.array, zip(*out)))


def fit_power_curve(x, y) -> PowerCurve:
    """Fit y = a + b * x**c by grid search over c with closed-form (a, b).

    x, y: 1-D arrays of one length. The grid runs over [0.05, 4.0] in steps
    of 0.005; at each c the best (a, b) come from linear least squares.
    Deterministic: the smallest c wins ties.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise InsufficientData(f"need >= 3 points, got {x.size}")
    if np.any(x <= 0):
        raise InvalidSample("x values must be positive")
    n = float(len(x))
    n_steps = int(round((POWER_C_HI - POWER_C_LO) / POWER_C_STEP)) + 1
    cs = POWER_C_LO + POWER_C_STEP * np.arange(n_steps)

    t = x[None, :] ** cs[:, None]  # (n_c, n)
    st = t.sum(axis=1)
    stt = (t * t).sum(axis=1)
    sy = y.sum()
    sty = (t * y[None, :]).sum(axis=1)
    det = n * stt - st * st
    valid = det > 1e-12 * np.maximum(n * stt, 1.0)
    if not np.any(valid):
        raise DegenerateFit("all x**c columns are constant (x values equal?)")
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (n * sty - st * sy) / det
        a = (sy - b * st) / n
    sse = ((y[None, :] - a[:, None] - b[:, None] * t) ** 2).sum(axis=1)
    sse = np.where(valid, sse, np.inf)
    best = int(np.argmin(sse))  # argmin takes the first (smallest c) on ties
    return PowerCurve(
        a=float(a[best]),
        b=float(b[best]),
        c=float(cs[best]),
        domain_lo=float(x.min()),
        domain_hi=float(x.max()),
    )


def build_aspect_histogram(ratios, n_bins: int) -> Histogram:
    """Uniform-width empirical histogram over [min, max] of the ratios."""
    r = np.asarray(ratios, dtype=np.float64)
    if r.size < 1:
        raise InsufficientData("need at least one ratio")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if np.any(r <= 0):
        raise InvalidSample("aspect ratios must be positive")
    lo, hi = float(r.min()), float(r.max())
    if hi - lo < 1e-12:
        hi = lo + 1e-6  # degenerate span widened so edges stay increasing
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(r, bins=edges)  # top edge inclusive
    return Histogram(edges=edges, probs=counts / counts.sum())


def object_depth(grid: DepthGrid, cx, by) -> np.ndarray:
    """Disparities at boxes' bottom-centers, one per box.

    cx, by: 1-D arrays of bottom-centers in grid pixel coordinates (frame
    coordinates divided by the frame-to-grid `grid_scale`). Each probe takes
    the median of the 3x3 neighborhood of its pixel, clipped to the grid; a
    bottom-center off the grid probes the nearest edge pixel, whose window
    holds 1 to 6 cells. Returns a float64 array holding, bit for bit, what
    ``np.median`` gives on each clipped float32 window.
    """
    h, w = grid.values.shape
    window = np.arange(-1, 2)  # row and column offsets of the 3x3 window
    ix = np.clip(np.floor(np.asarray(cx, dtype=np.float64)), 0, w - 1).astype(np.intp)
    iy = np.clip(np.floor(np.asarray(by, dtype=np.float64) - 1e-9), 0, h - 1).astype(np.intp)
    ys = iy[:, None] + window
    xs = ix[:, None] + window
    inside = ((ys >= 0) & (ys < h))[:, :, None] & ((xs >= 0) & (xs < w))[:, None, :]
    cells = grid.values[np.clip(ys, 0, h - 1)[:, :, None], np.clip(xs, 0, w - 1)[:, None, :]]
    cells = np.where(inside, cells, np.float32(np.nan)).reshape(len(iy), window.size ** 2)
    cells.sort(axis=1)  # cells outside the grid (NaN) sort last
    n = inside.sum(axis=(1, 2))
    rows = np.arange(len(n))
    # np.median's float32 arithmetic: the middle cell, or the mean of the two
    mid = (cells[rows, (n - 1) // 2] + cells[rows, n // 2]) / np.float32(2)
    return mid.astype(np.float64)


def object_columns(frames, read_depth):
    """Every box of `frames` as columns, in frame order: (class ids,
    disparities, heights, w/h ratios), each of shape (n,).

    Frames are grouped by `depth_path`: each path is read once, by
    `read_depth(path)`, in order of first use, and all its boxes are probed
    in one `object_depth` call, each frame's bottom-centers mapped from frame
    to grid pixels by its own `grid_scale`. One grid is held at a time. A
    frame without a path is never read; its disparities are NaN. A frame
    without boxes is never read or scale-checked.
    """
    class_ids = np.concatenate([np.empty(0, np.int64)] + [fr.class_ids for fr in frames])
    boxes = np.concatenate([np.empty((0, 4))] + [fr.boxes for fr in frames])
    bottoms = boxes[:, :2].copy()  # bottom-centers, in grid pixels once probed
    on_path = {}  # depth path -> [(frame, slice of its boxes)], in order of first use
    start = 0
    for fr in frames:
        stop = start + fr.class_ids.size
        if fr.depth_path is not None and stop > start:
            on_path.setdefault(fr.depth_path, []).append((fr, slice(start, stop)))
        start = stop
    depths = np.full(len(boxes), np.nan)
    for path, members in on_path.items():
        grid = read_depth(path)
        for fr, box_slice in members:
            try:
                bottoms[box_slice] /= grid_scale(fr.width, fr.height, grid)
            except DimensionMismatch as e:
                raise DimensionMismatch(f"frame {fr.frame_id}: {e}") from None
        rows = np.concatenate([np.arange(s.start, s.stop) for _, s in members])
        depths[rows] = object_depth(grid, *bottoms[rows].T)
        del grid  # one grid at a time: drop it before the next read
    return class_ids, depths, boxes[:, 3], boxes[:, 2] / boxes[:, 3]


def _fit_class(class_id, depths, heights, ratios, config):
    depth_params = fit_lognormal(depths)
    centres, mus, sigmas, counts = depth_height_profile(depths, heights, config.window,
                                                        config.stride)
    # the windows that reach the occupancy threshold, or every window when
    # the samples are too spread out for any to reach it
    full = counts >= min(config.min_window_count, len(depths))
    if full.any():
        centres, mus, sigmas = centres[full], mus[full], sigmas[full]
    try:  # centres are > 0; fewer than 3 windows raise InsufficientData
        mu_curve = fit_power_curve(centres, mus)
        sigma_curve = fit_power_curve(centres, sigmas)
    except (InsufficientData, DegenerateFit):  # constant curves over the windows' span
        lo, hi = float(centres.min()), float(centres.max())
        if lo == hi:
            hi = lo + 1e-6
        mu_curve, sigma_curve = [PowerCurve(a=float(v.mean()), b=0.0, c=1.0, domain_lo=lo,
                                            domain_hi=hi) for v in (mus, sigmas)]
    return ClassModel(
        class_id=class_id,
        depth=depth_params,
        height_mu_curve=mu_curve,
        height_sigma_curve=sigma_curve,
        aspect=build_aspect_histogram(ratios, config.n_bins),
        sample_count=len(depths),
    )


def fit_model(dataset, read_depth, config: RunConfig):
    """Fit a LocationModel from annotated frames.

    read_depth maps a `depth_path` to its DepthGrid; the boxes are read
    through object_columns. Returns (model, warnings): boxes on disparity
    <= 0 and classes below min_samples overall are left out; a camera has an
    entry only for the classes it has min_samples of. The prior draws the
    augmentable classes (all fitted ones when None); InsufficientData names
    any without a fit, or the first frame with boxes but no depth path.
    Warnings give counts, fallbacks and exclusions. Each class is fitted on
    its boxes in frame order (frames sorted by str(id)).
    """
    if not dataset:
        raise InsufficientData("empty dataset")
    frames = sorted(dataset, key=lambda f: str(f.frame_id))
    camera_ids = sorted({fr.camera_id for fr in frames}, key=str)
    if "*" in camera_ids:
        raise ValueError("camera id '*' is reserved for the fits pooled over all cameras")
    for fr in frames:
        if fr.depth_path is None and fr.class_ids.size:
            raise InsufficientData(f"frame {fr.frame_id} has no depth path")
    class_ids, depths, heights, ratios = object_columns(frames, read_depth)
    camera_of = np.repeat([camera_ids.index(fr.camera_id) for fr in frames],
                          [fr.class_ids.size for fr in frames])
    kept = depths > 0  # the log-normal depth fit has no place for log(0)

    def fit(class_id, sel):
        return _fit_class(class_id, depths[sel], heights[sel], ratios[sel], config)

    warnings = []
    pooled_models = {}
    # sorted(set()), not np.unique: its first call in a process imports numpy.ma (5 ms)
    for class_id in sorted(set(class_ids.tolist())):
        of_class = class_ids == class_id
        n_bad = int(np.count_nonzero(of_class & ~kept))
        if n_bad:
            warnings.append(f"class {class_id}: {n_bad} samples on"
                            f" disparity <= 0, excluded from the fit")
        n_kept = int(np.count_nonzero(of_class & kept))
        if n_kept < config.min_samples:
            warnings.append(f"class {class_id}: only {n_kept} samples overall, excluded")
            continue
        pooled_models[class_id] = fit(class_id, of_class & kept)

    prior_classes = tuple(sorted(pooled_models if config.augmentable_classes is None
                                 else config.augmentable_classes))
    if not prior_classes:
        raise InsufficientData("no class has enough samples to fit")
    unfitted = [c for c in prior_classes if c not in pooled_models]
    if unfitted:
        raise InsufficientData(f"augmentable classes {unfitted} have no fit: fewer than"
                               f" min_samples={config.min_samples} samples overall")
    counts = np.array([pooled_models[c].sample_count if config.class_prior == "frequency"
                       else 1 for c in prior_classes], dtype=np.float64)

    cameras = {}
    for k, camera_id in enumerate(camera_ids):
        on_camera = kept & (camera_of == k)
        for class_id in sorted(set(class_ids[on_camera].tolist())):
            sel = on_camera & (class_ids == class_id)
            n = int(np.count_nonzero(sel))
            if n >= config.min_samples:
                cameras.setdefault(camera_id, {})[class_id] = fit(class_id, sel)
            elif class_id in pooled_models:  # class_model finds the pooled fit
                warnings.append(
                    f"camera {camera_id} class {class_id}: {n} samples,"
                    f" using pooled fallback"
                )
            # else: already warned at pooled level
    cameras["*"] = pooled_models  # for every camera without its own fit of a class

    model = LocationModel(
        cameras=cameras,
        class_prior=counts / counts.sum(),
        prior_classes=prior_classes,
    )
    return model, warnings
