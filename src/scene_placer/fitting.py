"""Fitting of the factorized location model from annotated training data.

Per (camera, class) we fit: a log-normal over object disparities, power
curves a + b * x**c interpolating the log-height mean/std across disparity
windows, and an empirical aspect-ratio histogram. Classes with too few
samples per camera fall back to a model pooled over all cameras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DegenerateFit, InsufficientData, InvalidSample, UnknownClass
from .geometry import DepthGrid

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
    fallback: bool = False


@dataclass(frozen=True)
class LocationModel:
    """Fitted model: per-camera class models plus the class prior."""

    cameras: dict  # camera_id -> {class_id -> ClassModel}; "*" holds pooled fits
    class_prior: np.ndarray  # probability of each entry of prior_classes
    prior_classes: tuple
    config: RunConfig

    def __post_init__(self):
        probs = _probabilities(self.class_prior, "class_prior")
        if len(probs) != len(self.prior_classes):
            raise ValueError(f"class_prior has {len(probs)} probabilities for "
                             f"{len(self.prior_classes)} prior classes")
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


def depth_height_profile(objects, window=2.0, stride=1.0, min_count=10):
    """Log-height statistics in sliding depth windows.

    objects: sequence of (depth, height) pairs. Returns a list of
    (d_center, mu_log_h, sigma_log_h, count) for every window center on a
    stride grid spanning the observed depth range, omitting windows with
    fewer than min_count members.
    """
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be > 0")
    arr = np.asarray(objects, dtype=np.float64).reshape(-1, 2)
    if arr.size == 0:
        raise InsufficientData("no (depth, height) observations")
    d = arr[:, 0]
    logh = np.log(arr[:, 1])
    lo, hi = d.min(), d.max()
    n_centers = int(math.floor((hi - lo) / stride + 1e-9)) + 1
    centers = lo + stride * np.arange(n_centers)
    if centers[-1] + 1e-9 < hi:
        centers = np.append(centers, centers[-1] + stride)
    out = []
    half = window / 2.0
    for c in centers:
        sel = np.abs(d - c) <= half
        n = int(sel.sum())
        if n < min_count:
            continue
        vals = logh[sel]
        out.append((float(c), float(vals.mean()), float(vals.std(ddof=0)), n))
    return out


def fit_power_curve(points) -> PowerCurve:
    """Fit y = a + b * x**c by grid search over c with closed-form (a, b).

    The grid runs over [0.05, 4.0] in steps of 0.005; at each c the best
    (a, b) come from linear least squares. Deterministic: the smallest c
    wins ties.
    """
    arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if arr.shape[0] < 3:
        raise InsufficientData(f"need >= 3 points, got {arr.shape[0]}")
    x, y = arr[:, 0], arr[:, 1]
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


def object_depth(grid: DepthGrid, cx: float, by: float) -> float:
    """Disparity at a box's bottom-center: median of the 3x3 neighborhood."""
    ix = min(max(int(math.floor(cx)), 0), grid.width - 1)
    iy = min(max(int(math.floor(by - 1e-9)), 0), grid.height - 1)
    y0, y1 = max(iy - 1, 0), min(iy + 2, grid.height)
    x0, x1 = max(ix - 1, 0), min(ix + 2, grid.width)
    return float(np.median(grid.values[y0:y1, x0:x1]))


def _fit_class(class_id, depths, heights, ratios, config, fallback=False):
    depths = np.asarray(depths, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    depth_params = fit_lognormal(depths)
    pairs = np.stack([depths, heights], axis=1)
    profile = depth_height_profile(
        pairs,
        window=config.window,
        stride=config.stride,
        min_count=min(config.min_window_count, len(depths)),
    )
    if not profile:
        # samples too spread out for the usual window occupancy threshold
        profile = depth_height_profile(
            pairs, window=config.window, stride=config.stride, min_count=1
        )
    if len(profile) >= 3:
        pts_mu = [(c, mu) for c, mu, _, _ in profile]
        pts_sigma = [(c, sig) for c, _, sig, _ in profile]
        try:
            mu_curve = fit_power_curve(pts_mu)
            sigma_curve = fit_power_curve(pts_sigma)
        except DegenerateFit:
            mu_curve, sigma_curve = _constant_curves(profile)
    else:
        mu_curve, sigma_curve = _constant_curves(profile)
    return ClassModel(
        class_id=class_id,
        depth=depth_params,
        height_mu_curve=mu_curve,
        height_sigma_curve=sigma_curve,
        aspect=build_aspect_histogram(ratios, config.n_bins),
        sample_count=len(depths),
        fallback=fallback,
    )


def _constant_curves(profile):
    # Too few usable windows for a 3-parameter fit: fall back to constants.
    mus = np.array([mu for _, mu, _, _ in profile])
    sigmas = np.array([s for _, _, s, _ in profile])
    lo = min(c for c, _, _, _ in profile)
    hi = max(c for c, _, _, _ in profile)
    if lo == hi:
        hi = lo + 1e-6
    mu_curve = PowerCurve(a=float(mus.mean()), b=0.0, c=1.0, domain_lo=lo, domain_hi=hi)
    sigma_curve = PowerCurve(a=float(sigmas.mean()), b=0.0, c=1.0, domain_lo=lo, domain_hi=hi)
    return mu_curve, sigma_curve


def fit_model(dataset, depth_of, config: RunConfig):
    """Fit a LocationModel from annotated frames.

    depth_of maps an AnnotatedFrame to its DepthGrid. Returns
    (model, warnings): classes below min_samples on a camera fall back to the
    all-camera pooled fit; classes that are still too small are excluded and
    reported in the warnings list.
    """
    if not dataset:
        raise InsufficientData("empty dataset")
    per_cam = {}  # camera -> class -> [(d, h, w/h)]
    pooled = {}  # class -> [(d, h, w/h)]
    for frame in sorted(dataset, key=lambda f: str(f.frame_id)):
        grid = depth_of(frame)
        for ann in frame.annotations:
            d = object_depth(grid, ann.box.cx, ann.box.by)
            if d <= 0:
                d = 1e-6  # disparity 0 breaks the log fit; clamp
            rec = (d, ann.box.h, ann.box.w / ann.box.h)
            per_cam.setdefault(frame.camera_id, {}).setdefault(ann.class_id, []).append(rec)
            pooled.setdefault(ann.class_id, []).append(rec)

    warnings = []
    pooled_models = {}
    for class_id in sorted(pooled):
        recs = pooled[class_id]
        if len(recs) < max(config.min_samples, 2):
            warnings.append(
                f"class {class_id}: only {len(recs)} samples overall, excluded"
            )
            continue
        d, h, r = zip(*recs)
        pooled_models[class_id] = _fit_class(class_id, d, h, r, config, fallback=True)

    cameras = {}
    for camera_id in sorted(per_cam, key=str):
        cam_models = {}
        for class_id in sorted(per_cam[camera_id]):
            recs = per_cam[camera_id][class_id]
            if len(recs) >= config.min_samples:
                d, h, r = zip(*recs)
                cam_models[class_id] = _fit_class(class_id, d, h, r, config)
            elif class_id in pooled_models:
                cam_models[class_id] = pooled_models[class_id]
                warnings.append(
                    f"camera {camera_id} class {class_id}: {len(recs)} samples,"
                    f" using pooled fallback"
                )
            # else: already warned at pooled level
        cameras[camera_id] = cam_models
    cameras["*"] = pooled_models  # pooled fallback for cameras unseen at fit time

    if config.augmentable_classes is not None:
        prior_classes = tuple(sorted(config.augmentable_classes))
    else:
        prior_classes = tuple(sorted(pooled_models))
    if not prior_classes:
        raise InsufficientData("no class has enough samples to fit")
    if config.class_prior == "frequency":
        counts = np.array([len(pooled.get(c, [])) for c in prior_classes], dtype=np.float64)
        probs = counts / counts.sum()
    else:
        probs = np.full(len(prior_classes), 1.0 / len(prior_classes))

    model = LocationModel(
        cameras=cameras,
        class_prior=probs,
        prior_classes=prior_classes,
        config=config,
    )
    return model, warnings
