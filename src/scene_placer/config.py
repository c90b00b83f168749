"""Run configuration shared by fitting, sampling, and the CLI."""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass, field

from .errors import describe

CLASS_PRIORS = ("uniform", "frequency")


def _scales_depth(v) -> bool:
    """Depth grids are read as their 16-bit values times float32(v): the
    scale must not round to 0 or a subnormal, nor overflow at 65535."""
    if not 0 < v < 2.0 ** 113:  # 65535 times 2**113 overflows float32 already
        return False
    scale = struct.unpack("f", struct.pack("f", v))[0]
    # 65535 * scale is exact; float32 rounds it to inf from half an ulp past its max
    return scale >= 2.0 ** -126 and 65535 * scale < (2 - 2.0 ** -24) * 2.0 ** 127


# per RunConfig field with restricted values: (accepts the value, which
# values); each rejects NaN, and the positive floats reject infinity
_RANGES = {
    **dict.fromkeys(("show_prob", "min_visible_frac", "min_visible_composite"),
                    (lambda v: 0 <= v <= 1, "in [0, 1]")),
    **dict.fromkeys(("tau", "window", "stride"), (lambda v: 0 < v < math.inf, "finite and > 0")),
    "depth_scale": (_scales_depth, "> 0, a normal float32, and 65535 times it finite in float32"),
    **dict.fromkeys(("max_attempts", "n_bins", "min_window_count"), (lambda v: v >= 1, ">= 1")),
    "n_objects": (lambda v: v >= 0, ">= 0"),
    "min_samples": (lambda v: v >= 2, ">= 2"),  # a log-normal fit needs two samples
    "class_prior": (lambda v: v in CLASS_PRIORS, f"one of {CLASS_PRIORS}"),
    # labels are uint8: a class outside 0..255 would silently match nothing
    "drivable_classes": (lambda v: len(v) > 0 and all(0 <= c <= 255 for c in v),
                         "a non-empty list of labels in 0..255"),
    # a repeated class would take a double share of the uniform prior
    "augmentable_classes": (lambda v: v is None or 0 < len(v) == len(set(v)),
                            "null or a non-empty list of distinct class ids"),
}


@dataclass
class RunConfig:
    """All tunable knobs with their defaults, range-checked on construction.

    Types are checked where values enter the program: a --config file by
    dataset_io.load_config, flags by argparse. A model file holds none of
    these values: each command takes them from its own config and flags.

    Defaults follow the reference protocol: band threshold 5, 12 objects per
    frame shown with probability 0.5, depth windows of width 2 on a stride-1
    grid, 50 aspect-ratio bins.
    """

    drivable_classes: list[int] = field(default_factory=lambda: [1, 2, 3])
    tau: float = 5.0
    n_objects: int = 12
    show_prob: float = 0.5
    n_bins: int = 50
    window: float = 2.0
    stride: float = 1.0
    min_window_count: int = 10
    min_samples: int = 30
    min_visible_frac: float = 0.25
    max_attempts: int = 25
    seed: int = 0
    depth_scale: float = 1.0 / 256.0
    min_visible_composite: float = 0.2
    class_prior: str = "uniform"  # one of CLASS_PRIORS
    augmentable_classes: list[int] | None = None

    def __post_init__(self):
        for name, (accepts, expected) in _RANGES.items():
            value = getattr(self, name)
            if not accepts(value):
                raise ValueError(f"{name!r} must be {expected}, got {describe(value)}")

    def replace(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **kwargs)
