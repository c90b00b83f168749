"""Run configuration shared by fitting, sampling, and the CLI."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field


CLASS_PRIORS = ("uniform", "frequency")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(c) for c in v)


# per annotation of a RunConfig field: (accepts the JSON value, what it must be)
_FIELD_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[int]": (_is_int_list, "a list of integers"),
    "list[int] | None": (lambda v: v is None or _is_int_list(v), "null or a list of integers"),
}

# per RunConfig field with restricted values: (accepts the value, which
# values); each rejects NaN
_RANGES = {
    **dict.fromkeys(("show_prob", "min_visible_frac", "min_visible_composite"),
                    (lambda v: 0 <= v <= 1, "in [0, 1]")),
    **dict.fromkeys(("tau", "window", "stride", "depth_scale"), (lambda v: v > 0, "> 0")),
    **dict.fromkeys(("max_attempts", "n_bins", "min_window_count"), (lambda v: v >= 1, ">= 1")),
    "n_objects": (lambda v: v >= 0, ">= 0"),
    "min_samples": (lambda v: v >= 2, ">= 2"),  # a log-normal fit needs two samples
    "class_prior": (lambda v: v in CLASS_PRIORS, f"one of {CLASS_PRIORS}"),
}
_ANY = (lambda v: True, "")


@dataclass
class RunConfig:
    """All tunable knobs with their defaults, type- and range-checked on
    construction (so in from_file, replace and the model's config echo).

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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for accepts, expected in (_FIELD_CHECKS[f.type], _RANGES.get(f.name, _ANY)):
                if not accepts(value):
                    raise ValueError(f"config field {f.name!r} must be {expected}, got {value!r}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in JSON file `path`; a ValueError names the file."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = json.load(f)
            if not isinstance(raw, dict):
                raise ValueError("config must be a JSON object")
            unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            return cls(**raw)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e

    def replace(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
