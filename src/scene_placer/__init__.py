"""Scene-aware probabilistic object placement for detection datasets.

Fits per-(camera, class) distributions of object depth, height, and aspect
ratio from annotated frames, then ancestrally samples new object placements
constrained to drivable-space placement bands.
"""

from .config import RunConfig
from .geometry import (
    BandIndex,
    BBox,
    DepthGrid,
    DrivableMask,
    LabelGrid,
    PatchRect,
    clip_box,
    closest_allowed_depth,
    crop_geometry,
    drivable_mask,
    placement_band,
)
from .fitting import (
    ClassModel,
    Histogram,
    LocationModel,
    LogNormalParams,
    PowerCurve,
    build_aspect_histogram,
    depth_height_profile,
    fit_lognormal,
    fit_model,
    fit_power_curve,
)
from .sampler import (
    FrameAugmentation,
    PlacementProposal,
    SceneContext,
    augment_frame,
    propose,
    sample_class,
    sample_depth,
    sample_height,
    sample_location,
    sample_width,
    substream,
)
from .masks import (
    CompositePlan,
    InstanceMask,
    composite_masks,
    composite_order,
    refine_bbox,
    refine_layout,
    visibility_filter,
)
from .evaluate import ks_statistic, layout_report

__version__ = "0.1.0"
