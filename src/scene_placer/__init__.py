"""Scene-aware probabilistic object placement for detection datasets.

Fits per-(camera, class) distributions of object depth, height, and aspect
ratio from annotated frames, then ancestrally samples new object placements
constrained to drivable-space placement bands. Each name is imported from its
module, as in `scene_placer.fitting.fit_model`; the package binds none.
"""

__version__ = "0.1.0"
