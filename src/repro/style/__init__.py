"""``repro.style`` — the AdaIN style-transfer substrate.

Frozen public encoders (the pre-trained-VGG substitute), style statistics,
and AdaIN re-styling in feature and image space.  See README.md
("Architecture map") for the substitution rationale.
"""

from repro.style.encoder import (
    FrozenConvEncoder,
    InvertibleEncoder,
    depth_to_space,
    space_to_depth,
)
from repro.style.adain import (
    StyleVector,
    adain,
    apply_style_to_images,
    per_sample_style_stats,
    pooled_style,
)

__all__ = [
    "InvertibleEncoder",
    "FrozenConvEncoder",
    "space_to_depth",
    "depth_to_space",
    "StyleVector",
    "per_sample_style_stats",
    "pooled_style",
    "adain",
    "apply_style_to_images",
]
