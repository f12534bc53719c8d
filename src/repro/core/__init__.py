"""``repro.core`` — the PARDON method (the paper's contribution).

Local style calculation (FINCH over per-sample styles), server-side
interpolation-style extraction (FINCH + median), and contrastive local
training on style-transferred positives, packaged as a
:class:`repro.fl.Strategy`.
"""

from repro.core.config import PardonConfig
from repro.core.interpolation import (
    cluster_client_styles,
    extract_interpolation_style,
)
from repro.core.local_style import cluster_styles_of_features, compute_client_style
from repro.core.pardon import PardonStrategy

__all__ = [
    "PardonConfig",
    "PardonStrategy",
    "compute_client_style",
    "cluster_styles_of_features",
    "extract_interpolation_style",
    "cluster_client_styles",
]
