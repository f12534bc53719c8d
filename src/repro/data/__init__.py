"""``repro.data`` — synthetic multi-domain datasets and FL partitioning.

Substitutes for PACS / Office-Home / IWildCam (no dataset downloads in the
sandbox; see README.md, "Architecture map"): shared class content rendered
through per-domain styles, plus the domain-based client-heterogeneity
partitioner of Bai et al. that the paper's experiments are built on.
"""

from repro.data.content import ContentBank, smooth_noise
from repro.data.styles import DomainStyle, render_images
from repro.data.synthetic import (
    DomainSuite,
    LabeledDataset,
    RenderedDomains,
)
from repro.data.registry import (
    synthetic_domain_sweep,
    synthetic_iwildcam,
    synthetic_office_home,
    synthetic_pacs,
    synthetic_skew,
)
from repro.data.partition import (
    ClientPartition,
    SuiteRows,
    lodo_splits,
    ltdo_splits,
    partition_clients,
)

__all__ = [
    "ContentBank",
    "smooth_noise",
    "DomainStyle",
    "render_images",
    "DomainSuite",
    "LabeledDataset",
    "RenderedDomains",
    "synthetic_pacs",
    "synthetic_office_home",
    "synthetic_iwildcam",
    "synthetic_domain_sweep",
    "synthetic_skew",
    "ClientPartition",
    "SuiteRows",
    "partition_clients",
    "lodo_splits",
    "ltdo_splits",
]
