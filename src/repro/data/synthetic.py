"""Dataset containers and domain-suite generation.

:class:`LabeledDataset` is the in-memory unit every other subsystem consumes
(clients hold one; evaluation protocols hold one per held-out domain).
:class:`DomainSuite` bundles the per-domain datasets of one benchmark plus
its metadata and the train/val/test domain split (IWildCam-style suites hold
disjoint domain sets for the three roles, matching WILDS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.content import ContentBank
from repro.data.styles import DomainStyle, render_images

__all__ = ["LabeledDataset", "DomainSuite", "generate_domain_dataset"]


@dataclass
class LabeledDataset:
    """Images with integer labels and the originating domain index per sample.

    ``images`` is NCHW float64; ``labels`` and ``domain_ids`` are 1-D int64.
    """

    images: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domain_ids = np.asarray(self.domain_ids, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {self.images.shape}")
        n = self.images.shape[0]
        if self.labels.shape != (n,) or self.domain_ids.shape != (n,):
            raise ValueError(
                f"labels/domain_ids must both have shape ({n},); got "
                f"{self.labels.shape} and {self.domain_ids.shape}"
            )

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """A new dataset containing the rows at ``indices`` (copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            images=self.images[indices].copy(),
            labels=self.labels[indices].copy(),
            domain_ids=self.domain_ids[indices].copy(),
        )

    @staticmethod
    def concatenate(datasets: list["LabeledDataset"]) -> "LabeledDataset":
        """Stack several datasets into one."""
        datasets = [d for d in datasets if len(d) > 0]
        if not datasets:
            raise ValueError("cannot concatenate zero non-empty datasets")
        return LabeledDataset(
            images=np.concatenate([d.images for d in datasets], axis=0),
            labels=np.concatenate([d.labels for d in datasets], axis=0),
            domain_ids=np.concatenate([d.domain_ids for d in datasets], axis=0),
        )

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Histogram of labels over ``num_classes`` bins."""
        return np.bincount(self.labels, minlength=num_classes)


def generate_domain_dataset(
    content_bank: ContentBank,
    style: DomainStyle,
    domain_id: int,
    samples_per_class: np.ndarray | int,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Render one domain: every class drawn through the domain's style.

    ``samples_per_class`` may be a scalar (balanced) or a per-class vector
    (long-tail domains, absent classes encoded as 0 — the IWildCam stand-in
    relies on this).
    """
    num_classes = content_bank.num_classes
    if np.isscalar(samples_per_class):
        counts = np.full(num_classes, int(samples_per_class), dtype=np.int64)
    else:
        counts = np.asarray(samples_per_class, dtype=np.int64)
        if counts.shape != (num_classes,):
            raise ValueError(
                f"samples_per_class must have {num_classes} entries, "
                f"got shape {counts.shape}"
            )
    if np.any(counts < 0):
        raise ValueError("samples_per_class must be non-negative")

    size = content_bank.image_size
    images = np.empty((int(counts.sum()), 3, size, size))
    stop = 0
    for class_id, count in enumerate(counts):
        if count == 0:
            continue
        content = content_bank.sample(class_id, int(count), rng)
        start, stop = stop, stop + int(count)
        images[start:stop] = render_images(content, style, rng)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    domain_ids = np.full(labels.shape[0], domain_id, dtype=np.int64)
    return LabeledDataset(images=images, labels=labels, domain_ids=domain_ids)


@dataclass
class DomainSuite:
    """A complete multi-domain benchmark.

    Attributes
    ----------
    name:
        Suite name (``synthetic_pacs`` etc.).
    num_classes / image_shape:
        Shared across all domains.
    domain_names:
        Index-aligned names for every domain in the suite.
    datasets:
        One :class:`LabeledDataset` per domain, aligned with ``domain_names``.
    train_domains / val_domains / test_domains:
        Role assignment by domain *index*.  PACS/Office-Home-style suites put
        every domain in ``train_domains`` and leave the split to the LODO /
        LTDO protocol; the IWildCam-style suite fixes disjoint sets.
    """

    name: str
    num_classes: int
    image_shape: tuple[int, int, int]
    domain_names: list[str]
    datasets: list[LabeledDataset]
    train_domains: list[int] = field(default_factory=list)
    val_domains: list[int] = field(default_factory=list)
    test_domains: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.domain_names) != len(self.datasets):
            raise ValueError("domain_names and datasets must align")
        for name, dataset in zip(self.domain_names, self.datasets):
            if len(dataset) and dataset.image_shape != self.image_shape:
                raise ValueError(
                    f"domain {name} has image shape {dataset.image_shape}, "
                    f"suite expects {self.image_shape}"
                )

    @property
    def num_domains(self) -> int:
        return len(self.domain_names)

    def domain_index(self, name: str) -> int:
        """Index of the domain called ``name``."""
        try:
            return self.domain_names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown domain {name!r}; have {self.domain_names}"
            ) from None

    def dataset_for(self, name_or_index: str | int) -> LabeledDataset:
        """Dataset of one domain by name or index."""
        if isinstance(name_or_index, str):
            return self.datasets[self.domain_index(name_or_index)]
        return self.datasets[int(name_or_index)]

    def merged(self, domain_indices: list[int]) -> LabeledDataset:
        """Union of several domains' data (e.g. the LODO training pool)."""
        if not domain_indices:
            raise ValueError("domain_indices must not be empty")
        return LabeledDataset.concatenate(
            [self.datasets[i] for i in domain_indices]
        )
