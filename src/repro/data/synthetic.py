"""Dataset containers and domain-suite generation.

:class:`LabeledDataset` is the in-memory unit every other subsystem consumes
(clients hold one; evaluation protocols hold one per held-out domain).
:class:`DomainSuite` bundles the per-domain datasets of one benchmark plus
its metadata and the train/val/test domain split (IWildCam-style suites hold
disjoint domain sets for the three roles, matching WILDS).

A generated suite renders nothing up front: its domains are
:class:`RenderedDomains`, each domain's images rendered when they are first
read and kept only while something reads them (see that class).  Lengths
and labels follow from the per-class counts, so a suite can be partitioned
without rendering a pixel.
"""

from __future__ import annotations

import hashlib
import math
import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.content import ContentBank
from repro.data.styles import DomainStyle, render_images

__all__ = [
    "LabeledDataset",
    "DomainSuite",
    "RenderedDomains",
    "class_counts",
    "render_domain",
]


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
        return int(self.labels.shape[0])

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """A new dataset containing the rows at ``indices``: one fresh copy
        of each array (fancy indexing already copies), independent of this
        dataset."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            images=self.images[indices],
            labels=self.labels[indices],
            domain_ids=self.domain_ids[indices],
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

    def pin(self) -> tuple:
        """The rendered domains this dataset reads its images from;
        holding the result keeps them rendered.  A dataset that holds its
        own arrays reads none."""
        return ()

    def hold(self) -> "LabeledDataset":
        """Keep the domains :meth:`pin` names rendered for as long as this
        dataset lives (nothing to do for one that holds its own arrays)."""
        return self

    def image_rows(self):
        """The images as a trainer reads them, a batch of rows at a time:
        an array-like with ``len``, ``shape``, ``dtype``, indexing and
        ndarray's ``take`` (here the images themselves)."""
        return self.images


def class_counts(
    num_classes: int, samples_per_class: "np.ndarray | int"
) -> np.ndarray:
    """The per-class sample counts of one domain, as an int64 vector.

    ``samples_per_class`` may be a scalar (balanced) or a per-class vector
    (long-tail domains, absent classes encoded as 0 — the IWildCam stand-in
    relies on this).
    """
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
    return counts


def render_domain(
    content_bank: ContentBank,
    style: DomainStyle,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One domain's images: ``counts[c]`` samples of every class ``c``, in
    class order, drawn through the domain's style."""
    size = content_bank.image_size
    images = np.empty((int(counts.sum()), 3, size, size))
    stop = 0
    for class_id, count in enumerate(counts):
        if count == 0:
            continue
        content = content_bank.sample(class_id, int(count), rng)
        start, stop = stop, stop + int(count)
        images[start:stop] = render_images(content, style, rng)
    return images


class _Domain(LabeledDataset):
    """One domain of a :class:`RenderedDomains`: labels and domain ids at
    once, images rendered at the first read and then held by this object
    (so whoever holds it keeps the domain rendered)."""

    def __init__(self, domains: "RenderedDomains", index: int) -> None:
        self._domains = domains
        self._index = index
        self._images: "np.ndarray | None" = None
        self.labels, self.domain_ids = domains.labels_and_ids(index)

    @property
    def images(self) -> np.ndarray:  # type: ignore[override]
        if self._images is None:
            self._images = self._domains.images(self._index)
        return self._images

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self._domains.image_shape

    def __repr__(self) -> str:
        return f"_Domain({self._index}, {len(self)} samples)"


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class _ReadOnly(LabeledDataset):
    """Read-only views of ``source``'s arrays, the images taken at their
    first read (see :meth:`DomainSuite.merged`)."""

    def __init__(self, source: LabeledDataset) -> None:
        self._source = source
        self._images: "np.ndarray | None" = None
        self.labels = _read_only(source.labels)
        self.domain_ids = _read_only(source.domain_ids)

    @property
    def images(self) -> np.ndarray:  # type: ignore[override]
        if self._images is None:
            self._images = _read_only(self._source.images)
        return self._images

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self._source.image_shape


class RenderedDomains(Sequence[LabeledDataset]):
    """The domains of a generated suite, each rendered when first read.

    ``render(index)`` draws domain ``index``'s images from its own seeded
    generator, so a domain renders bit for bit alike whenever, wherever and
    in whatever order it is rendered.  A rendered domain sits in a weak
    cache: it stays while anything reads it (a domain object whose images
    were read, a split's views of them, a client holding its domains — see
    :meth:`LabeledDataset.pin`) and renders again once nothing does.

    ``counts[index]`` is domain ``index``'s per-class sample counts, from
    which its length and labels follow without rendering.  Each render
    is counted (:attr:`renders`) and digested (:attr:`digests`: sha256 of
    the images' then the labels' bytes), so a peer that rendered the same
    domain can be checked against this one.
    """

    def __init__(
        self,
        render: "Callable[[int], np.ndarray]",
        counts: "list[np.ndarray]",
        image_shape: "tuple[int, int, int]",
    ) -> None:
        self._render = render
        self._counts = counts
        self.image_shape = tuple(image_shape)
        self._fields: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        self._rendered: "weakref.WeakValueDictionary[int, np.ndarray]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()
        #: Domain index -> how many times this process rendered it.
        self.renders: "Counter[int]" = Counter()
        #: Domain index -> sha256 hex digest of its last render.
        self.digests: "dict[int, str]" = {}

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, index: int) -> LabeledDataset:  # type: ignore[override]
        return _Domain(self, range(len(self))[index])

    def nbytes(self, index: int) -> int:
        """What rendering domain ``index`` allocates for its images."""
        return int(self._counts[index].sum()) * math.prod(self.image_shape) * 8

    def labels_and_ids(self, index: int) -> "tuple[np.ndarray, np.ndarray]":
        """Domain ``index``'s labels and domain ids (no render needed)."""
        cached = self._fields.get(index)
        if cached is None:
            counts = self._counts[index]
            labels = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
            cached = (labels, np.full(labels.shape[0], index, dtype=np.int64))
            self._fields[index] = cached
        return cached

    def images(self, index: int) -> np.ndarray:
        """Domain ``index``'s images: the live render if there is one,
        else a fresh one."""
        with self._lock:
            images = self._rendered.get(index)
            if images is None:
                images = self._render(index)
                digest = hashlib.sha256(memoryview(images).cast("B"))
                digest.update(memoryview(self.labels_and_ids(index)[0]).cast("B"))
                self.digests[index] = digest.hexdigest()
                self.renders[index] += 1
                self._rendered[index] = images
            return images


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
        A generated suite's are :class:`RenderedDomains`.
    train_domains / val_domains / test_domains:
        Role assignment by domain *index*.  PACS/Office-Home-style suites put
        every domain in ``train_domains`` and leave the split to the LODO /
        LTDO protocol; the IWildCam-style suite fixes disjoint sets.
    spec:
        How to build this suite again: ``{"builder": name, "args": {...}}``
        of a :data:`repro.data.registry.BUILDERS` entry, set by the builder
        (``None`` for a suite built by hand).  Clients partitioned from a
        suite with a spec travel as recipes, never as images.
    """

    name: str
    num_classes: int
    image_shape: tuple[int, int, int]
    domain_names: list[str]
    datasets: "Sequence[LabeledDataset]"
    train_domains: list[int] = field(default_factory=list)
    val_domains: list[int] = field(default_factory=list)
    test_domains: list[int] = field(default_factory=list)
    spec: "dict | None" = None

    def __post_init__(self) -> None:
        if len(self.domain_names) != len(self.datasets):
            raise ValueError("domain_names and datasets must align")
        if isinstance(self.datasets, RenderedDomains):
            if self.datasets.image_shape != tuple(self.image_shape):
                raise ValueError(
                    f"domains render {self.datasets.image_shape}, suite "
                    f"expects {self.image_shape}"
                )
            return
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
        """Union of several domains' data (e.g. the LODO training pool).

        One non-empty domain is returned as read-only views of that
        domain's arrays, so an evaluation split (LODO's val and test are
        the same held-out domain) costs no copy; its images are taken when
        first read (a generated domain renders then, and stays rendered
        while the split lives).  Several domains are concatenated into
        fresh arrays.  An empty selection, or one whose domains are all
        empty, raises ``ValueError``."""
        if not domain_indices:
            raise ValueError("domain_indices must not be empty")
        domain = self.datasets[domain_indices[0]]
        if len(domain_indices) == 1 and len(domain):
            return _ReadOnly(domain)
        return LabeledDataset.concatenate(
            [self.datasets[i] for i in domain_indices]
        )
