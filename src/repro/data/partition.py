"""Domain-based client heterogeneity partitioning (paper Definition 4).

Following the benchmark of Bai et al. (ICLR 2024) the paper builds on, each
client's data distribution is a mixture of training-domain distributions
``D_i = sum_d w_{i,d} * S_d``.  The mixing is controlled by a single
heterogeneity level ``lambda``:

* ``lambda = 0`` — *domain separation*: every client draws from exactly one
  domain (its "home" domain, assigned round-robin so all domains are covered);
* ``lambda = 1`` — *homogeneous*: every client draws from the uniform mixture
  over all training domains;
* intermediate values interpolate the mixture weights linearly:
  ``w_i = (1 - lambda) * onehot(home_i) + lambda * uniform``.

Samples are assigned without replacement, conserving every sample exactly
once across clients — an invariant the property tests pin down.

A client's dataset is a :class:`SuiteRows`: which rows of which domains it
holds.  Partitioning reads labels only, so it renders nothing, and a client
of a generated suite is a *recipe* — the suite's spec plus its rows — that
any process can render bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import DomainSuite, LabeledDataset

__all__ = [
    "ClientPartition",
    "SuiteRows",
    "partition_clients",
    "lodo_splits",
    "ltdo_splits",
]


def _no_images() -> None:
    return None


class _DomainRows:
    """A client's image rows, gathered from its rendered domains per
    request (:meth:`SuiteRows.image_rows`): indexing and ``take`` as on
    the client's ``images``, without gathering them whole."""

    def __init__(self, domains: tuple, parts: "list[tuple[int, np.ndarray]]") -> None:
        self._domains = domains
        self._rows = [rows for _, rows in parts]
        self._starts = np.cumsum([0] + [len(rows) for rows in self._rows])
        self.shape = (int(self._starts[-1]),) + domains[0].shape[1:]
        self.dtype = domains[0].dtype

    def __len__(self) -> int:
        return self.shape[0]

    def take(self, indices, axis=0, out=None, mode="clip") -> np.ndarray:
        """Rows ``indices`` (positions in the client's row order) into
        ``out``; like ``SuiteRows.images``, "clip" never clips."""
        indices = np.asarray(indices, np.int64)
        if out is None:
            out = np.empty((len(indices),) + self.shape[1:], self.dtype)
        for domain, rows, start, stop in zip(
            self._domains, self._rows, self._starts[:-1], self._starts[1:]
        ):
            mine = (indices >= start) & (indices < stop)
            if mine.all():
                np.take(domain, rows[indices - start], axis=0, out=out, mode="clip")
            elif mine.any():
                out[mine] = domain[rows[indices[mine] - start]]
        return out

    def __getitem__(self, key) -> np.ndarray:
        return self.take(np.arange(len(self))[key])


class SuiteRows(LabeledDataset):
    """One client's rows of a suite: ``parts`` lists ``(domain index,
    row indices)``, domain after domain, in the order the client holds them.

    Labels and domain ids are gathered at once (they need no render).
    Images are gathered from the domains when read, into one fresh array
    that is shared by every read while anything still holds it, so nothing
    keeps a client's images but the code using them.  A gather renders
    the domains it needs unless they are live; :meth:`hold` keeps them
    rendered for as long as this dataset lives, which is what a process
    that trains the client (a lane, the serial engine) does.
    """

    def __init__(
        self, suite: DomainSuite, parts: "list[tuple[int, np.ndarray]]"
    ) -> None:
        self.suite = suite
        self.parts = [
            (int(domain), np.asarray(rows, np.int64)) for domain, rows in parts
        ]
        total = sum(len(rows) for _, rows in self.parts)
        self.labels = np.empty(total, dtype=np.int64)
        self.domain_ids = np.empty(total, dtype=np.int64)
        for (domain, rows), span in zip(self.parts, self._spans()):
            source = suite.datasets[domain]
            # The rows are distinct and in range (a slice of a permutation,
            # or a recipe checked on arrival), so "clip" never clips;
            # unlike "raise" it writes ``out`` unbuffered.
            np.take(source.labels, rows, out=self.labels[span], mode="clip")
            np.take(source.domain_ids, rows, out=self.domain_ids[span], mode="clip")
        self._images = _no_images
        self._held: tuple = ()

    def _spans(self) -> "list[slice]":
        spans, offset = [], 0
        for _, rows in self.parts:
            spans.append(slice(offset, offset + len(rows)))
            offset += len(rows)
        return spans

    @property
    def images(self) -> np.ndarray:  # type: ignore[override]
        images = self._images()
        if images is None:
            images = np.empty((len(self),) + tuple(self.suite.image_shape))
            for domain, (_, rows), span in zip(
                self._held or self.pin(), self.parts, self._spans()
            ):
                np.take(domain, rows, axis=0, out=images[span], mode="clip")
            self._images = weakref.ref(images)
        return images

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.suite.image_shape)  # type: ignore[return-value]

    def pin(self) -> tuple:
        return tuple(self.suite.datasets[domain].images for domain, _ in self.parts)

    def image_rows(self) -> _DomainRows:
        """Rows gathered from the domains as a trainer asks for them, so a
        round never reads :attr:`images` whole."""
        return _DomainRows(self._held or self.pin(), self.parts)

    def hold(self) -> "SuiteRows":
        if not self._held:
            self._held = self.pin()
        return self

    @property
    def recipe(self) -> "dict | None":
        """What a lane renders this dataset from — the suite's spec and
        the parts as JSON lists — or ``None`` for a suite built by hand."""
        if self.suite.spec is None:
            return None
        return {
            "suite": self.suite.spec,
            "parts": [[domain, rows.tolist()] for domain, rows in self.parts],
        }

    def __repr__(self) -> str:
        return f"SuiteRows({self.suite.name}, {len(self)} rows)"


@dataclass
class ClientPartition:
    """The result of partitioning: one dataset per client plus bookkeeping."""

    client_datasets: list[SuiteRows]
    home_domains: list[int]
    mixture_weights: np.ndarray  # (n_clients, n_domains), rows sum to 1

    @property
    def num_clients(self) -> int:
        return len(self.client_datasets)

    def client_sizes(self) -> list[int]:
        return [len(dataset) for dataset in self.client_datasets]


def partition_clients(
    suite: DomainSuite,
    train_domain_indices: list[int],
    num_clients: int,
    heterogeneity: float,
    rng: np.random.Generator,
) -> ClientPartition:
    """Split the training domains' data across ``num_clients`` clients.

    Parameters
    ----------
    suite:
        The domain suite to partition.
    train_domain_indices:
        Which domains participate in training (the LODO/LTDO train split).
    num_clients:
        Number of federated clients ``N``.
    heterogeneity:
        The ``lambda`` level in [0, 1]; see module docstring.
    rng:
        Controls home-domain assignment shuffling and sample routing.

    Each client's dataset is a :class:`SuiteRows` over the domains it
    draws on, in ``train_domain_indices`` order: its arrays are gathered
    straight into one fresh array per field (the images only when read),
    so no client shares memory with the suite.  Partitioning reads
    labels only and renders nothing.
    """
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError(f"heterogeneity must be in [0, 1], got {heterogeneity}")
    if num_clients < 1:
        raise ValueError(f"need at least one client, got {num_clients}")
    if not train_domain_indices:
        raise ValueError("train_domain_indices must not be empty")

    n_domains = len(train_domain_indices)
    # Home domains: round-robin over a shuffled client order so every domain
    # has clients even when num_clients >> n_domains.
    order = rng.permutation(num_clients)
    home = np.empty(num_clients, dtype=np.int64)
    for position, client in enumerate(order):
        home[client] = position % n_domains

    uniform = np.full(n_domains, 1.0 / n_domains)
    weights = np.zeros((num_clients, n_domains))
    for client in range(num_clients):
        onehot = np.zeros(n_domains)
        onehot[home[client]] = 1.0
        weights[client] = (1.0 - heterogeneity) * onehot + heterogeneity * uniform

    # Route each domain's samples to clients proportionally to the clients'
    # weight on that domain (largest-remainder apportionment, then shuffle).
    per_client_indices: list[list[tuple[int, np.ndarray]]] = [
        [] for _ in range(num_clients)
    ]
    for local_domain, domain_index in enumerate(train_domain_indices):
        n_samples = len(suite.datasets[domain_index])
        if n_samples == 0:
            continue
        share = weights[:, local_domain]
        total_share = share.sum()
        if total_share <= 0:
            # No client carries weight on this domain (possible when
            # num_clients < num_domains at lambda = 0).  Every sample must
            # still land somewhere: spread the domain uniformly.
            share = np.full(num_clients, 1.0)
            total_share = float(num_clients)
        quota = share / total_share * n_samples
        counts = np.floor(quota).astype(np.int64)
        remainder = n_samples - counts.sum()
        if remainder > 0:
            fractional = quota - counts
            # Break ties randomly but reproducibly.
            order = np.argsort(-(fractional + 1e-9 * rng.random(num_clients)))
            counts[order[:remainder]] += 1
        sample_order = rng.permutation(n_samples)
        offset = 0
        for client in range(num_clients):
            take = counts[client]
            if take:
                per_client_indices[client].append(
                    (domain_index, sample_order[offset : offset + take])
                )
                offset += take

    return ClientPartition(
        client_datasets=[SuiteRows(suite, parts) for parts in per_client_indices],
        home_domains=[int(h) for h in home],
        mixture_weights=weights,
    )


def lodo_splits(num_domains: int) -> list[dict[str, list[int]]]:
    """Leave-One-Domain-Out splits (paper Table II).

    For each domain ``d``: train on all others, validate/test on ``d``.
    """
    if num_domains < 2:
        raise ValueError("LODO needs at least 2 domains")
    splits = []
    for held_out in range(num_domains):
        train = [d for d in range(num_domains) if d != held_out]
        splits.append({"train": train, "val": [held_out], "test": [held_out]})
    return splits


def ltdo_splits(num_domains: int) -> list[dict[str, list[int]]]:
    """Leave-Two-Domains-Out splits (paper Table I, after Bai et al.).

    A rotation scheme in which every domain appears exactly once as the
    validation domain and exactly once as the test domain: split ``i`` holds
    out ``(val=i, test=i+1 mod M)`` and trains on the remaining ``M - 2``.
    """
    if num_domains < 3:
        raise ValueError("LTDO needs at least 3 domains")
    splits = []
    for index in range(num_domains):
        val = index
        test = (index + 1) % num_domains
        train = [d for d in range(num_domains) if d not in (val, test)]
        splits.append({"train": train, "val": [val], "test": [test]})
    return splits
