"""Deterministic random-number management.

Every stochastic component in the library draws from a ``numpy.random.Generator``
handed to it explicitly; nothing reads global numpy state.  ``SeedTree`` makes
it easy to derive independent, reproducible child generators for each client,
each round, and each dataset from a single experiment seed, so a whole
federated run is bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["SeedTree", "stable_hash"]


def stable_hash(*parts: object) -> int:
    """Return a stable 63-bit integer hash of the given parts.

    Python's builtin ``hash`` is salted per-process for strings, so it cannot
    be used for reproducible seeding.  We hash the ``repr`` of each part with
    BLAKE2 instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "little") & ((1 << 63) - 1)


class SeedTree:
    """A tree of reproducible seeds.

    A ``SeedTree`` is identified by a root seed plus a path of labels.  Child
    trees and generators are derived by hashing the path, so the generator for
    ``tree.child("client", 7).generator("round", 3)`` depends only on the root
    seed and those labels — not on the order in which other children were
    created.

    Example
    -------
    >>> tree = SeedTree(123)
    >>> g1 = tree.generator("data")
    >>> g2 = SeedTree(123).generator("data")
    >>> float(g1.random()) == float(g2.random())
    True
    """

    def __init__(self, root_seed: int, path: tuple[object, ...] = ()) -> None:
        self.root_seed = int(root_seed)
        self.path = tuple(path)

    def child(self, *labels: object) -> "SeedTree":
        """Return a child tree extending this tree's path by ``labels``."""
        return SeedTree(self.root_seed, self.path + tuple(labels))

    def seed(self, *labels: object) -> int:
        """Return the integer seed for the node at ``labels`` under this tree."""
        return stable_hash(self.root_seed, *self.path, *labels)

    def generator(self, *labels: object) -> np.random.Generator:
        """Return a fresh ``numpy.random.Generator`` for the node at ``labels``."""
        return np.random.default_rng(self.seed(*labels))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedTree(root_seed={self.root_seed}, path={self.path!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedTree):
            return NotImplemented
        return self.root_seed == other.root_seed and self.path == other.path

    def __hash__(self) -> int:
        return hash((self.root_seed, self.path))
