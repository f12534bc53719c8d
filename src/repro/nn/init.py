"""Seeded weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is deterministic given a :class:`repro.utils.SeedTree` — a hard
requirement for federated experiments where every client must start from the
same global weights.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "orthogonal", "zeros"]


def he_normal(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random ``dim x dim`` orthogonal matrix (QR of a Gaussian).

    Used by the invertible style encoder: an orthogonal channel mix is
    exactly invertible by its transpose, which is what lets us decode
    style-transferred features back to image space without training a
    decoder network.
    """
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    gaussian = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gaussian)
    # Fix the sign ambiguity of QR so the distribution is Haar-uniform.
    q *= np.sign(np.diag(r))
    return q


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
