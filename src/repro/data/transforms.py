"""Image augmentations.

PARDON's v4 ablation replaces interpolation-style positives with "standard
contrastive learning with augmentation"; CCST-style pipelines likewise lean
on generic augmentation.  This module collects the augmentations in one
seeded, composable place so every method draws from the same definitions.

All transforms take and return NCHW batches and are pure functions of the
input plus an explicit generator.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "random_shift",
    "gaussian_noise",
    "compose",
    "standard_augmentation",
]

Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def _check_batch(images: np.ndarray) -> None:
    if images.ndim != 4:
        raise ValueError(f"expected NCHW batch, got shape {images.shape}")


def random_shift(max_pixels: int = 2) -> Transform:
    """Circular spatial shift by up to ``max_pixels`` in each direction."""
    if max_pixels < 0:
        raise ValueError(f"max_pixels must be >= 0, got {max_pixels}")

    def apply(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_batch(images)
        dy = int(rng.integers(-max_pixels, max_pixels + 1))
        dx = int(rng.integers(-max_pixels, max_pixels + 1))
        return np.roll(images, (dy, dx), axis=(2, 3))

    return apply


def gaussian_noise(std: float = 0.1) -> Transform:
    """Additive white noise."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")

    def apply(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_batch(images)
        if std == 0:
            return images
        return images + rng.normal(0.0, std, size=images.shape)

    return apply


def compose(transforms: Sequence[Transform]) -> Transform:
    """Apply transforms left-to-right."""

    def apply(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in transforms:
            images = transform(images, rng)
        return images

    return apply


def standard_augmentation() -> Transform:
    """The v4-ablation recipe: small shift + noise (paper §IV-B-4)."""
    return compose([random_shift(2), gaussian_noise(0.1)])
