"""Frozen encoders standing in for AdaIN's pre-trained VGG.

The paper computes style statistics and applies AdaIN inside the feature
space of a fixed, publicly shared encoder ``Phi`` (Huang & Belongie's VGG),
then decodes the re-styled features back to images.  No pre-trained VGG
exists in this sandbox, so we substitute two frozen, seeded encoders:

* :class:`InvertibleEncoder` — space-to-depth rearrangement followed by an
  orthogonal 1x1 channel mix, repeated per level.  It is linear and *exactly*
  invertible (the decoder is the transpose mix + depth-to-space), so
  image-space style transfer is lossless, replacing the trained AdaIN
  decoder.  Its channels capture local texture/colour structure — the same
  per-channel statistics VGG-based AdaIN manipulates.
* :class:`FrozenConvEncoder` — a deeper non-linear random-feature encoder
  (random convolutions are a standard stand-in for early VGG features) used
  where only *statistics* are needed and richer features help, e.g. the
  FID-style metric in the privacy evaluation.

Both are deterministic functions of a seed, so "every client downloads the
same public pre-trained model" is reproduced faithfully.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_normal, orthogonal

__all__ = [
    "space_to_depth",
    "depth_to_space",
    "InvertibleEncoder",
    "FrozenConvEncoder",
]


def space_to_depth(x: np.ndarray, block: int) -> np.ndarray:
    """Rearrange ``(N, C, H, W)`` into ``(N, C*block^2, H/block, W/block)``."""
    n, c, h, w = x.shape
    if h % block or w % block:
        raise ValueError(f"spatial dims {h}x{w} not divisible by block={block}")
    x = x.reshape(n, c, h // block, block, w // block, block)
    x = x.transpose(0, 1, 3, 5, 2, 4)
    return x.reshape(n, c * block * block, h // block, w // block)


def depth_to_space(x: np.ndarray, block: int) -> np.ndarray:
    """Inverse of :func:`space_to_depth`."""
    n, c, h, w = x.shape
    if c % (block * block):
        raise ValueError(f"channels {c} not divisible by block^2={block * block}")
    c_out = c // (block * block)
    x = x.reshape(n, c_out, block, block, h, w)
    x = x.transpose(0, 1, 4, 2, 5, 3)
    return x.reshape(n, c_out, h * block, w * block)


class InvertibleEncoder:
    """Exactly invertible frozen encoder for image-space style transfer.

    Each level performs space-to-depth (block 2) and multiplies the channel
    axis by a fixed orthogonal matrix.  With ``levels=2`` on RGB input the
    feature space has ``3 * 4^2 = 48`` channels at 1/4 resolution, so style
    vectors (mean+std per channel) live in ``R^96`` — comparable in role to
    the paper's ``R^{2d}`` VGG statistics.
    """

    def __init__(self, in_channels: int = 3, levels: int = 2, seed: int = 7) -> None:
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.in_channels = in_channels
        self.levels = levels
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.mixes: list[np.ndarray] = []
        channels = in_channels
        for _ in range(levels):
            channels *= 4
            self.mixes.append(orthogonal(channels, rng))
        self.out_channels = channels

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Map NCHW images into the frozen feature space."""
        if images.ndim != 4 or images.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W), got {images.shape}"
            )
        features = images
        for mix in self.mixes:
            features = space_to_depth(features, 2)
            features = np.einsum("oc,nchw->nohw", mix, features)
        return features

    def decode(self, features: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`encode`."""
        if features.ndim != 4 or features.shape[1] != self.out_channels:
            raise ValueError(
                f"expected (N, {self.out_channels}, H, W), got {features.shape}"
            )
        images = features
        for mix in reversed(self.mixes):
            images = np.einsum("oc,nohw->nchw", mix, images)
            images = depth_to_space(images, 2)
        return images


class FrozenConvEncoder:
    """Random frozen conv features for metrics that want non-linear structure.

    Two 3x3 conv layers (stride 2) with ReLU, weights drawn once from a seed
    and never trained.  Used by the privacy metrics (Fréchet distance needs a
    feature space, as FID uses Inception) — not by the training path.
    """

    def __init__(
        self,
        in_channels: int = 3,
        widths: tuple[int, int] = (16, 32),
        seed: int = 11,
    ) -> None:
        rng = np.random.default_rng(seed)
        w1, w2 = widths
        self.weight1 = he_normal((w1, in_channels, 3, 3), in_channels * 9, rng)
        self.weight2 = he_normal((w2, w1, 3, 3), w1 * 9, rng)
        self.in_channels = in_channels
        self.out_channels = w2

    def encode(self, images: np.ndarray) -> np.ndarray:
        """NCHW images -> (N, out_channels, H/4, W/4) frozen features."""
        from repro.nn.conv import conv2d

        x = images[None]  # a stack of one: conv2d runs over (K, ...) stacks
        for weight in (self.weight1, self.weight2):
            x, _ = conv2d(x, weight[None], None, stride=2, padding=1)
            x = np.maximum(x, 0.0)
        return x[0]

    def pooled(self, images: np.ndarray) -> np.ndarray:
        """Spatially pooled features, one vector per image (for FID).

        Concatenates the per-channel spatial mean and standard deviation so
        the Fréchet metric is sensitive to texture as well as colour — the
        analogue of using a deeper Inception layer.
        """
        features = self.encode(images)
        return np.concatenate(
            [features.mean(axis=(2, 3)), features.std(axis=(2, 3))], axis=1
        )
