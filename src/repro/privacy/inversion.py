"""Style-inversion generator: the reconstruction attacker's model.

Stands in for the paper's GAN (FastGAN, Liu et al. 2021): a decoder trained
to map a style vector back to the image it came from.  The attacker trains
it on whatever data they control — a public surrogate dataset for the
third-party attack, or their own local data for the inter-client attack —
then feeds it the victim's style vectors.

The privacy claim does not depend on the generator family: a client-level
style vector is an *average over the whole client dataset*, so any inverter
receives a single point that is (a) out of the training distribution of
per-sample styles and (b) independent of any individual image's content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Linear, ReLU, Tanh
from repro.nn.losses import mse
from repro.nn.module import Sequential
from repro.nn.optim import Adam
from repro.style.adain import per_sample_style_stats
from repro.style.encoder import InvertibleEncoder

__all__ = ["StyleInversionGenerator", "sample_style_vectors", "train_inverter"]


def sample_style_vectors(
    images: np.ndarray, encoder: InvertibleEncoder, patch_grid: int = 0
) -> np.ndarray:
    """Per-image style vectors under ``encoder``.

    With ``patch_grid == 0`` this is the global ``(mu, sigma) in R^{2d}``
    statistic.  With ``patch_grid == g`` the vector additionally carries the
    per-channel mean of each of the ``g x g`` spatial patches — the
    spatially-resolved statistics that sample-level sharing schemes (deep
    multi-layer VGG statistics in CCST) expose and that make per-image
    reconstruction possible.  Client-level aggregation (PARDON) averages
    these away, which is precisely the privacy gap Table IV measures.
    """
    features = encoder.encode(images)
    mu, sigma = per_sample_style_stats(features)
    parts = [mu, sigma]
    if patch_grid > 0:
        n, channels, height, width = features.shape
        if height % patch_grid or width % patch_grid:
            raise ValueError(
                f"feature map {height}x{width} not divisible by "
                f"patch_grid={patch_grid}"
            )
        ph, pw = height // patch_grid, width // patch_grid
        patches = features.reshape(
            n, channels, patch_grid, ph, patch_grid, pw
        ).mean(axis=(3, 5))
        parts.append(patches.reshape(n, channels * patch_grid * patch_grid))
    return np.concatenate(parts, axis=1)


class StyleInversionGenerator:
    """MLP decoder: style vector -> image (the GAN substitute).

    A tanh-bounded output keeps reconstructions in a plausible pixel range;
    a learned output scale restores amplitude.
    """

    def __init__(
        self,
        style_dim: int,
        image_shape: tuple[int, int, int],
        rng: np.random.Generator,
        hidden_dim: int = 128,
        output_scale: float = 3.0,
    ) -> None:
        self.style_dim = style_dim
        self.image_shape = image_shape
        self.output_scale = output_scale
        out_dim = int(np.prod(image_shape))
        self.network = Sequential(
            Linear(style_dim, hidden_dim, rng=rng),
            ReLU(),
            Linear(hidden_dim, hidden_dim, rng=rng),
            ReLU(),
            Linear(hidden_dim, out_dim, rng=rng),
            Tanh(),
        )

    def generate(self, style_vectors: np.ndarray) -> np.ndarray:
        """Reconstruct images from style vectors, shape ``(n, C, H, W)``."""
        if style_vectors.ndim != 2 or style_vectors.shape[1] != self.style_dim:
            raise ValueError(
                f"expected (n, {self.style_dim}) style vectors, "
                f"got {style_vectors.shape}"
            )
        flat = self.network.forward(style_vectors) * self.output_scale
        return flat.reshape((style_vectors.shape[0],) + self.image_shape)

    def train_step(
        self,
        style_vectors: np.ndarray,
        target_images: np.ndarray,
        optimizer: Adam,
    ) -> float:
        """One MSE reconstruction step; returns the batch loss."""
        self.network.zero_grad()
        flat = self.network.forward(style_vectors) * self.output_scale
        targets = target_images.reshape(target_images.shape[0], -1)
        loss, grad = mse(flat, targets)
        self.network.backward(grad * self.output_scale)
        optimizer.step()
        return loss


@dataclass
class InverterTrainingResult:
    """The trained inverter plus its training trace."""

    generator: StyleInversionGenerator
    losses: list[float]
    best_psnr: float


def train_inverter(
    train_images: np.ndarray,
    encoder: InvertibleEncoder,
    rng: np.random.Generator,
    epochs: int = 60,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    hidden_dim: int = 128,
    patch_grid: int = 0,
) -> InverterTrainingResult:
    """Train a style-inversion generator on (style(x), x) pairs.

    ``patch_grid`` selects the granularity of the style vectors the
    attacker inverts (see :func:`sample_style_vectors`); it must match the
    granularity of the vectors later fed to :meth:`generate`.  Mirrors the
    paper's procedure: train until the reconstruction loss plateaus and
    keep the model with the best validation PSNR (we hold out a tenth of
    the attacker's data for that selection).
    """
    from repro.privacy.metrics import psnr

    if train_images.shape[0] < 4:
        raise ValueError("attacker needs at least 4 images to train on")
    styles = sample_style_vectors(train_images, encoder, patch_grid=patch_grid)
    n = styles.shape[0]
    n_val = max(n // 10, 1)
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]

    generator = StyleInversionGenerator(
        style_dim=styles.shape[1],
        image_shape=tuple(train_images.shape[1:]),
        rng=rng,
        hidden_dim=hidden_dim,
        output_scale=float(np.abs(train_images).max()),
    )
    optimizer = Adam(generator.network.parameters(), lr=learning_rate)
    losses: list[float] = []
    best_psnr = -np.inf
    best_state = None
    for _ in range(epochs):
        epoch_order = rng.permutation(train_idx)
        for start in range(0, len(epoch_order), batch_size):
            idx = epoch_order[start : start + batch_size]
            losses.append(
                generator.train_step(styles[idx], train_images[idx], optimizer)
            )
        reconstructed = generator.generate(styles[val_idx])
        val_psnr = psnr(train_images[val_idx], reconstructed)
        if val_psnr > best_psnr:
            best_psnr = val_psnr
            best_state = generator.network.state_dict()
    if best_state is not None:
        generator.network.load_state_dict(best_state)
    return InverterTrainingResult(
        generator=generator, losses=losses, best_psnr=float(best_psnr)
    )
