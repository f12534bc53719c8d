"""Loss-landscape slices (paper Fig. 1).

Fig. 1 visualizes each client's local loss around the global weights for
naive training versus PARDON, arguing PARDON's local optima sit closer to a
shared (global) optimum.  We reproduce the quantitative content: a 2-D loss
surface over a filter-normalized random plane through a weight vector
(Li et al., "Visualizing the Loss Landscape of Neural Nets"), plus summary
statistics — where each client's minimum lies in that plane and how far the
clients' minima are from each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import LabeledDataset
from repro.nn.losses import cross_entropy
from repro.nn.models import FeatureClassifierModel
from repro.nn.serialize import StateDict, flatten_state, unflatten_state

__all__ = [
    "LandscapeSlice",
    "loss_landscape_slice",
    "client_minima_divergence",
    "surface_divergence",
]


@dataclass
class LandscapeSlice:
    """A grid of losses over the plane spanned by two directions."""

    alphas: np.ndarray  # (G,)
    betas: np.ndarray  # (G,)
    losses: np.ndarray  # (G, G): losses[i, j] at (alphas[i], betas[j])

    def minimum_position(self) -> tuple[float, float]:
        """(alpha, beta) of the lowest loss on the grid."""
        index = np.unravel_index(np.argmin(self.losses), self.losses.shape)
        return float(self.alphas[index[0]]), float(self.betas[index[1]])

    def center_loss(self) -> float:
        """Loss at the plane origin (the probed weight vector itself)."""
        center = len(self.alphas) // 2, len(self.betas) // 2
        return float(self.losses[center])

    def sharpness(self) -> float:
        """Mean loss increase over the grid relative to the center —
        a scale-free flatness proxy."""
        return float(np.mean(self.losses) - self.center_loss())


def _random_directions(
    reference: StateDict, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal, filter-normalized random directions in weight space."""
    flat = flatten_state(reference)
    d1 = rng.normal(size=flat.shape)
    d2 = rng.normal(size=flat.shape)
    # Gram-Schmidt, then scale each direction to the weights' norm so the
    # plane units are comparable across models.
    d1 /= np.linalg.norm(d1)
    d2 -= (d2 @ d1) * d1
    d2 /= np.linalg.norm(d2)
    scale = np.linalg.norm(flat)
    return d1 * scale, d2 * scale


def _dataset_loss(model: FeatureClassifierModel, dataset: LabeledDataset) -> float:
    """Mean eval-mode cross-entropy of ``model`` on ``dataset`` (0 if empty)."""
    if len(dataset) == 0:
        return 0.0
    logits = model.predict_logits(dataset.images, batch_size=256)
    return cross_entropy(logits, dataset.labels)[0]


def loss_landscape_slice(
    model: FeatureClassifierModel,
    center_state: StateDict,
    dataset: LabeledDataset,
    rng: np.random.Generator,
    radius: float = 0.5,
    grid_points: int = 11,
) -> LandscapeSlice:
    """Evaluate the dataset loss over a random plane through ``center_state``.

    The model's weights are restored to ``center_state`` before returning.
    """
    if grid_points < 3 or grid_points % 2 == 0:
        raise ValueError("grid_points must be an odd integer >= 3")
    d1, d2 = _random_directions(center_state, rng)
    center_flat = flatten_state(center_state)
    alphas = np.linspace(-radius, radius, grid_points)
    betas = np.linspace(-radius, radius, grid_points)
    losses = np.empty((grid_points, grid_points))
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            shifted = center_flat + alpha * d1 + beta * d2
            model.load_state_dict(unflatten_state(shifted, center_state))
            losses[i, j] = _dataset_loss(model, dataset)
    model.load_state_dict(center_state)
    return LandscapeSlice(alphas=alphas, betas=betas, losses=losses)


def surface_divergence(slices: list[LandscapeSlice]) -> float:
    """Mean pairwise distance between clients' *whole* loss surfaces.

    Each surface is centred on its own origin loss before comparison, so
    the statistic measures how differently the two local objectives bend
    around the global weights — the paper's Fig. 1 claim is that PARDON
    makes these surfaces (hence the implicit local objectives) nearly
    coincide.  More robust than comparing argmin locations, which wander
    on flat surfaces.
    """
    if len(slices) < 2:
        raise ValueError("need at least two client slices")
    centred = [s.losses - s.center_loss() for s in slices]
    total, count = 0.0, 0
    for i in range(len(centred)):
        for j in range(i + 1, len(centred)):
            total += float(np.mean(np.abs(centred[i] - centred[j])))
            count += 1
    return total / count


def client_minima_divergence(slices: list[LandscapeSlice]) -> float:
    """Mean pairwise distance between clients' in-plane loss minima.

    Fig. 1's argument in one number: under naive training, heterogeneous
    clients' local optima sit far apart around the global weights; under
    PARDON they nearly coincide (small divergence).
    """
    if len(slices) < 2:
        raise ValueError("need at least two client slices")
    minima = np.array([s.minimum_position() for s in slices])
    total, count = 0.0, 0
    for i in range(len(minima)):
        for j in range(i + 1, len(minima)):
            total += float(np.linalg.norm(minima[i] - minima[j]))
            count += 1
    return total / count
