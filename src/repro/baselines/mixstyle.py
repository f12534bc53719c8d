"""MixStyle adapted to federated learning (Zhou et al., ICLR 2021).

The paper's related-work section singles MixStyle out as a centralized DG
method that "can be adapted for federated learning with minor adjustments"
but "offers minimal improvement ... due to constrained intra-client and
differing inter-client distributions" (citing Bai et al.).  We include it
so that claim is testable: during local training each batch is augmented by
mixing every sample's style statistics with a random *same-client* sample's
statistics (convex combination with Beta-distributed weight), in the frozen
encoder's feature space.

Because mixing partners come from the same client, the method can only
interpolate styles the client already holds — exactly the limitation the
paper describes, and the reason PARDON's cross-client interpolation style
outperforms it under domain-separated clients.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.style.adain import per_sample_style_stats
from repro.style.encoder import InvertibleEncoder

__all__ = ["MixStyleStrategy"]


class MixStyleStrategy(Strategy):
    """Within-client style mixing + plain FedAvg."""

    name = "mixstyle"

    def __init__(
        self,
        alpha: float = 0.3,
        mix_probability: float = 0.5,
        encoder: InvertibleEncoder | None = None,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= mix_probability <= 1.0:
            raise ValueError(
                f"mix_probability must be in [0, 1], got {mix_probability}"
            )
        self.alpha = alpha
        self.mix_probability = mix_probability
        self.encoder = encoder or InvertibleEncoder(levels=1, seed=7)

    def batch_views(
        self, client: Client, images: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """MixStyle: with probability ``mix_probability``, re-normalize each
        sample to a convex mix of its own and a shuffled partner's channel
        statistics; the batch unchanged otherwise."""
        if images.shape[0] < 2 or rng.random() > self.mix_probability:
            return images
        features = self.encoder.encode(images)
        mu, sigma = per_sample_style_stats(features)
        partner = rng.permutation(images.shape[0])
        lam = rng.beta(self.alpha, self.alpha, size=(images.shape[0], 1))
        mixed_mu = lam * mu + (1.0 - lam) * mu[partner]
        mixed_sigma = lam * sigma + (1.0 - lam) * sigma[partner]
        own_mu = mu[:, :, None, None]
        own_sigma = sigma[:, :, None, None]
        normalized = (features - own_mu) / (own_sigma + 1e-6)
        restyled = (
            normalized * mixed_sigma[:, :, None, None]
            + mixed_mu[:, :, None, None]
        )
        return self.encoder.decode(restyled)
