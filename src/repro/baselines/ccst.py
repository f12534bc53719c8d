"""CCST (Chen et al., WACV 2023): cross-client style transfer.

Clients publish their style statistics to a server-side *style bank*
(:meth:`CCSTStrategy.prepare_client` uploads them before round 1,
:meth:`CCSTStrategy.fuse_prepare` stacks the uploads into the bank); every
client then augments its local data by AdaIN-transferring it to other
clients' styles (:meth:`CCSTStrategy.batch_views`, per batch) before
plain cross-entropy training over the batch and its copies.  Two sharing
granularities exist:

* ``"overall"`` — one pooled style per client (the paper's default CCST);
* ``"sample"`` — per-image style vectors enter the bank.  Strictly stronger
  augmentation but the privacy disaster analysed in the paper's §IV-B-3:
  a sample-level style is enough to reconstruct the image's content.

Either way the bank is visible to all participants — the cross-sharing
design PARDON's interpolation style deliberately avoids.  The privacy
benchmarks (Table IV, Figs. 6–8) compare exactly these two sharing modes
against PARDON's single aggregated style.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective, CrossEntropyTerm
from repro.style.adain import (
    StyleVector,
    apply_style_to_images,
    per_sample_style_stats,
    pooled_style,
)
from repro.style.encoder import InvertibleEncoder

__all__ = ["CCSTStrategy", "StyleBankEntry"]


class StyleBankEntry:
    """One published style: who it came from and the statistics themselves."""

    def __init__(self, client_id: int, style: StyleVector) -> None:
        self.client_id = client_id
        self.style = style


class CCSTStrategy(Strategy):
    """CCST: style-bank augmentation + plain FedAvg."""

    name = "ccst"

    def __init__(
        self,
        mode: str = "overall",
        styles_per_client: int = 4,
        augment_per_batch: int = 1,
        encoder: InvertibleEncoder | None = None,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if mode not in ("overall", "sample"):
            raise ValueError(f"mode must be 'overall' or 'sample', got {mode!r}")
        if styles_per_client < 1:
            raise ValueError("styles_per_client must be >= 1")
        if augment_per_batch < 1:
            raise ValueError("augment_per_batch must be >= 1")
        self.mode = mode
        self.styles_per_client = styles_per_client
        self.augment_per_batch = augment_per_batch
        self.encoder = encoder or InvertibleEncoder(levels=2, seed=7)
        self.style_bank: list[StyleBankEntry] = []
        # Cross-entropy supervises the batch and every re-styled copy.
        self.objective = CompositeObjective(
            [("ce", 1.0, CrossEntropyTerm(all_views=True))]
        )

    def prepare_client(
        self, client: Client, rng: np.random.Generator
    ) -> dict | None:
        """The client's published styles, one ``R^{2d}`` row each: its
        pooled style, or ``styles_per_client`` per-image styles drawn on
        the client's own ``rng``."""
        if client.num_samples == 0:
            return None
        features = self.encoder.encode(client.dataset.images)
        if self.mode == "overall":
            return {"styles": pooled_style(features).to_array()[None]}
        mu, sigma = per_sample_style_stats(features)
        count = min(self.styles_per_client, mu.shape[0])
        chosen = rng.choice(mu.shape[0], size=count, replace=False)
        return {"styles": np.concatenate([mu, sigma], axis=1)[chosen]}

    def fuse_prepare(self, payloads: dict[int, dict]) -> None:
        """Publish every uploaded style into the shared bank."""
        self.style_bank = [
            StyleBankEntry(client_id, StyleVector.from_array(row))
            for client_id, payload in payloads.items()
            for row in payload["styles"]
        ]

    def _foreign_styles(self, client_id: int) -> list[StyleVector]:
        return [
            entry.style
            for entry in self.style_bank
            if entry.client_id != client_id
        ]

    def batch_views(
        self, client: Client, images: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The batch followed by ``augment_per_batch`` copies, each
        re-styled to a foreign bank style drawn on the client's ``rng``;
        the batch alone when the bank holds no foreign style."""
        foreign = self._foreign_styles(client.client_id)
        if not foreign:
            return images
        parts = [images]
        for _ in range(self.augment_per_batch):
            style = foreign[int(rng.integers(len(foreign)))]
            parts.append(apply_style_to_images(images, style, self.encoder))
        return np.concatenate(parts, axis=0)
