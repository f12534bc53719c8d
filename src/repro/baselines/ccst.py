"""CCST (Chen et al., WACV 2023): cross-client style transfer.

Clients publish their style statistics to a server-side *style bank*
(:meth:`CCSTStrategy.prepare_client` uploads them before round 1,
:meth:`CCSTStrategy.fuse_prepare` stacks the uploads into the bank); every
client then augments its local data by AdaIN-transferring it to other
clients' styles before plain cross-entropy training.  Two sharing
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
from repro.fl.executor import ClientUpdate
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import FeatureClassifierModel
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

    def train_client(
        self,
        client: Client,
        model: FeatureClassifierModel,
        round_index: int,
        rng: np.random.Generator,
    ) -> ClientUpdate:
        images = client.dataset.images
        labels = client.dataset.labels
        foreign = self._foreign_styles(client.client_id)

        model.train()
        optimizer = self.local_config.make_optimizer(model)
        criterion = CrossEntropyLoss()
        losses: list[float] = []
        n = images.shape[0]
        for _ in range(self.local_config.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.local_config.batch_size):
                idx = order[start : start + self.local_config.batch_size]
                batch_images = images[idx]
                batch_labels = labels[idx]
                if foreign:
                    parts = [batch_images]
                    label_parts = [batch_labels]
                    for _ in range(self.augment_per_batch):
                        style = foreign[int(rng.integers(len(foreign)))]
                        parts.append(
                            apply_style_to_images(
                                batch_images, style, self.encoder
                            )
                        )
                        label_parts.append(batch_labels)
                    batch_images = np.concatenate(parts, axis=0)
                    batch_labels = np.concatenate(label_parts, axis=0)
                model.zero_grad()
                logits = model.forward(batch_images)
                loss = criterion.forward(logits, batch_labels)
                model.backward(grad_logits=criterion.backward())
                optimizer.step()
                losses.append(loss)
        return ClientUpdate.from_client(
            client,
            model.state_dict(),
            float(np.mean(losses)) if losses else 0.0,
        )
