"""PARDON as a federated strategy (the paper's primary contribution).

The four steps of Fig. 2 map onto the strategy hooks as follows:

1. **Local style calculation** is the client half of the exchange before
   round 1, :meth:`PardonStrategy.prepare_client`: each client computes its
   own ``R^{2d}`` style (local FINCH + median) from its own images, and
   that vector is its whole payload.
2. **Interpolation style extraction** is the server half,
   :meth:`PardonStrategy.fuse_prepare`: global FINCH + median over the
   uploaded styles.  The exchange covers *every* client of the population,
   once — this is what makes the method robust to client sampling: the
   global style already carries every client's domain knowledge even if a
   client is never sampled again.  Only the fused interpolation style is
   broadcast; the per-client styles stay on the server.
3. **Contrastive local training** is the declarative objective (Eq. 9):
   cross-entropy over both halves (or the original half, per
   ``ce_on_transferred``), the triplet term at ``gamma_triplet``, and the
   pair-L2 regularizer at ``gamma_reg`` — with
   :meth:`PardonStrategy.local_views` supplying the style-transferred
   second view each round.  The generic runners execute it on both the
   trainer's stacked path and its loop fallback.
4. **Aggregation** is inherited data-size-weighted FedAvg.

Ablation variants v1–v5 (paper Table V) are selected purely through
:class:`repro.core.config.PardonConfig` — the config decides which terms
the objective carries.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PardonConfig
from repro.core.interpolation import extract_interpolation_style
from repro.core.local_style import compute_client_style
from repro.fl.client import Client
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import (
    CompositeObjective,
    CrossEntropyTerm,
    TripletStyleTerm,
)
from repro.style.adain import StyleVector, apply_style_to_images
from repro.style.encoder import InvertibleEncoder
from repro.utils.logging import get_logger

__all__ = ["PardonStrategy"]

_LOG = get_logger("core.pardon")
_TRANSFER_CACHE_KEY = "pardon_transferred"


def _pardon_objective(config: PardonConfig) -> CompositeObjective:
    """Eq. 9 as a term list.

    When ``config.contrastive`` is off (ablation v3) the transferred half
    still flows through cross-entropy as plain augmentation, matching the
    paper's description of that variant.
    """
    bindings: list = [
        (
            "ce",
            1.0,
            CrossEntropyTerm(
                all_views=config.ce_on_transferred or not config.contrastive
            ),
        )
    ]
    if config.contrastive and config.gamma_triplet > 0:
        bindings.append(
            (
                "triplet_style",
                config.gamma_triplet,
                TripletStyleTerm(margin=config.margin, hinge=config.triplet_hinge),
            )
        )
    if config.gamma_reg > 0:
        bindings.append(("pair_l2", config.gamma_reg))
    return CompositeObjective(bindings)


class PardonStrategy(Strategy):
    """Privacy-aware robust federated domain generalization (PARDON)."""

    name = "pardon"

    # The uploaded per-client styles are the server's; workers train from
    # the interpolation style alone.
    _server_only_state = ("client_styles",)

    def __init__(
        self,
        config: PardonConfig | None = None,
        local_config: LocalTrainingConfig | None = None,
        encoder: InvertibleEncoder | None = None,
    ) -> None:
        super().__init__(local_config)
        self.config = config or PardonConfig()
        self.encoder = encoder or InvertibleEncoder(
            levels=self.config.encoder_levels, seed=self.config.encoder_seed
        )
        self.interpolation_style: StyleVector | None = None
        self.client_styles: dict[int, StyleVector] = {}
        self.objective = _pardon_objective(self.config)

    # -- steps 1 + 2: the style exchange before round 1 ---------------------

    def prepare_client(
        self, client: Client, rng: np.random.Generator
    ) -> dict | None:
        """Step 1, on the client: its ``R^{2d}`` style, the only thing a
        PARDON client uploads (the privacy experiments, ``repro.privacy``,
        quantify how little it leaks)."""
        if client.num_samples == 0:
            return None
        style = compute_client_style(
            client.dataset.images,
            self.encoder,
            use_local_clustering=self.config.local_clustering,
        )
        return {"style": style.to_array()}

    def fuse_prepare(self, payloads: dict[int, dict]) -> None:
        """Step 2, on the server: the interpolation style of the uploaded
        client styles."""
        if not payloads:
            raise ValueError("no client has data; cannot extract a style")
        self.client_styles = {
            client_id: StyleVector.from_array(payload["style"])
            for client_id, payload in payloads.items()
        }
        self.interpolation_style = extract_interpolation_style(
            list(self.client_styles.values()),
            use_global_clustering=self.config.global_clustering,
        )
        _LOG.info(
            "interpolation style extracted from %d clients (dim=%d)",
            len(self.client_styles),
            self.interpolation_style.dim,
        )

    # -- step 3: contrastive local training ----------------------------------

    def _transferred_images(
        self, client: Client, rng: np.random.Generator
    ) -> np.ndarray:
        """The client's data re-styled for this round.

        Full PARDON transfers to the interpolation style; because both the
        data and the style are fixed, the result is cached in the client's
        scratch after the first round, next to the ``R^{2d}`` style it was
        built from — a cache left by another style (a previous run on the
        same client objects) is recomputed, never reused.  Variant v4
        replaces style transfer with generic augmentation (noise + circular
        shifts), drawn fresh each round.
        """
        if not self.config.style_positives:
            from repro.data.transforms import standard_augmentation

            return standard_augmentation()(client.dataset.images, rng)
        if self.interpolation_style is None:
            raise RuntimeError("fuse_prepare() must run before local_update()")
        style = self.interpolation_style.to_array()
        cached = client.scratch.get(_TRANSFER_CACHE_KEY)
        if cached is not None and np.array_equal(cached[0], style):
            return cached[1]
        transferred = apply_style_to_images(
            client.dataset.images, self.interpolation_style, self.encoder
        )
        client.scratch[_TRANSFER_CACHE_KEY] = (style, transferred)
        return transferred

    def local_views(
        self, client: Client, rng: np.random.Generator
    ) -> np.ndarray:
        return self._transferred_images(client, rng)
