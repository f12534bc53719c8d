"""PARDON configuration, including the ablation switches of paper Table V."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PardonConfig"]


@dataclass(frozen=True)
class PardonConfig:
    """Component switches of PARDON.

    The loss weights of Eq. 9 are not fields: γ_T and γ_reg are the
    ``triplet_style`` and ``pair_l2`` weights of the strategy's objective,
    reweighted only by ``--objective`` (``ExperimentSetting.objective``).
    ``triplet_hinge`` selects the hinged form of the triplet term.

    The three booleans reproduce the Table V ablation grid:

    * ``local_clustering`` — FINCH over per-sample styles on each client
      (off: the client style is the plain pooled average, "simple averaging");
    * ``global_clustering`` — FINCH + median over client styles on the server
      (off: plain average of client styles);
    * ``contrastive`` — the triplet loss on style-transferred positives
      (off: the style-transferred data is still added to training, but only
      through cross-entropy — exactly the paper's v3).

    ``style_positives`` distinguishes v4: contrastive learning stays on but
    positives come from generic augmentation (noise + small shifts) rather
    than interpolation-style transfer.

    ``ce_on_transferred`` controls whether the style-transferred half of the
    batch also contributes to the cross-entropy term.  The paper's Eq. 9
    writes ``L_CE`` over the original logits only, but its ablation (v3
    retains most of the gain with transferred data in plain training) shows
    the transferred data is also consumed as supervised signal; we keep that
    on by default and expose the switch for the ablation benches.
    """

    triplet_hinge: bool = False
    local_clustering: bool = True
    global_clustering: bool = True
    contrastive: bool = True
    style_positives: bool = True
    ce_on_transferred: bool = True

    # -- Table V variants ----------------------------------------------------

    @staticmethod
    def v1() -> "PardonConfig":
        """No local clustering (client styles by simple averaging)."""
        return PardonConfig(local_clustering=False)

    @staticmethod
    def v2() -> "PardonConfig":
        """No global clustering (interpolation style by simple averaging)."""
        return PardonConfig(global_clustering=False)

    @staticmethod
    def v3() -> "PardonConfig":
        """No contrastive learning (transferred data used only through CE)."""
        return PardonConfig(contrastive=False)

    @staticmethod
    def v4() -> "PardonConfig":
        """No clustering at either level and augmentation-based positives
        (standard contrastive learning)."""
        return PardonConfig(
            local_clustering=False, global_clustering=False, style_positives=False
        )

    @staticmethod
    def v5() -> "PardonConfig":
        """The full method (all components on)."""
        return PardonConfig()
