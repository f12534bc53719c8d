"""Differentially-private style sharing (an extension beyond the paper).

PARDON's privacy argument is empirical (reconstruction attacks fail on the
aggregated vector).  A natural hardening — listed here as the future-work
extension the title's "privacy-aware" invites — is to make the uploaded
style vector *formally* private: clip its L2 norm and add calibrated
Gaussian noise, yielding (epsilon, delta)-DP with respect to the client's
entire dataset (the style vector is a single bounded-sensitivity release).

The interpolation pipeline is median-based and therefore tolerant to this
noise; the utility cost is measurable with the standard benches by wrapping
:class:`repro.core.PardonStrategy` with :class:`DPStyleStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pardon import PardonStrategy
from repro.fl.client import Client

__all__ = ["GaussianMechanism", "DPStyleStrategy", "gaussian_sigma"]


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise scale of the analytic Gaussian mechanism (classic bound).

    ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon`` — valid for
    ``epsilon <= 1`` and conservative above.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    return sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class GaussianMechanism:
    """Clip-and-noise release of a vector with L2 sensitivity ``clip_norm``.

    Replacing a client's whole dataset changes its (clipped) style vector by
    at most ``2 * clip_norm`` in L2, so that is the sensitivity used.
    """

    epsilon: float
    delta: float
    clip_norm: float

    def __post_init__(self) -> None:
        gaussian_sigma(self.epsilon, self.delta, 1.0)  # validates eps/delta
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")

    @property
    def sigma(self) -> float:
        return gaussian_sigma(self.epsilon, self.delta, 2.0 * self.clip_norm)

    def privatize(
        self, vector: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Clip to ``clip_norm`` and add Gaussian noise."""
        vector = np.asarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        if norm > self.clip_norm:
            vector = vector * (self.clip_norm / norm)
        return vector + rng.normal(0.0, self.sigma, size=vector.shape)


class DPStyleStrategy(PardonStrategy):
    """PARDON whose uploaded style vectors are (epsilon, delta)-DP.

    Only the client half of the style exchange changes:
    :meth:`prepare_client` clips and noises the client's style before it
    leaves the client, on a generator seeded by ``(noise_seed, client_id)``,
    so the server — and PARDON's unchanged :meth:`fuse_prepare` — only ever
    sees privatized vectors.  Negative noisy sigmas are floored at zero (a
    valid post-processing step).
    """

    name = "pardon_dp"

    def __init__(
        self,
        mechanism: GaussianMechanism,
        noise_seed: int = 1234,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.mechanism = mechanism
        self.noise_seed = noise_seed

    def prepare_client(
        self, client: Client, rng: np.random.Generator
    ) -> dict | None:
        payload = super().prepare_client(client, rng)
        if payload is None:
            return None
        noise_rng = np.random.default_rng((self.noise_seed, client.client_id))
        noisy = self.mechanism.privatize(payload["style"], noise_rng)
        half = noisy.shape[0] // 2
        noisy[half:] = np.maximum(noisy[half:], 0.0)  # sigmas stay valid
        return {"style": noisy}
