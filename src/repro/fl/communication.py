"""Communication-cost accounting per federated method.

The paper's scalability argument (§IV-B-3) is about computation, but the
same comparison matters for bytes on the wire: PARDON adds a single
``R^{2d}`` vector per client *once*, while cross-sharing methods ship style
banks or prototypes every round.  This module computes the exact payload
sizes from the model and method parameters so the overhead bench can print
a bytes-per-round column alongside wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fl.codec import analytic_scalar_bytes
from repro.fl.timing import TimingReport
from repro.nn.models import FeatureClassifierModel

__all__ = [
    "CommunicationModel",
    "MeasuredCommunication",
    "method_communication",
]

_BYTES_PER_SCALAR = 8  # float64 throughout the library


@dataclass(frozen=True)
class CommunicationModel:
    """Per-round and one-time traffic of one method, in bytes.

    ``per_round_up`` / ``per_round_down`` are per *participating client*;
    ``one_time_up`` / ``one_time_down`` are per client, before round 1.
    """

    method: str
    per_round_up: int
    per_round_down: int
    one_time_up: int = 0
    one_time_down: int = 0

    def total(self, rounds: int, participants_per_round: int, num_clients: int) -> int:
        """Total session traffic in bytes."""
        per_round = (self.per_round_up + self.per_round_down) * participants_per_round
        one_time = (self.one_time_up + self.one_time_down) * num_clients
        return per_round * rounds + one_time


@dataclass(frozen=True)
class MeasuredCommunication:
    """Traffic an execution engine *actually* moved, normalized like
    :class:`CommunicationModel` (per participating client per round) so the
    overhead bench can print measured next to analytic.

    Measured bytes include what the analytic model abstracts away — pickle
    framing, the strategy blob in the broadcast, task tuples — and the
    parallel engine broadcasts once per *worker*, not per client, so the
    per-client download can come out *below* the analytic weight cost.
    """

    bytes_up: int
    bytes_down: int
    rounds: int
    client_updates: int

    @classmethod
    def from_report(cls, report: TimingReport) -> "MeasuredCommunication":
        """Normalize one run's :class:`TimingReport` wire counters."""
        return cls(
            bytes_up=report.bytes_up,
            bytes_down=report.bytes_down,
            rounds=report.rounds,
            client_updates=report.local_train_invocations,
        )

    @property
    def per_update_up(self) -> float:
        """Upload bytes per (client, round) local update."""
        if self.client_updates == 0:
            return 0.0
        return self.bytes_up / self.client_updates

    @property
    def per_update_down(self) -> float:
        """Download bytes per (client, round) local update — registration
        and broadcast amortized over every update of the run."""
        if self.client_updates == 0:
            return 0.0
        return self.bytes_down / self.client_updates


def method_communication(
    method: str,
    model: FeatureClassifierModel,
    style_dim: int = 24,
    num_classes: int = 7,
    num_clients: int = 20,
    styles_per_client: int = 1,
    codec: str = "identity",
) -> CommunicationModel:
    """Payload model for each method in the paper's line-up.

    ``style_dim`` is ``2d`` (mean+std per encoder channel); prototypes are
    ``embed_dim`` floats per class.

    ``codec`` adjusts the *weight* component for the wire codec actually in
    use (see :mod:`repro.fl.codec`): fp16 ships 2 bytes per scalar, qint8
    one, and ``delta``/``deflate`` stay at the dense bound because their
    compression is data-dependent — that keeps this model an honest upper
    bound next to the measured columns, never an optimistic estimate.
    Method-specific side payloads (styles, prototypes) are not
    codec-encoded and keep their float64 size.
    """
    weights = int(
        model.num_parameters() * analytic_scalar_bytes(codec, _BYTES_PER_SCALAR)
    )
    style = style_dim * _BYTES_PER_SCALAR
    prototypes = model.embed_dim * num_classes * _BYTES_PER_SCALAR

    base = {"per_round_up": weights, "per_round_down": weights}
    if method in ("fedavg", "fedsr", "fedgma", "feddg_ga"):
        # Pure weight exchange; FedGMA/FedDG-GA differ only server-side.
        return CommunicationModel(method=method, **base)
    if method == "fpl":
        # Class prototypes ride along with every upload and download.
        return CommunicationModel(
            method=method,
            per_round_up=weights + prototypes,
            per_round_down=weights + prototypes,
        )
    if method == "ccst":
        # One-time style-bank build, then the whole bank is broadcast: each
        # client downloads every other client's style(s) before training.
        bank = style * styles_per_client * num_clients
        return CommunicationModel(
            method=method,
            one_time_up=style * styles_per_client,
            one_time_down=bank,
            **base,
        )
    if method == "pardon":
        # One style vector up, one interpolation style down — once, ever.
        return CommunicationModel(
            method=method,
            one_time_up=style,
            one_time_down=style,
            **base,
        )
    raise ValueError(f"unknown method {method!r}")
