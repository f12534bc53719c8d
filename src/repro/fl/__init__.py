"""``repro.fl`` — the federated-learning simulation substrate.

Method-agnostic round loop (client sampling, broadcast, local update,
aggregation, evaluation) with per-phase wall-clock instrumentation.  FedDG
methods plug in through :class:`repro.fl.Strategy`.
"""

from repro.fl.aggregate import (
    AggregationStream,
    Aggregator,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
    aggregator_specs,
    make_aggregator,
    register_aggregator,
)
from repro.fl.client import Client
from repro.fl.codec import Codec, Payload, codec_specs, make_codec
from repro.fl.compute import EnsembleBackend
from repro.fl.communication import (
    CommunicationModel,
    MeasuredCommunication,
    method_communication,
)
from repro.fl.evaluation import evaluate_accuracy
from repro.fl.executor import (
    ClientUpdate,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WireStats,
    make_executor,
)
from repro.fl.faults import (
    AdaptiveDeadline,
    FaultEvent,
    FaultPlan,
    FixedDeadline,
    RoundTimeoutError,
    make_deadline_policy,
    make_fault_plan,
)
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.population import (
    ClientFactory,
    ClientPopulation,
    LazyPopulation,
    ListPopulation,
    as_population,
)
from repro.fl.sampling import UniformClientSampler
from repro.fl.server import (
    FederatedConfig,
    FederatedResult,
    FederatedServer,
)
from repro.fl.strategy import LocalTrainingConfig, Strategy, run_prepare
from repro.fl.timing import TimingReport
from repro.fl.transport import (
    PipeTransport,
    ShmTransport,
    Transport,
    make_transport,
    resolve_transport,
    shm_supported,
    validate_transport,
)

__all__ = [
    "AggregationStream",
    "Aggregator",
    "KrumAggregator",
    "MeanAggregator",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "aggregator_specs",
    "make_aggregator",
    "register_aggregator",
    "Client",
    "ClientUpdate",
    "Codec",
    "CommunicationModel",
    "MeasuredCommunication",
    "Payload",
    "WireStats",
    "codec_specs",
    "make_codec",
    "EnsembleBackend",
    "method_communication",
    "evaluate_accuracy",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "AdaptiveDeadline",
    "FaultEvent",
    "FaultPlan",
    "FixedDeadline",
    "RoundTimeoutError",
    "make_deadline_policy",
    "make_fault_plan",
    "RoundRecord",
    "RunHistory",
    "ClientFactory",
    "ClientPopulation",
    "LazyPopulation",
    "ListPopulation",
    "as_population",
    "UniformClientSampler",
    "FederatedConfig",
    "FederatedResult",
    "FederatedServer",
    "LocalTrainingConfig",
    "Strategy",
    "run_prepare",
    "TimingReport",
    "Transport",
    "PipeTransport",
    "ShmTransport",
    "make_transport",
    "resolve_transport",
    "shm_supported",
    "validate_transport",
]
