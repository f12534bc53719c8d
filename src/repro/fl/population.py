"""Client populations: where a round's participants come from.

The historical server held every :class:`repro.fl.client.Client` in a
list — O(total population) memory before the first round runs, which is
exactly what the "millions of users" north star breaks.  This module
splits *who exists* from *who is resident*:

:class:`ListPopulation`
    Wraps an explicit client list.  Sampling is bit-identical to the
    historical ``UniformClientSampler.sample`` path, so every existing
    experiment and trace is unchanged.
:class:`LazyPopulation`
    A population defined by a size and a seeded factory.  Only the
    sampled participants are constructed each round (Floyd's O(k)
    id sampling — see ``UniformClientSampler.sample_ids``) and released
    afterwards, so server memory scales with *participants per round*,
    never with the population.  The factory must be deterministic per id
    (same ``client_id`` → same client) and must produce non-empty
    clients — the lazy path cannot pre-filter eligibility without
    materializing everyone.

Both also enumerate every client, one at a time
(:meth:`ClientPopulation.iter_clients`), for the one population-wide pass a
run may make: the exchange before round 1
(:func:`repro.fl.strategy.run_prepare`).  A lazy population builds each
client there and lets it go, so PARDON's style exchange over a lazy
population costs one factory call per client and O(1) residency.  FedAvg
and every other strategy without a client-side prepare half never
enumerate.

Per-client caches (``client.scratch``) survive only while the endpoint
keeps the client resident, and an engine keeps a client resident only
while its population holds the object.  A released client is evicted at
the end of the round and rebuilt pristine when re-sampled, recomputing its
caches — eviction costs a recompute (PARDON re-styles the client's
images), never a different result.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.fl.client import Client
from repro.fl.sampling import UniformClientSampler

__all__ = [
    "ClientFactory",
    "ClientPopulation",
    "ListPopulation",
    "LazyPopulation",
    "as_population",
]

#: Builds the client with the given id, deterministically.
ClientFactory = Callable[[int], Client]


class ClientPopulation:
    """A universe of federated clients a sampler can draw from."""

    def __len__(self) -> int:
        raise NotImplementedError

    def sample(
        self, sampler: UniformClientSampler, rng: np.random.Generator
    ) -> list[Client]:
        """Construct (or look up) this round's participants."""
        raise NotImplementedError

    def release(self, participants: list[Client]) -> None:
        """Drop this population's own references to a finished round's
        participants (lazy populations only — list populations own their
        clients for the run's lifetime)."""

    def iter_clients(self) -> Iterator[Client]:
        """Every client in id order, built (or looked up) one at a time."""
        raise NotImplementedError


class ListPopulation(ClientPopulation):
    """The historical in-memory client list, O(population) resident."""

    def __init__(self, clients: Sequence[Client]) -> None:
        self.clients = list(clients)

    def __len__(self) -> int:
        return len(self.clients)

    def sample(
        self, sampler: UniformClientSampler, rng: np.random.Generator
    ) -> list[Client]:
        # Delegate to the sampler's historical list path (eligibility
        # filter + rng.choice) so existing traces stay bit-identical.
        return sampler.sample(self.clients, rng)

    def iter_clients(self) -> Iterator[Client]:
        return iter(self.clients)


class LazyPopulation(ClientPopulation):
    """``size`` clients that exist only while sampled.

    ``factory(client_id)`` is called once per sampled id per round; the
    constructed participants are handed to the round and released after
    it, so neither the server nor an engine's endpoints hold more than
    O(participants) clients.
    """

    def __init__(self, size: int, factory: ClientFactory) -> None:
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        self.size = int(size)
        self.factory = factory

    def __len__(self) -> int:
        return self.size

    def sample(
        self, sampler: UniformClientSampler, rng: np.random.Generator
    ) -> list[Client]:
        return [self._build(i) for i in sampler.sample_ids(self.size, rng)]

    def iter_clients(self) -> Iterator[Client]:
        return map(self._build, range(self.size))

    def _build(self, client_id: int) -> Client:
        client = self.factory(client_id)
        if client.client_id != client_id:
            raise ValueError(
                f"client factory returned id {client.client_id} for "
                f"requested id {client_id}"
            )
        if client.num_samples <= 0:
            raise ValueError(
                f"client factory produced an empty client {client_id}; "
                f"lazy populations require every client to have data"
            )
        return client


def as_population(clients: "Sequence[Client] | ClientPopulation") -> ClientPopulation:
    """Coerce the server's ``clients`` argument: explicit lists wrap into
    a :class:`ListPopulation`, populations pass through."""
    if isinstance(clients, ClientPopulation):
        return clients
    return ListPopulation(clients)
