"""The scalar per-client training loop: the reference the trainer is held to.

``repro`` trains every client on ``(K, ...)`` stacks
(:class:`repro.fl.compute.EnsembleBackend`).  This module keeps the
historical scalar path it replaced, arithmetic unchanged: one client at a
time on the template model, the epoch runner over one dataset, FedDG-GA's
gap from a scalar evaluation and the chunked embedding sweep.  A stack of
any size must reproduce it bitwise.

Two entry points:

* :func:`run_loop` takes what ``EnsembleBackend.run_group`` takes and
  returns one update per client, in group order (trainer-boundary tests);
* :func:`train_stacks` is a drop-in for ``EnsembleBackend.train_stacks``:
  patch it onto the class and every engine trains one client at a time
  through :func:`run_loop` (engine-boundary tests).  Fork-started pool
  workers inherit the patch; in-process agents share it.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.baselines import FedDGGAStrategy
from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.nn.losses import CrossEntropyLoss
from repro.nn.objective import StepContext


def run_objective_epochs(
    model,
    dataset,
    objective,
    config,
    rng: np.random.Generator,
    *,
    extras: Mapping[str, Any] | None = None,
    secondary: np.ndarray | None = None,
    batch_views: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    | None = None,
) -> float:
    """Train ``model`` on ``dataset`` under ``objective``; returns the mean
    per-batch weighted loss.

    ``batch_views(images, rng)`` maps each indexed batch to the rows the
    step forwards; ``secondary`` is an optional view aligned index-for-index
    with the dataset, appended after them.  Randomness: one
    ``rng.permutation(n)`` per epoch, then whatever ``batch_views`` draws
    per batch.
    """
    images = dataset.images
    labels = dataset.labels
    model.train()
    optimizer = config.make_optimizer(model)
    needs_embedding = objective.needs_embedding()
    losses: list[float] = []
    n = images.shape[0]
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = idx.shape[0]
            combined = images[idx]
            if batch_views is not None:
                combined = batch_views(combined, rng)
            if secondary is not None:
                combined = np.concatenate([combined, secondary[idx]], axis=0)
            model.zero_grad()
            embeddings = model.forward_features(combined)
            logits = model.forward_logits(embeddings)
            ctx = StepContext(
                labels=labels[idx],
                embeddings=embeddings,
                logits=logits,
                batch=batch,
                views=combined.shape[0] // batch,
                grad_logits=np.zeros_like(logits),
                grad_embedding=(
                    np.zeros_like(embeddings) if needs_embedding else None
                ),
                extras=extras or {},
            )
            loss = objective.evaluate(ctx)
            model.backward(
                grad_logits=ctx.grad_logits,
                grad_embedding=ctx.grad_embedding,
                input_grad=False,
            )
            optimizer.step()
            losses.append(loss)
    return float(np.mean(losses)) if losses else 0.0


def dataset_embeddings(
    forward_features, images: np.ndarray, chunk: int = 256
) -> np.ndarray:
    """Chunked eval-mode sweep over one dataset, on the chunk boundaries
    of :func:`repro.nn.objective.ensemble_dataset_embeddings`."""
    parts = [
        forward_features(images[start : start + chunk])
        for start in range(0, images.shape[0], chunk)
    ]
    return np.concatenate(parts, axis=0)


def evaluate_loss(model, dataset, batch_size: int = 256) -> float:
    """Mean cross-entropy of ``model`` on ``dataset`` in evaluation mode."""
    logits = model.predict_logits(dataset.images, batch_size=batch_size)
    return CrossEntropyLoss().forward(logits, dataset.labels)


def local_update(strategy, client: Client, model, round_index: int, rng):
    """One client's step on ``model`` (holding the broadcast weights):
    FedDG-GA's gap first, then the base step — views, the epoch runner,
    the payload sweep."""
    gap = (
        evaluate_loss(model, client.dataset)
        if isinstance(strategy, FedDGGAStrategy)
        else None
    )
    secondary = strategy.local_views(client, rng)
    loss = run_objective_epochs(
        model,
        client.dataset,
        strategy.objective,
        strategy.local_config,
        rng,
        extras=strategy.objective_context(client),
        secondary=secondary,
        batch_views=(
            functools.partial(strategy.batch_views, client)
            if strategy._views_per_batch()
            else None
        ),
    )
    payload = None
    if strategy._extracts_payload():
        model.eval()
        embeddings = dataset_embeddings(
            model.forward_features, client.dataset.images
        )
        payload = strategy.payload_from_embeddings(
            client, embeddings, client.dataset.labels
        )
        model.train()
    update = ClientUpdate.from_client(
        client, model.state_dict(), loss, payload=payload
    )
    if gap is not None:
        update.payload["gap"] = gap
    return update


def run_loop(
    strategy,
    model,
    wire_state,
    clients: Sequence[Client],
    round_index: int,
    seeds: Sequence[int],
) -> list[ClientUpdate]:
    """Each client trains on ``model`` from the broadcast weights, in group
    order, on its own seeded generator."""
    updates = []
    for client, seed in zip(clients, seeds):
        model.load_state_dict(wire_state)
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        update = local_update(strategy, client, model, round_index, rng)
        update.train_seconds = time.perf_counter() - start
        updates.append(update)
    return updates


def train_stacks(
    self, strategy, model, wire_state, clients, round_index, seeds
):
    """``EnsembleBackend.train_stacks`` through :func:`run_loop`: one
    position per yield, in group order."""
    for position, (client, seed) in enumerate(zip(clients, seeds)):
        yield [position], run_loop(
            strategy, model, wire_state, [client], round_index, [seed]
        )
