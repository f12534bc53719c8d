"""Probes: direct timed calls into each layer's public functions.

Spans say where a round's time went; probes say what one call of a layer
costs at the shapes the workloads use, so a change to a kernel, a codec or
the wire can be seen in isolation before it is looked for end to end.
Shapes are fixed (the pacs model at batch 32, the xdev stack of 128
six-sample clients); values are generated from the seed.  Each figure is
the median of ``CALLS`` timed calls after ``WARMUPS`` untimed ones.
"""

from __future__ import annotations

import socket
import threading
import time
from statistics import median

import numpy as np

from repro.clustering.finch import finch
from repro.core.interpolation import extract_interpolation_style
from repro.core.local_style import compute_client_style
from repro.fl.codec import make_codec
from repro.fl.executor import ClientUpdate, SerialExecutor
from repro.fl.net.frames import FrameDecoder, encode_frame, recv_frame, send_frame
from repro.fl.net.protocol import UPLOAD, decode_message, encode_message
from repro.fl.server import FederatedServer
from repro.fl.transport import make_transport
from repro.nn.conv import col2im, im2col
from repro.nn.ensemble import ensemble_of
from repro.nn.objective import CompositeObjective, EnsembleStepContext
from repro.nn.serialize import MeanAccumulator, decode_payload, encode_payload
from repro.style.adain import adain, per_sample_style_stats

from spans import ExecutorProxy
from workloads import (
    XDEV_PARTICIPANTS, XDEV_SHARD, build_pacs, build_xdev, shard_factory,
)

WARMUPS = 3
CALLS = 30
BATCH = 32
#: Rounds after which the two consecutive global states are captured.
STATE_ROUNDS = (10, 11)
FRAME_CHUNK = 64 * 1024


def timed_us(call) -> float:
    """Median microseconds of one ``call()``."""
    for _ in range(WARMUPS):
        call()
    samples = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def _consecutive_states(seed: int):
    """Run serial PARDON without evaluation just far enough to see the
    global states after rounds 10 and 11; also returns the prepared
    experiment (client styles, encoder, model) for the other probes."""
    exp = build_pacs(seed, STATE_ROUNDS[-1] + 1)
    proxy = ExecutorProxy(SerialExecutor(), capture_rounds=STATE_ROUNDS)
    FederatedServer(
        exp.strategy, exp.clients, exp.model, {}, exp.config, executor=proxy
    ).run()
    return exp, proxy.captured[STATE_ROUNDS[0]], proxy.captured[STATE_ROUNDS[1]]


def _ensemble_step(emodel, images, labels, objective, views):
    """A closure running one forward + objective + backward over a
    ``(K, batch, ...)`` stack as ``run_objective_ensemble`` does it; each
    call returns its step context."""
    batch = images.shape[1] // views

    def step():
        emodel.zero_grad()
        embeddings = emodel.forward_features(images)
        logits = emodel.forward_logits(embeddings)
        ctx = EnsembleStepContext(
            labels=labels, embeddings=embeddings, logits=logits, batch=batch,
            views=views, grad_logits=np.zeros_like(logits),
            grad_embedding=np.zeros_like(embeddings),
            extras=[{}] * images.shape[0],
        )
        objective.evaluate_ensemble(ctx)
        emodel.backward(grad_logits=ctx.grad_logits, grad_embedding=ctx.grad_embedding)
        return ctx

    return step


def nn_probes(rng, exp, xdev) -> dict:
    out = {}
    model = exp.model
    images = exp.clients[0].dataset.images[:BATCH]
    labels = exp.clients[0].dataset.labels[:BATCH]
    model.train()
    conv_inputs = {"c1": images}
    conv_inputs["c2"] = np.maximum(model.features[0].forward(images), 0.0)
    for tag, layer in (("c1", model.features[0]), ("c2", model.features[2])):
        x = conv_inputs[tag]
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        cols, _ = im2col(x, k, s, p)
        out[f"nn.conv.im2col_us.{tag}"] = timed_us(lambda: im2col(x, k, s, p))
        out[f"nn.conv.col2im_us.{tag}"] = timed_us(
            lambda: col2im(cols, x.shape, k, s, p)
        )
        grad = rng.normal(size=layer.forward(x).shape)
        out[f"nn.conv.fwd_us.{tag}"] = timed_us(lambda: layer.forward(x))
        out[f"nn.conv.bwd_us.{tag}"] = timed_us(lambda: layer.backward(grad))
    grad_logits = rng.normal(size=model.forward(images).shape)
    out["nn.model.fwd_us"] = timed_us(lambda: model.forward(images))
    out["nn.model.bwd_us"] = timed_us(lambda: model.backward(grad_logits=grad_logits))
    eval_images = exp.eval_sets["val"].images
    out["nn.model.predict_us"] = timed_us(lambda: model.predict_logits(eval_images))

    # The pacs local phase as compute=auto runs it: 5 clients stacked, each
    # batch the primary view plus its style-transferred twin.
    stack = [c.dataset for c in exp.clients[:5]]
    pacs_images = np.stack([d.images[:BATCH] for d in stack])
    two_views = np.concatenate([pacs_images, pacs_images[:, ::-1]], axis=1)
    pacs_labels = np.stack([d.labels[:BATCH] for d in stack])
    pardon_step = _ensemble_step(
        ensemble_of(model, 5), two_views, pacs_labels, exp.strategy.objective, views=2
    )
    out["nn.ensemble.fwd_bwd_us"] = timed_us(pardon_step)
    ctx = pardon_step()
    out["nn.objective.pardon_us"] = timed_us(
        lambda: exp.strategy.objective.evaluate_ensemble(ctx)
    )

    # The xdev local phase: 128 six-sample clients in one stack, plain CE.
    shards = [xdev.clients.factory(i).dataset for i in range(XDEV_PARTICIPANTS)]
    small = ensemble_of(xdev.model, XDEV_PARTICIPANTS)
    ce = CompositeObjective([("ce", 1.0)])
    small_step = _ensemble_step(
        small, np.stack([d.images for d in shards]),
        np.stack([d.labels for d in shards]), ce, views=1,
    )
    out["nn.ensemble.small_fwd_bwd_us"] = timed_us(small_step)
    small_ctx = small_step()
    out["nn.objective.ce_us"] = timed_us(lambda: ce.evaluate_ensemble(small_ctx))
    optimizer = xdev.strategy.local_config.make_optimizer(small)
    out["nn.optim.sgd_step_us"] = timed_us(optimizer.step)
    return out


def wire_probes(state_a, state_b, small_state) -> dict:
    out = {}
    identity, delta = make_codec("identity"), make_codec("delta")
    payload = identity.encode(state_b, state_a)
    out["fl.codec.identity_encode_us"] = timed_us(lambda: identity.encode(state_b, state_a))
    out["fl.codec.identity_decode_us"] = timed_us(lambda: identity.decode(payload, state_a))
    delta_payload = delta.encode(state_b, state_a)
    out["fl.codec.delta_encode_us"] = timed_us(lambda: delta.encode(state_b, state_a))
    out["fl.codec.delta_decode_us"] = timed_us(lambda: delta.decode(delta_payload, state_a))
    raw_bytes = sum(value.nbytes for value in state_b.values())
    out["fl.codec.delta_ratio"] = raw_bytes / len(delta_payload.blob)

    blob = encode_payload(payload)
    out["nn.serialize.encode_payload_us"] = timed_us(lambda: encode_payload(payload))
    out["nn.serialize.decode_payload_us"] = timed_us(lambda: decode_payload(blob))
    for name in ("shm", "pipe", "tcp"):
        transport = make_transport(name)

        def publish_fetch():
            fetched = len(transport.fetch(transport.publish(blob)))
            transport.end_round()
            if fetched != len(blob):
                raise RuntimeError(f"{name} transport returned {fetched} bytes")

        try:
            out[f"fl.transport.{name}_publish_fetch_us"] = timed_us(publish_fetch)
            # Let the tcp blob server finish serving the last connection;
            # stopping its loop mid-handler logs a destroyed-task warning.
            time.sleep(0.05)
        finally:
            transport.close()

    accumulator = MeanAccumulator()
    out["nn.serialize.fold_us"] = timed_us(lambda: accumulator.fold(state_b, 140.0))
    out["nn.serialize.finalize_us"] = timed_us(accumulator.finalize)
    small = MeanAccumulator()
    out["nn.serialize.fold_small_us"] = timed_us(
        lambda: small.fold(small_state, float(XDEV_SHARD))
    )

    upload = encode_payload([ClientUpdate(
        client_id=0, num_samples=140, state=delta_payload, loss=1.0, train_seconds=0.1,
    )])
    message = encode_message(UPLOAD, {"task": 1}, upload)
    out["fl.net.message_encode_us"] = timed_us(
        lambda: encode_message(UPLOAD, {"task": 1}, upload)
    )
    out["fl.net.message_decode_us"] = timed_us(lambda: decode_message(message))
    big = encode_message(UPLOAD, {"task": 1}, blob)

    def frame_roundtrip():
        frame = encode_frame(big)
        decoder = FrameDecoder()
        frames = []
        for offset in range(0, len(frame), FRAME_CHUNK):
            frames += decoder.feed(frame[offset : offset + FRAME_CHUNK])
        if len(frames) != 1:
            raise RuntimeError(f"decoder returned {len(frames)} frames")

    out["fl.net.frame_roundtrip_us"] = timed_us(frame_roundtrip)
    out["fl.net.loopback_upload_us"] = _loopback_upload_us(big)
    return out


def _loopback_upload_us(message: bytes) -> float:
    """One framed upload written to a socket pair and read by a peer thread
    that acknowledges with a byte, as a server and an agent would split it."""
    near, far = socket.socketpair()

    def peer():
        while recv_frame(far) is not None:
            far.sendall(b"k")

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()

    def upload():
        send_frame(near, message)
        near.recv(1)

    try:
        return timed_us(upload)
    finally:
        near.close()
        thread.join(timeout=5)
        far.close()


def core_probes(seed: int, exp) -> dict:
    out = {}
    strategy = exp.strategy
    images = exp.clients[0].dataset.images
    out["core.client_style_us"] = timed_us(
        lambda: compute_client_style(images, strategy.encoder, use_local_clustering=True)
    )
    styles = list(strategy.client_styles.values())
    out["core.interpolation_us"] = timed_us(
        lambda: extract_interpolation_style(styles, use_global_clustering=True)
    )
    batch = images[:BATCH]
    out["style.encode_us"] = timed_us(lambda: strategy.encoder.encode(batch))
    features = strategy.encoder.encode(batch)
    out["style.adain_us"] = timed_us(
        lambda: adain(features, strategy.interpolation_style)
    )
    mu, sigma = per_sample_style_stats(strategy.encoder.encode(images))
    style_matrix = np.concatenate([mu, sigma], axis=1)
    out["clustering.finch_us"] = timed_us(lambda: finch(style_matrix, metric="cosine"))
    factory = shard_factory(seed)
    ids = iter(range(10**9))
    out["data.client_materialize_us"] = timed_us(lambda: factory(next(ids)))
    return out


def run_all(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    exp, state_a, state_b = _consecutive_states(seed)
    xdev = build_xdev(seed, 1)
    out = nn_probes(rng, exp, xdev)
    out.update(wire_probes(state_a, state_b, xdev.model.state_dict()))
    out.update(core_probes(seed, exp))
    return out
