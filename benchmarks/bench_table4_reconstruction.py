"""Table IV — reconstruction-attack quality: sample- vs client-level styles.

Attack (i): a third party trains the style inverter on a *public surrogate*
dataset (the Tiny-ImageNet substitute: an independently seeded suite) and
attacks compromised style vectors.  Attack (ii): a malicious client trains
on its own private data.  Each attack runs against per-sample style vectors
(what CCST shares) and per-client aggregated vectors (what PARDON shares),
per PACS domain.

Shape to check: FID(client) >> FID(sample) and IS(client) < IS(sample) for
both attacks and all domains — the client-level vector leaks far less.
"""

from __future__ import annotations

import numpy as np

from common import emit, is_fast_mode

from repro.data import synthetic_pacs
from repro.nn import SGD, build_cnn_model, cross_entropy
from repro.privacy import run_reconstruction_attack
from repro.style import FrozenConvEncoder, InvertibleEncoder
from repro.utils.tables import format_table

DOMAIN_LABELS = {"photo": "P", "art_painting": "A", "cartoon": "C", "sketch": "S"}


def _train_judge(suite, rng):
    """Task classifier used by the inception-score analogue."""
    pool = suite.merged(list(range(suite.num_domains)))
    model = build_cnn_model(suite.image_shape, suite.num_classes, rng=rng)
    optimizer = SGD(model.parameters(), lr=0.02, momentum=0.9)
    epochs = 2 if is_fast_mode() else 6
    n = len(pool)
    shuffle = np.random.default_rng(0)
    for _ in range(epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, 32):
            idx = order[start : start + 32]
            model.zero_grad()
            logits = model.forward(pool.images[idx])
            _, grad = cross_entropy(logits, pool.labels[idx])
            model.backward(grad_logits=grad)
            optimizer.step()
    return model


def _run() -> str:
    spc = 8 if is_fast_mode() else 24
    epochs = 10 if is_fast_mode() else 40
    victim_suite = synthetic_pacs(seed=0, samples_per_class=spc)
    surrogate = synthetic_pacs(seed=777, samples_per_class=spc)
    encoder = InvertibleEncoder(levels=1, seed=7)
    fid_encoder = FrozenConvEncoder(seed=11)
    judge = _train_judge(victim_suite, np.random.default_rng(3))

    attacks = {
        # (i) third party trains on the public surrogate.
        "Attack (i)": surrogate.merged(list(range(surrogate.num_domains))).images,
        # (ii) a malicious client trains on its own PACS-like photo data.
        "Attack (ii)": victim_suite.dataset_for("photo").images,
    }

    rows = []
    for attack_name, attacker_images in attacks.items():
        for domain in victim_suite.domain_names:
            victim = victim_suite.dataset_for(domain)
            # The victim domain's data split across 6 clients.
            chunks = np.array_split(np.arange(len(victim)), 6)
            client_data = [victim.images[c] for c in chunks]
            metrics = {}
            for mode in ("sample", "client"):
                report = run_reconstruction_attack(
                    attacker_images=attacker_images,
                    victim_images=victim.images,
                    victim_client_datasets=client_data,
                    mode=mode,
                    encoder=encoder,
                    judge=judge,
                    rng=np.random.default_rng(11),
                    epochs=epochs,
                    fid_encoder=fid_encoder,
                )
                metrics[mode] = report
            rows.append(
                [
                    attack_name,
                    DOMAIN_LABELS[domain],
                    f"{metrics['sample'].fid:.2f}",
                    f"{metrics['client'].fid:.2f}",
                    f"{metrics['sample'].inception_score:.3f}",
                    f"{metrics['client'].inception_score:.3f}",
                ]
            )
    table = format_table(
        [
            "Attack", "Domain",
            "FID sample-style", "FID client-style (higher=safer)",
            "IS sample-style", "IS client-style (lower=safer)",
        ],
        rows,
        title="Table IV — reconstruction quality from shared style vectors",
    )
    return table


def test_table4_reconstruction(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("table4_reconstruction", table)
