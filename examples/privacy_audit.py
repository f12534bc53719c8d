"""Privacy audit: what can an attacker reconstruct from shared styles?

Runs the paper's two reconstruction attacks (§IV-B-3) against both sharing
granularities:

* sample-level style vectors — what CCST-style cross-client sharing
  exposes; and
* client-level aggregated vectors — the only thing a PARDON client uploads.

An attacker trains a style-inversion decoder (the GAN stand-in) and we
score the reconstructions with FID (higher = farther from the private
data = safer) and paired PSNR.

Run:  python examples/privacy_audit.py
"""

import numpy as np

from repro.data import synthetic_pacs
from repro.nn import SGD, build_cnn_model, cross_entropy
from repro.privacy import run_reconstruction_attack
from repro.style import InvertibleEncoder


def train_judge(suite):
    """Small classifier used by the inception-score-style metric."""
    pool = suite.merged(list(range(suite.num_domains)))
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(1)
    )
    optimizer = SGD(model.parameters(), lr=0.02, momentum=0.9)
    shuffle = np.random.default_rng(0)
    for _ in range(4):
        order = shuffle.permutation(len(pool))
        for start in range(0, len(pool), 32):
            idx = order[start : start + 32]
            model.zero_grad()
            _, grad = cross_entropy(model.forward(pool.images[idx]), pool.labels[idx])
            model.backward(grad_logits=grad)
            optimizer.step()
    return model


def main() -> None:
    victim_suite = synthetic_pacs(seed=0, samples_per_class=20)
    surrogate = synthetic_pacs(seed=777, samples_per_class=20)  # "public data"
    encoder = InvertibleEncoder(levels=1, seed=7)
    judge = train_judge(victim_suite)

    victim = victim_suite.dataset_for("photo")
    chunks = np.array_split(np.arange(len(victim)), 5)
    client_data = [victim.images[c] for c in chunks]

    print("Attack (i): third party trains the inverter on public data\n")
    for mode, label in (
        ("sample", "sample-level styles (CCST exposure)"),
        ("client", "client-level styles (PARDON exposure)"),
    ):
        report = run_reconstruction_attack(
            attacker_images=surrogate.merged([0, 1, 2, 3]).images,
            victim_images=victim.images,
            victim_client_datasets=client_data,
            mode=mode,
            encoder=encoder,
            judge=judge,
            rng=np.random.default_rng(5),
            epochs=30,
        )
        print(
            f"  {label}\n"
            f"    reconstructions: {report.num_reconstructions}"
            f" | FID vs private data: {report.fid:8.2f}"
            f" | IS-like score: {report.inception_score:.3f}"
        )
    print()
    print(
        "Reading: client-level reconstructions have far higher FID (they\n"
        "carry no per-image content — a client uploads ONE averaged vector)\n"
        "while sample-level styles let the attacker approximate individual\n"
        "images. This is the paper's Table IV / Figs. 6-7 conclusion."
    )


if __name__ == "__main__":
    main()
