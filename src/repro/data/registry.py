"""Builders for the three benchmark suites used in the paper's evaluation.

Each builder mirrors the structure of the real dataset (domain count, class
count, split roles) at a scale a numpy training stack can handle; README.md
("Architecture map") documents the substitution.  Styles are *hand-shaped*
per suite so the domains carry the qualitative character of their namesakes
(e.g. the PACS "sketch" stand-in is desaturated and high-contrast, "photo" is
neutral), and every builder accepts a seed so experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.data.content import ContentBank
from repro.data.styles import DomainStyle
from repro.data.synthetic import DomainSuite, LabeledDataset, generate_domain_dataset
from repro.utils.rng import SeedTree

__all__ = [
    "synthetic_pacs",
    "synthetic_office_home",
    "synthetic_iwildcam",
    "synthetic_domain_sweep",
    "synthetic_skew",
]

# Hand-shaped styles: large, *qualitatively distinct* channel statistics per
# domain.  These numbers are the domain gap; tests assert they differ.
_PACS_STYLES = {
    "photo": DomainStyle(
        name="photo",
        color_weights=(0.9, 0.85, 0.8),
        channel_gain=(1.0, 1.0, 1.0),
        channel_bias=(0.0, 0.0, 0.0),
        contrast=1.0,
        texture_amp=0.05,
        texture_freq=2.0,
        texture_angle=0.3,
        noise_std=0.05,
    ),
    "art_painting": DomainStyle(
        name="art_painting",
        color_weights=(1.0, 0.6, 0.9),
        channel_gain=(1.5, 0.8, 1.2),
        channel_bias=(0.3, -0.1, 0.2),
        contrast=0.8,
        texture_amp=0.25,
        texture_freq=3.0,
        texture_angle=1.1,
        noise_std=0.06,
    ),
    "cartoon": DomainStyle(
        name="cartoon",
        color_weights=(0.7, 1.0, 0.5),
        channel_gain=(0.7, 1.6, 0.9),
        channel_bias=(-0.3, 0.4, -0.2),
        contrast=1.6,
        texture_amp=0.1,
        texture_freq=1.0,
        texture_angle=2.2,
        noise_std=0.03,
    ),
    "sketch": DomainStyle(
        name="sketch",
        color_weights=(0.5, 0.5, 0.5),
        channel_gain=(0.45, 0.45, 0.5),
        channel_bias=(0.55, 0.55, 0.6),
        contrast=2.2,
        texture_amp=0.08,
        texture_freq=4.0,
        texture_angle=0.7,
        noise_std=0.04,
    ),
}

_OFFICE_HOME_STYLES = {
    "art": DomainStyle(
        name="art",
        color_weights=(1.0, 0.7, 0.8),
        channel_gain=(1.4, 0.9, 1.1),
        channel_bias=(0.25, -0.05, 0.15),
        contrast=0.85,
        texture_amp=0.2,
        texture_freq=2.5,
        texture_angle=0.9,
        noise_std=0.05,
    ),
    "clipart": DomainStyle(
        name="clipart",
        color_weights=(0.8, 1.0, 0.6),
        channel_gain=(0.8, 1.5, 0.8),
        channel_bias=(-0.25, 0.35, -0.15),
        contrast=1.7,
        texture_amp=0.05,
        texture_freq=1.5,
        texture_angle=2.0,
        noise_std=0.03,
    ),
    "product": DomainStyle(
        name="product",
        color_weights=(0.85, 0.85, 0.9),
        channel_gain=(1.1, 1.05, 1.15),
        channel_bias=(0.45, 0.45, 0.5),
        contrast=1.2,
        texture_amp=0.02,
        texture_freq=1.0,
        texture_angle=0.0,
        noise_std=0.02,
    ),
    "real_world": DomainStyle(
        name="real_world",
        color_weights=(0.9, 0.85, 0.75),
        channel_gain=(1.0, 0.95, 0.9),
        channel_bias=(0.05, 0.0, -0.05),
        contrast=1.0,
        texture_amp=0.12,
        texture_freq=3.5,
        texture_angle=1.6,
        noise_std=0.07,
    ),
}


def _build_suite(
    name: str,
    styles: dict[str, DomainStyle],
    num_classes: int,
    samples_per_class: int,
    image_size: int,
    seed: int,
) -> DomainSuite:
    tree = SeedTree(seed).child(name)
    bank = ContentBank(num_classes, image_size, tree.generator("content"))
    datasets: list[LabeledDataset] = []
    domain_names = list(styles)
    for domain_id, domain_name in enumerate(domain_names):
        datasets.append(
            generate_domain_dataset(
                content_bank=bank,
                style=styles[domain_name],
                domain_id=domain_id,
                samples_per_class=samples_per_class,
                rng=tree.generator("domain", domain_name),
            )
        )
    return DomainSuite(
        name=name,
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        domain_names=domain_names,
        datasets=datasets,
        train_domains=list(range(len(domain_names))),
    )


def synthetic_pacs(
    seed: int = 0, samples_per_class: int = 40, image_size: int = 16
) -> DomainSuite:
    """PACS stand-in: 4 domains (photo/art_painting/cartoon/sketch), 7 classes."""
    return _build_suite(
        "synthetic_pacs", _PACS_STYLES, 7, samples_per_class, image_size, seed
    )


def synthetic_office_home(
    seed: int = 0, samples_per_class: int = 6, image_size: int = 16
) -> DomainSuite:
    """Office-Home stand-in: 4 domains (art/clipart/product/real_world), 65 classes.

    Like the real Office-Home, samples per class are scarce relative to the
    class count, which is what makes the benchmark harder than PACS.
    """
    return _build_suite(
        "synthetic_office_home",
        _OFFICE_HOME_STYLES,
        65,
        samples_per_class,
        image_size,
        seed,
    )


def synthetic_iwildcam(
    seed: int = 0,
    num_train_domains: int = 24,
    num_val_domains: int = 6,
    num_test_domains: int = 8,
    num_classes: int = 30,
    mean_samples_per_domain: int = 60,
    image_size: int = 16,
) -> DomainSuite:
    """IWildCam stand-in: many camera domains, long-tail classes, 3-way split.

    Mirrors WILDS IWildCam structure (243/32/48 domains, 182 classes) at a
    tractable scale while keeping the properties the paper's Table III leans
    on: far more domains than PACS, random per-camera styles, a shared
    long-tail class prior, and per-domain class subsets (most cameras never
    see most species).
    """
    total_domains = num_train_domains + num_val_domains + num_test_domains
    if min(num_train_domains, num_val_domains, num_test_domains) < 1:
        raise ValueError("every split needs at least one domain")
    tree = SeedTree(seed).child("synthetic_iwildcam")
    bank = ContentBank(num_classes, image_size, tree.generator("content"))

    # Long-tail class prior shared by all cameras (Zipf-like).
    prior = 1.0 / np.arange(1, num_classes + 1) ** 1.2
    prior = prior / prior.sum()

    datasets: list[LabeledDataset] = []
    domain_names: list[str] = []
    for domain_id in range(total_domains):
        domain_name = f"camera_{domain_id:03d}"
        domain_names.append(domain_name)
        style_rng = tree.generator("style", domain_id)
        style = DomainStyle.random(domain_name, style_rng, gain_spread=0.8)
        counts_rng = tree.generator("counts", domain_id)
        # Each camera sees a random subset of species, with long-tail counts.
        n_present = int(counts_rng.integers(num_classes // 3, num_classes + 1))
        present = counts_rng.choice(num_classes, size=n_present, replace=False)
        weights = prior[present] / prior[present].sum()
        total = max(
            int(counts_rng.poisson(mean_samples_per_domain)), num_classes // 3
        )
        draws = counts_rng.multinomial(total, weights)
        samples_per_class = np.zeros(num_classes, dtype=np.int64)
        samples_per_class[present] = draws
        datasets.append(
            generate_domain_dataset(
                content_bank=bank,
                style=style,
                domain_id=domain_id,
                samples_per_class=samples_per_class,
                rng=tree.generator("domain", domain_id),
            )
        )

    train = list(range(num_train_domains))
    val = list(range(num_train_domains, num_train_domains + num_val_domains))
    test = list(range(num_train_domains + num_val_domains, total_domains))
    return DomainSuite(
        name="synthetic_iwildcam",
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        domain_names=domain_names,
        datasets=datasets,
        train_domains=train,
        val_domains=val,
        test_domains=test,
    )


def synthetic_domain_sweep(
    seed: int = 0,
    num_domains: int = 6,
    num_classes: int = 8,
    samples_per_class: int = 20,
    image_size: int = 16,
    gain_spread: float = 0.8,
) -> DomainSuite:
    """Domain-count sweep suite: ``num_domains`` randomly styled domains,
    balanced classes.

    Where PACS/Office-Home pin the domain count at 4, this builder makes
    the count a knob — the scenario axis the alignment-flavoured methods
    (FedAlign, FedCCRL) are most sensitive to, since their fused per-class
    targets average over more, and more diverse, client geometries as
    domains multiply.  ``gain_spread`` widens the random style gap.
    """
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    tree = SeedTree(seed).child("synthetic_domain_sweep")
    bank = ContentBank(num_classes, image_size, tree.generator("content"))
    datasets: list[LabeledDataset] = []
    domain_names: list[str] = []
    for domain_id in range(num_domains):
        domain_name = f"domain_{domain_id:02d}"
        domain_names.append(domain_name)
        style = DomainStyle.random(
            domain_name, tree.generator("style", domain_id),
            gain_spread=gain_spread,
        )
        datasets.append(
            generate_domain_dataset(
                content_bank=bank,
                style=style,
                domain_id=domain_id,
                samples_per_class=samples_per_class,
                rng=tree.generator("domain", domain_id),
            )
        )
    return DomainSuite(
        name="synthetic_domain_sweep",
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        domain_names=domain_names,
        datasets=datasets,
        train_domains=list(range(num_domains)),
    )


def synthetic_skew(
    seed: int = 0,
    num_domains: int = 4,
    num_classes: int = 8,
    samples_per_class: int = 20,
    image_size: int = 16,
    label_skew: float = 3.0,
    style_spread: float = 0.8,
) -> DomainSuite:
    """Label/style-skew sweep suite: each domain draws its class histogram
    from a Dirichlet prior with concentration ``1 / label_skew``.

    ``label_skew`` close to 0 gives near-balanced domains; large values
    concentrate each domain on a few classes (some classes absent
    entirely), which is the regime that separates payload-carrying
    methods — fused per-class targets and prototypes must then be
    assembled across clients that each see only a class *subset*.
    ``style_spread`` widens the random style gap the same way
    ``gain_spread`` does for the camera suite.
    """
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    if label_skew <= 0:
        raise ValueError(f"label_skew must be > 0, got {label_skew}")
    tree = SeedTree(seed).child("synthetic_skew")
    bank = ContentBank(num_classes, image_size, tree.generator("content"))
    total_per_domain = num_classes * samples_per_class
    datasets: list[LabeledDataset] = []
    domain_names: list[str] = []
    for domain_id in range(num_domains):
        domain_name = f"skew_{domain_id:02d}"
        domain_names.append(domain_name)
        style = DomainStyle.random(
            domain_name, tree.generator("style", domain_id),
            gain_spread=style_spread,
        )
        counts_rng = tree.generator("counts", domain_id)
        weights = counts_rng.dirichlet(np.full(num_classes, 1.0 / label_skew))
        counts = counts_rng.multinomial(total_per_domain, weights)
        datasets.append(
            generate_domain_dataset(
                content_bank=bank,
                style=style,
                domain_id=domain_id,
                samples_per_class=counts.astype(np.int64),
                rng=tree.generator("domain", domain_id),
            )
        )
    return DomainSuite(
        name="synthetic_skew",
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        domain_names=domain_names,
        datasets=datasets,
        train_domains=list(range(num_domains)),
    )
