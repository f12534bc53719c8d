"""Builders for the three benchmark suites used in the paper's evaluation.

Each builder mirrors the structure of the real dataset (domain count, class
count, split roles) at a scale a numpy training stack can handle; README.md
("Architecture map") documents the substitution.  Styles are *hand-shaped*
per suite so the domains carry the qualitative character of their namesakes
(e.g. the PACS "sketch" stand-in is desaturated and high-contrast, "photo" is
neutral), and every builder accepts a seed so experiments are reproducible.

Every builder returns a suite that renders nothing until read (see
:class:`repro.data.synthetic.RenderedDomains`) and records its own call as
``suite.spec``.  :func:`suite_from_spec` rebuilds a suite from that spec —
only a builder on the :data:`BUILDERS` allow-list, and only with bounded
arguments — which is how a lane renders a client's domains itself instead
of receiving its images.
"""

from __future__ import annotations

import functools
import inspect
import json
import math

import numpy as np

from repro.data.content import ContentBank
from repro.data.styles import DomainStyle
from repro.data.synthetic import (
    DomainSuite,
    RenderedDomains,
    class_counts,
    render_domain,
)
from repro.utils.rng import SeedTree

__all__ = [
    "synthetic_pacs",
    "synthetic_office_home",
    "synthetic_iwildcam",
    "synthetic_domain_sweep",
    "synthetic_skew",
    "BUILDERS",
    "RecipeError",
    "check_render",
    "spec_key",
    "suite_from_spec",
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


def _suite(
    name: str,
    tree: SeedTree,
    num_classes: int,
    image_size: int,
    domains: "list[tuple[str, DomainStyle, np.ndarray, object]]",
    **roles: "list[int]",
) -> DomainSuite:
    """A suite whose domain ``d`` renders ``domains[d] = (name, style,
    counts, key)`` from its own ``tree.generator("domain", key)`` over one
    shared :class:`ContentBank` (built at the first render)."""
    bank = functools.cache(
        lambda: ContentBank(num_classes, image_size, tree.generator("content"))
    )

    def render(index: int) -> np.ndarray:
        _, style, counts, key = domains[index]
        return render_domain(bank(), style, counts, tree.generator("domain", key))

    image_shape = (3, image_size, image_size)
    names = [domain[0] for domain in domains]
    return DomainSuite(
        name=name,
        num_classes=num_classes,
        image_shape=image_shape,
        domain_names=names,
        datasets=RenderedDomains(
            render, [domain[2] for domain in domains], image_shape
        ),
        train_domains=roles.pop("train_domains", list(range(len(names)))),
        **roles,
    )


def _recorded(builder):
    """``builder``, recording each call's arguments (defaults included) as
    the returned suite's ``spec``."""
    signature = inspect.signature(builder)

    @functools.wraps(builder)
    def build(*args, **kwargs) -> DomainSuite:
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        suite = builder(*args, **kwargs)
        suite.spec = _spec(builder.__name__, call.arguments)
        return suite

    return build


def _spec(builder: str, args: dict) -> "dict | None":
    """The suite's spec, with numpy scalars as plain numbers; ``None`` if
    an argument is not a plain number (such a suite ships clients' images,
    since no lane could rebuild it from JSON)."""
    plain = {}
    for name, value in args.items():
        if isinstance(value, np.generic):
            value = value.item()
        if type(value) not in (int, float):
            return None
        plain[name] = value
    return {"builder": builder, "args": plain}


def _styled_suite(
    name: str,
    styles: dict[str, DomainStyle],
    num_classes: int,
    samples_per_class: int,
    image_size: int,
    seed: int,
) -> DomainSuite:
    counts = class_counts(num_classes, samples_per_class)
    return _suite(
        name,
        SeedTree(seed).child(name),
        num_classes,
        image_size,
        [(domain, style, counts, domain) for domain, style in styles.items()],
    )


@_recorded
def synthetic_pacs(
    seed: int = 0, samples_per_class: int = 40, image_size: int = 16
) -> DomainSuite:
    """PACS stand-in: 4 domains (photo/art_painting/cartoon/sketch), 7 classes."""
    return _styled_suite(
        "synthetic_pacs", _PACS_STYLES, 7, samples_per_class, image_size, seed
    )


@_recorded
def synthetic_office_home(
    seed: int = 0, samples_per_class: int = 6, image_size: int = 16
) -> DomainSuite:
    """Office-Home stand-in: 4 domains (art/clipart/product/real_world), 65 classes.

    Like the real Office-Home, samples per class are scarce relative to the
    class count, which is what makes the benchmark harder than PACS.
    """
    return _styled_suite(
        "synthetic_office_home",
        _OFFICE_HOME_STYLES,
        65,
        samples_per_class,
        image_size,
        seed,
    )


@_recorded
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

    # Long-tail class prior shared by all cameras (Zipf-like).
    prior = 1.0 / np.arange(1, num_classes + 1) ** 1.2
    prior = prior / prior.sum()

    domains = []
    for domain_id in range(total_domains):
        domain_name = f"camera_{domain_id:03d}"
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
        domains.append((domain_name, style, samples_per_class, domain_id))

    return _suite(
        "synthetic_iwildcam",
        tree,
        num_classes,
        image_size,
        domains,
        train_domains=list(range(num_train_domains)),
        val_domains=list(
            range(num_train_domains, num_train_domains + num_val_domains)
        ),
        test_domains=list(
            range(num_train_domains + num_val_domains, total_domains)
        ),
    )


@_recorded
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
    counts = class_counts(num_classes, samples_per_class)
    domains = []
    for domain_id in range(num_domains):
        domain_name = f"domain_{domain_id:02d}"
        style = DomainStyle.random(
            domain_name, tree.generator("style", domain_id),
            gain_spread=gain_spread,
        )
        domains.append((domain_name, style, counts, domain_id))
    return _suite(
        "synthetic_domain_sweep",
        tree,
        num_classes,
        image_size,
        domains,
    )


@_recorded
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
    total_per_domain = num_classes * samples_per_class
    domains = []
    for domain_id in range(num_domains):
        domain_name = f"skew_{domain_id:02d}"
        style = DomainStyle.random(
            domain_name, tree.generator("style", domain_id),
            gain_spread=style_spread,
        )
        counts_rng = tree.generator("counts", domain_id)
        weights = counts_rng.dirichlet(np.full(num_classes, 1.0 / label_skew))
        counts = counts_rng.multinomial(total_per_domain, weights)
        domains.append((domain_name, style, counts.astype(np.int64), domain_id))
    return _suite(
        "synthetic_skew",
        tree,
        num_classes,
        image_size,
        domains,
    )


#: The builders a suite spec may name: a lane renders nothing else.
BUILDERS = {
    builder.__name__: builder
    for builder in (
        synthetic_pacs,
        synthetic_office_home,
        synthetic_iwildcam,
        synthetic_domain_sweep,
        synthetic_skew,
    )
}

#: Bounds of the integer builder arguments that size loops or arrays
#: before any domain renders (domain and class counts, image side; the
#: content bank's own minimums); any other is in ``[0, 2**31)``.  The
#: rendered bytes themselves are bounded per domain by
#: :func:`check_render`.
_ARG_LIMITS = {
    "num_domains": (0, 1024),
    "num_train_domains": (0, 1024),
    "num_val_domains": (0, 1024),
    "num_test_domains": (0, 1024),
    "num_classes": (2, 4096),
    "image_size": (4, 1024),
    "seed": (0, 2**63 - 1),
}
_INT_LIMITS = (0, 2**31 - 1)
_MAX_FLOAT = 1e6


class RecipeError(ValueError):
    """A suite spec or client recipe a lane refuses, before it renders."""


def spec_key(spec: dict) -> str:
    """One canonical string per suite spec (its compact sorted JSON)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def suite_from_spec(spec: object) -> DomainSuite:
    """The suite ``spec`` (``{"builder": name, "args": {...}}``, as a
    builder records it in ``suite.spec``) describes, not yet rendered.

    Refused with :class:`RecipeError` unless the builder is in
    :data:`BUILDERS`, every argument is one the builder takes, of its
    default's type (a float argument also takes an int), finite and within
    bounds, and the builder itself accepts them."""
    if not isinstance(spec, dict) or set(spec) != {"builder", "args"}:
        raise RecipeError(f"malformed suite spec {spec!r}")
    name, args = spec["builder"], spec["args"]
    builder = BUILDERS.get(name) if type(name) is str else None
    if builder is None:
        raise RecipeError(f"suite builder {name!r} is not allowed")
    if not isinstance(args, dict):
        raise RecipeError(f"suite arguments {args!r} are not an object")
    parameters = inspect.signature(builder).parameters
    for key, value in args.items():
        if key not in parameters:
            raise RecipeError(f"{name} takes no argument {key!r}")
        default = parameters[key].default
        if type(default) is int:
            low, high = _ARG_LIMITS.get(key, _INT_LIMITS)
            ok = type(value) is int and low <= value <= high
        else:
            ok = (
                type(value) in (int, float)
                and math.isfinite(value)
                and 0 <= value <= _MAX_FLOAT
            )
        if not ok:
            raise RecipeError(f"suite argument {key}={value!r} is out of bounds")
    try:
        return builder(**args)
    except ValueError as exc:
        raise RecipeError(f"{name} refused {args}: {exc}") from None


def check_render(suite: DomainSuite, index: int, max_bytes: int) -> None:
    """Refuse (:class:`RecipeError`) to render domain ``index`` of
    ``suite`` if its images, or the content bank they are drawn over,
    would take more than ``max_bytes``."""
    if type(index) is not int or not 0 <= index < suite.num_domains:
        raise RecipeError(f"{suite.name} has no domain {index!r}")
    bank = suite.num_classes * math.prod(suite.image_shape[1:]) * 8
    size = max(suite.datasets.nbytes(index), bank)
    if size > max_bytes:
        raise RecipeError(
            f"domain {index} of {suite.name} would render {size} bytes "
            f"(at most {max_bytes})"
        )
