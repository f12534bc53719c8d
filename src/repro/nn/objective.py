"""Composable training objectives: named, weighted loss terms.

Every FedDG method in this repo trains the same split model
(:class:`repro.nn.FeatureClassifierModel`) with the same loop skeleton —
permute, batch, forward, accumulate gradients at the logits and/or the
embedding, step — and differs only in *which* loss terms it sums and with
what weights.  This module makes that difference declarative (the
``CompositeLoss`` idiom): a strategy states its objective as an ordered
list of ``(name, weight, term)`` bindings, and the generic epoch runner
below executes it on the trainer's ``(K, ...)`` client stacks.

Why this matters beyond tidiness:

* DG objectives become *config*, not subclass surgery — ``--objective
  "proto_nce=0.7"`` reweights a method per experiment, and a new method is
  mostly a new term list;
* every objective-driven strategy gets the trainer's vectorized
  ``(K, ...)`` stacks for free, because the runner (not each strategy)
  owns the batched loop.

Bitwise contract
----------------
The runner and terms preserve the historical strategies' float operand
order exactly: term weights multiply *inside* each term at the position
the hand-written loops multiplied them (``weight * 2.0 * deviation /
batch``), gradient buffers start at zeros and terms accumulate with
``+=`` (``0.0 + x == x`` bitwise), and a weight of ``1.0`` is harmless
because ``x * 1.0 == x`` in IEEE-754.  Every term is written once, over
the ``(K, ...)`` stacks (K = 1 is one client).  A term whose math does not
vectorize bitwise loops over the slices inside that one form: ``class_align``
takes each slice's in-batch class means, ``proto_nce`` runs
:func:`prototype_nce` per slice.

Terms treat externally supplied references (the strategy's fused
``class_targets``: FPL's prototypes, FedAlign's alignment targets) and
in-batch class means as *constants* (stop-gradient), which is the
FedSR/FPL reading of those regularizers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.nn.ensemble import (
    EnsembleEmbeddingL2Loss,
    EnsembleTripletStyleLoss,
    ensemble_cross_entropy,
)
from repro.nn.functional import softmax

__all__ = [
    "CompositeObjective",
    "EnsembleStepContext",
    "ObjectiveTerm",
    "ensemble_dataset_embeddings",
    "make_term",
    "objective_term_specs",
    "parse_objective_overrides",
    "prototype_nce",
    "register_objective_term",
    "run_objective_ensemble",
]


# --------------------------------------------------------------------------
# The step context: what one optimization step exposes to the terms
# --------------------------------------------------------------------------


@dataclass
class EnsembleStepContext:
    """One batch step of a ``(K, ...)`` client stack: its tensors, the
    shared mutable gradient buffers, and the strategy's fused per-class
    targets (``{class: (dim,) vector}``, one mapping shared by every slice,
    or ``None`` for a method without them).

    ``views`` counts the ``batch``-row blocks concatenated along each
    slice's rows: 1 for plain batches, 2 when a second index-aligned view
    (style-transferred / augmented positives) follows the first ``batch``
    rows, one more per re-styled copy a strategy's ``batch_views`` adds;
    ``labels`` (``(K, batch)``) always covers the *primary* view.  Terms
    accumulate weighted gradients into ``grad_logits`` / ``grad_embedding``
    in place and return their weighted losses, shape ``(K,)``.

    ``extras`` is no field: the frozen benchmark harness still passes
    ``extras=[{}] * K``, so it accepts empty mappings (ROADMAP item 6).
    """

    labels: np.ndarray
    embeddings: np.ndarray
    logits: np.ndarray
    batch: int
    views: int = 1
    grad_logits: np.ndarray | None = None
    grad_embedding: np.ndarray | None = None
    class_targets: Mapping[int, np.ndarray] | None = None
    extras: InitVar[Sequence[Mapping[str, Any]] | None] = None

    def __post_init__(self, extras) -> None:
        if extras and any(extras):
            raise ValueError("per-slice extras are gone; use class_targets")

    @property
    def stack(self) -> int:
        return int(self.embeddings.shape[0])

    def view_labels(self) -> np.ndarray:
        """Labels tiled across the concatenated views, ``(K, rows)``."""
        if self.views == 1:
            return self.labels
        return np.concatenate([self.labels] * self.views, axis=1)


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


class ObjectiveTerm:
    """One named loss term.  Subclasses implement :meth:`apply_ensemble`,
    the term's one form, over the step's ``(K, ...)`` stacks: it receives
    the binding's weight, must *fold it into every loss and gradient it
    emits*, and returns the ``(K,)`` weighted losses."""

    name = "term"
    #: Whether the term routes gradient through the embedding entry point
    #: (the runner only allocates ``grad_embedding`` when some term does).
    uses_embedding = True

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        raise NotImplementedError


def _mean_square(
    ctx: EnsembleStepContext, deviation: np.ndarray, weight: float
) -> np.ndarray:
    """Each slice's weighted mean over rows of ``||deviation_row||^2``; its
    gradient accumulates into ``grad_embedding``."""
    rows = deviation.shape[1]
    ctx.grad_embedding += weight * 2.0 * deviation / rows
    return weight * np.mean(np.sum(deviation**2, axis=2), axis=1)


class CrossEntropyTerm(ObjectiveTerm):
    """Softmax cross-entropy on the logits.

    ``all_views=True`` supervises every concatenated view (PARDON's
    transferred half joining CE as augmentation); otherwise two-view
    batches are supervised on the primary view only.
    """

    name = "ce"
    uses_embedding = False

    def __init__(self, all_views: bool = False) -> None:
        self.all_views = all_views

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        if ctx.views > 1 and not self.all_views:
            losses, grad = ensemble_cross_entropy(
                ctx.logits[:, : ctx.batch], ctx.labels
            )
            ctx.grad_logits[:, : ctx.batch] += weight * grad
        else:
            losses, grad = ensemble_cross_entropy(ctx.logits, ctx.view_labels())
            ctx.grad_logits += weight * grad
        return weight * losses


class EmbeddingNormTerm(ObjectiveTerm):
    """FedSR's L2 bound on the embedding norm (all rows of all views)."""

    name = "embed_l2"

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        return _mean_square(ctx, ctx.embeddings, weight)


class ClassAlignTerm(ObjectiveTerm):
    """Pull each embedding toward its class's *in-batch* mean
    (stop-gradient reference) — FedSR's conditional-alignment surrogate.
    The means are each slice's own, so they are taken slice by slice."""

    name = "class_align"

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        embeddings = ctx.embeddings
        labels = ctx.view_labels()
        references = np.empty_like(embeddings)
        for slice_embeddings, slice_labels, slice_references in zip(
            embeddings, labels, references
        ):
            for label in np.unique(slice_labels):
                mask = slice_labels == label
                slice_references[mask] = slice_embeddings[mask].mean(axis=0)
        return _mean_square(ctx, embeddings - references, weight)


class FeatureAlignTerm(ObjectiveTerm):
    """Pull each embedding toward a *globally fused* per-class target
    (FedAlign): the context's ``class_targets``, treated as constants.
    Classes without a target yet (round 1, or absent everywhere)
    contribute nothing."""

    name = "align"

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        targets = ctx.class_targets or {}
        if not targets:
            return np.zeros(ctx.stack)
        embeddings = ctx.embeddings
        labels = ctx.view_labels()
        deviation = np.zeros_like(embeddings)
        for label in np.unique(labels):
            target = targets.get(int(label))
            if target is None:
                continue
            mask = labels == label
            deviation[mask] = embeddings[mask] - target
        return _mean_square(ctx, deviation, weight)


def prototype_nce(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: Mapping[int, np.ndarray],
    temperature: float,
) -> tuple[float, np.ndarray]:
    """InfoNCE over cosine similarities to per-class prototypes (FPL).

    Embeddings and prototypes are L2-normalized before the similarity —
    the contrastive head operates on the unit sphere, which also keeps the
    regularizer bounded and numerically stable.  Returns ``(loss,
    grad_wrt_embeddings)``; prototypes are constants, and classes without
    a prototype are skipped.
    """
    known = sorted(prototypes)
    if not known:
        return 0.0, np.zeros_like(embeddings)
    usable = np.isin(labels, known)
    if not np.any(usable):
        return 0.0, np.zeros_like(embeddings)
    proto_matrix = np.stack([prototypes[c] for c in known])
    proto_norms = np.linalg.norm(proto_matrix, axis=1, keepdims=True)
    proto_unit = proto_matrix / np.maximum(proto_norms, 1e-12)
    class_to_column = {c: i for i, c in enumerate(known)}

    z = embeddings[usable]
    y = np.array([class_to_column[int(label)] for label in labels[usable]])
    z_norms = np.linalg.norm(z, axis=1, keepdims=True)
    z_unit = z / np.maximum(z_norms, 1e-12)
    logits = z_unit @ proto_unit.T / temperature
    probs = softmax(logits, axis=1)
    count = z.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(count), y] + 1e-12)))
    grad_logits = probs.copy()
    grad_logits[np.arange(count), y] -= 1.0
    grad_logits /= count
    # Chain through the normalization: d z_unit / d z projects out the
    # radial component.
    grad_unit = grad_logits @ proto_unit / temperature
    radial = np.sum(grad_unit * z_unit, axis=1, keepdims=True)
    grad_z = (grad_unit - radial * z_unit) / np.maximum(z_norms, 1e-12)
    full_grad = np.zeros_like(embeddings)
    full_grad[usable] = grad_z
    return loss, full_grad


class ProtoNCETerm(ObjectiveTerm):
    """FPL's prototype-contrastive head over the context's
    ``class_targets``, one :func:`prototype_nce` per slice."""

    name = "proto_nce"

    def __init__(self, temperature: float = 0.5) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        labels = ctx.view_labels()
        losses = np.zeros(ctx.stack)
        prototypes = ctx.class_targets or {}
        for k in range(ctx.stack):
            loss, grad = prototype_nce(
                ctx.embeddings[k], labels[k], prototypes, self.temperature
            )
            ctx.grad_embedding[k] += weight * grad
            losses[k] = weight * loss
        return losses


class TripletStyleTerm(ObjectiveTerm):
    """PARDON's triplet loss between the primary view (anchors) and the
    second view (positives); requires a two-view batch."""

    name = "triplet_style"

    def __init__(self, margin: float = 1.0, hinge: bool = True) -> None:
        self.margin = margin
        self.hinge = hinge

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        batch = ctx.batch
        triplet = EnsembleTripletStyleLoss(margin=self.margin, hinge=self.hinge)
        losses = triplet.forward(
            ctx.embeddings[:, :batch], ctx.embeddings[:, batch:], ctx.labels
        )
        grad_anchor, grad_positive = triplet.backward()
        ctx.grad_embedding[:, :batch] += weight * grad_anchor
        ctx.grad_embedding[:, batch:] += weight * grad_positive
        return weight * losses


class PairNormTerm(ObjectiveTerm):
    """PARDON's embedding-L2 regularizer over both halves of a two-view
    batch (Eq. 8)."""

    name = "pair_l2"

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        batch = ctx.batch
        regularizer = EnsembleEmbeddingL2Loss()
        losses = regularizer.forward(
            ctx.embeddings[:, :batch], ctx.embeddings[:, batch:]
        )
        grad_anchor, grad_positive = regularizer.backward()
        ctx.grad_embedding[:, :batch] += weight * grad_anchor
        ctx.grad_embedding[:, batch:] += weight * grad_positive
        return weight * losses


class ConsistencyTerm(ObjectiveTerm):
    """FedCCRL's augmentation-consistency term: mean squared distance
    between the primary and augmented views' embeddings (gradients flow to
    both views); requires a two-view batch."""

    name = "consistency"

    def apply_ensemble(self, ctx: EnsembleStepContext, weight: float) -> np.ndarray:
        batch = ctx.batch
        diff = ctx.embeddings[:, :batch] - ctx.embeddings[:, batch:]
        grad = weight * 2.0 * diff / diff[0].size
        ctx.grad_embedding[:, :batch] += grad
        ctx.grad_embedding[:, batch:] -= grad
        return weight * np.mean(diff**2, axis=(1, 2))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

OBJECTIVE_TERMS: dict[str, Callable[..., ObjectiveTerm]] = {}


def register_objective_term(
    name: str, factory: Callable[..., ObjectiveTerm]
) -> None:
    """Register a term factory under ``name`` (mirrors the codec /
    transport / aggregator registries)."""
    if name in OBJECTIVE_TERMS:
        raise ValueError(f"objective term {name!r} is already registered")
    OBJECTIVE_TERMS[name] = factory


def objective_term_specs() -> tuple[str, ...]:
    return tuple(sorted(OBJECTIVE_TERMS))


def make_term(name: str, **params: Any) -> ObjectiveTerm:
    try:
        factory = OBJECTIVE_TERMS[name]
    except KeyError:
        raise ValueError(
            f"unknown objective term {name!r}; registered terms: "
            f"{', '.join(objective_term_specs())}"
        ) from None
    return factory(**params)


for _name, _factory in (
    ("ce", CrossEntropyTerm),
    ("embed_l2", EmbeddingNormTerm),
    ("class_align", ClassAlignTerm),
    ("align", FeatureAlignTerm),
    ("proto_nce", ProtoNCETerm),
    ("triplet_style", TripletStyleTerm),
    ("pair_l2", PairNormTerm),
    ("consistency", ConsistencyTerm),
):
    register_objective_term(_name, _factory)


# --------------------------------------------------------------------------
# Composite objective
# --------------------------------------------------------------------------


def parse_objective_overrides(spec: str | Mapping[str, float]) -> dict[str, float]:
    """Parse a ``"ce=1,proto_nce=0.7"`` override spec into a weight map.

    Validates syntax and non-negativity; *name* validity is checked against
    a concrete objective by :meth:`CompositeObjective.with_overrides` (the
    set of legal names depends on the strategy's term list).
    """
    if isinstance(spec, Mapping):
        overrides = {str(k): float(v) for k, v in spec.items()}
    else:
        overrides = {}
        for chunk in str(spec).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, sep, value = chunk.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ValueError(
                    f"bad objective override {chunk!r}: expected 'term=weight'"
                )
            try:
                overrides[name] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad objective override {chunk!r}: weight {value!r} "
                    f"is not a number"
                ) from None
    for name, weight in overrides.items():
        if not np.isfinite(weight) or weight < 0:
            raise ValueError(
                f"objective term {name!r} weight must be finite and >= 0, "
                f"got {weight}"
            )
    return overrides


@dataclass(frozen=True)
class TermBinding:
    name: str
    weight: float
    term: ObjectiveTerm


class CompositeObjective:
    """An ordered, weighted sum of named terms.

    Accepts ``(name, weight)`` entries (the term is built from the
    registry with defaults) or ``(name, weight, term)`` for parameterized
    instances.  Term order is the gradient-accumulation order, so it is
    part of the bitwise contract.
    """

    def __init__(
        self,
        terms: Sequence[
            tuple[str, float] | tuple[str, float, ObjectiveTerm] | TermBinding
        ],
    ) -> None:
        bindings: list[TermBinding] = []
        seen: set[str] = set()
        for entry in terms:
            if isinstance(entry, TermBinding):
                binding = entry
            elif len(entry) == 2:
                name, weight = entry
                binding = TermBinding(name, float(weight), make_term(name))
            else:
                name, weight, term = entry
                binding = TermBinding(name, float(weight), term)
            if binding.weight < 0 or not np.isfinite(binding.weight):
                raise ValueError(
                    f"objective term {binding.name!r} weight must be finite "
                    f"and >= 0, got {binding.weight}"
                )
            if binding.name in seen:
                raise ValueError(f"duplicate objective term {binding.name!r}")
            seen.add(binding.name)
            bindings.append(binding)
        if not bindings:
            raise ValueError("an objective needs at least one term")
        self.bindings: tuple[TermBinding, ...] = tuple(bindings)

    @property
    def weights(self) -> dict[str, float]:
        return {b.name: b.weight for b in self.bindings}

    @property
    def spec(self) -> str:
        """Canonical override spec (round-trips through with_overrides)."""
        return ",".join(f"{b.name}={b.weight:g}" for b in self.bindings)

    def needs_embedding(self) -> bool:
        return any(b.term.uses_embedding for b in self.bindings)

    def with_overrides(
        self, overrides: str | Mapping[str, float] | None
    ) -> "CompositeObjective":
        """A new objective with some term weights replaced.

        Unknown names are a hard error: an override must target a term the
        objective actually has, so a typo fails loudly instead of silently
        training the unmodified objective.
        """
        if not overrides:
            return self
        parsed = parse_objective_overrides(overrides)
        known = {b.name for b in self.bindings}
        unknown = sorted(set(parsed) - known)
        if unknown:
            raise ValueError(
                f"unknown objective term(s) {', '.join(map(repr, unknown))}; "
                f"this objective has: {', '.join(b.name for b in self.bindings)}"
            )
        return CompositeObjective(
            [
                TermBinding(b.name, parsed.get(b.name, b.weight), b.term)
                for b in self.bindings
            ]
        )

    def evaluate_ensemble(self, ctx: EnsembleStepContext) -> np.ndarray:
        total = np.zeros(ctx.stack)
        for binding in self.bindings:
            if binding.weight == 0.0:
                continue
            total = total + binding.term.apply_ensemble(ctx, binding.weight)
        return total


# --------------------------------------------------------------------------
# The generic epoch runner
# --------------------------------------------------------------------------


def _step_input(
    images: Sequence[np.ndarray],
    indices: Sequence[np.ndarray],
    secondary: Sequence[np.ndarray] | None,
    batch_views,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One step's ``(K, rows, ...)`` input, gathered into one buffer: per
    slice its primary rows (or ``batch_views[k]`` of them), then its
    secondary rows.  The indices are slices of a permutation of each
    slice's rows, so ``take``'s "clip" never clips; it writes unbuffered."""
    batch = len(indices[0])
    primary = None
    rows = batch
    if batch_views is not None:
        primary = [
            views(part[index], rng)
            for views, part, index, rng in zip(batch_views, images, indices, rngs)
        ]
        rows = primary[0].shape[0]
    extra = 0 if secondary is None else batch
    combined = np.empty(
        (len(indices), rows + extra) + images[0].shape[1:], dtype=images[0].dtype
    )
    for k, index in enumerate(indices):
        if primary is None:
            np.take(images[k], index, axis=0, out=combined[k, :rows], mode="clip")
        else:
            combined[k, :rows] = primary[k]
        if secondary is not None:
            np.take(secondary[k], index, axis=0, out=combined[k, rows:], mode="clip")
    return combined


def run_objective_ensemble(
    emodel,
    images: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    objective: CompositeObjective,
    config,
    rngs: Sequence[np.random.Generator],
    *,
    class_targets: Mapping[int, np.ndarray] | None = None,
    secondary: Sequence[np.ndarray] | None = None,
    batch_views: Sequence[
        Callable[[np.ndarray, np.random.Generator], np.ndarray]
    ]
    | None = None,
) -> np.ndarray:
    """Train the K-slice client stack ``emodel`` on ``images`` / ``labels``
    under ``objective``; returns the per-slice mean per-batch weighted
    losses, shape ``(K,)``.

    ``images``, ``labels`` and ``secondary`` are per-slice sequences of
    equal-length ``(N, ...)`` arrays (a stacked ``(K, N, ...)`` array is
    one); the runner only reads them and never stacks them whole.  Each
    step gathers, per slice, the batch's rows into one fresh ``(K, rows,
    ...)`` buffer, so a step's input is the only image copy it makes.

    ``batch_views[k](images, rng)`` maps slice ``k``'s indexed batch to the
    rows its step forwards: the batch, then any per-batch re-styled copies
    (CCST), or a re-styled batch in its place (MixStyle).  ``secondary`` is
    an optional per-slice view aligned index-for-index with ``images``
    (style-transferred or augmented positives), appended after them.  Each
    batch runs one concatenated forward so batch statistics are shared, and
    ``views`` is the row count over the batch size.  ``class_targets`` is
    the strategy's fused per-class targets, the same for every slice.

    Randomness: one ``rngs[k].permutation(N)`` per slice per epoch, drawn
    in slice order, then ``batch_views[k]`` once per batch on ``rngs[k]``.
    Slice ``k`` reads nothing but ``rngs[k]``, so it reproduces client
    ``k`` trained alone bitwise.
    """
    stack = len(images)
    count = len(images[0])
    parts = [*images, *(() if secondary is None else secondary)]
    if any(len(part) != count for part in parts):
        raise ValueError("every slice and view must hold the same number of rows")
    emodel.train()
    optimizer = config.make_optimizer(emodel)
    needs_embedding = objective.needs_embedding()
    batch_totals: list[np.ndarray] = []
    for _ in range(config.local_epochs):
        orders = [rng.permutation(count) for rng in rngs]
        for start in range(0, count, config.batch_size):
            indices = [order[start : start + config.batch_size] for order in orders]
            batch = len(indices[0])
            combined = _step_input(images, indices, secondary, batch_views, rngs)
            emodel.zero_grad()
            embeddings = emodel.forward_features(combined)
            logits = emodel.forward_logits(embeddings)
            ctx = EnsembleStepContext(
                labels=np.stack(
                    [part[index] for part, index in zip(labels, indices)]
                ),
                embeddings=embeddings,
                logits=logits,
                batch=batch,
                views=combined.shape[1] // batch,
                grad_logits=np.zeros_like(logits),
                grad_embedding=(
                    np.zeros_like(embeddings) if needs_embedding else None
                ),
                class_targets=class_targets,
            )
            totals = objective.evaluate_ensemble(ctx)
            emodel.backward(
                grad_logits=ctx.grad_logits,
                grad_embedding=ctx.grad_embedding,
                input_grad=False,
            )
            optimizer.step()
            batch_totals.append(totals)
    if batch_totals:
        return np.mean(np.stack(batch_totals, axis=1), axis=1)
    return np.zeros(stack)


# --------------------------------------------------------------------------
# Payload helper: the eval-mode embedding sweep
# --------------------------------------------------------------------------


def ensemble_dataset_embeddings(
    forward_features, images: Sequence[np.ndarray], chunk: int = 256
) -> np.ndarray:
    """Chunked eval-mode sweep of ``forward_features`` over a per-slice
    sequence of equal-length datasets (the class-statistics sweep,
    FedDG-GA's gap); each chunk is stacked on its own, never the whole
    datasets.  Chunk boundaries are part of the bitwise contract: slice
    ``k`` equals the same chunks swept through the template model."""
    parts = [
        forward_features(np.stack([part[start : start + chunk] for part in images]))
        for start in range(0, len(images[0]), chunk)
    ]
    return np.concatenate(parts, axis=1)
