"""Tests for the composable objective registry (repro.nn.objective).

Covers the registry surface (lookup, duplicate registration, unknown
names), CompositeObjective construction/override semantics, the override
spec parser, and finite-difference gradient checks of every term that
routes gradient through the embedding or logits entry points.
"""

import dataclasses

import numpy as np
import pytest

from tests.gradcheck import numeric_gradient
from repro.data.synthetic import LabeledDataset
from repro.fl.strategy import LocalTrainingConfig
from repro.nn.ensemble import ensemble_of, ensemble_state_dicts
from repro.nn.models import build_cnn_model
from repro.nn.objective import (
    OBJECTIVE_TERMS,
    ClassAlignTerm,
    CompositeObjective,
    ConsistencyTerm,
    CrossEntropyTerm,
    EmbeddingNormTerm,
    EnsembleStepContext,
    FeatureAlignTerm,
    ObjectiveTerm,
    ProtoNCETerm,
    make_term,
    objective_term_specs,
    parse_objective_overrides,
    prototype_nce,
    register_objective_term,
    run_objective_ensemble,
)
from tests import reference_loop

BUILTIN_TERMS = (
    "align",
    "ce",
    "class_align",
    "consistency",
    "embed_l2",
    "pair_l2",
    "proto_nce",
    "triplet_style",
)


def make_context(
    rng,
    *,
    batch=5,
    views=1,
    dim=6,
    classes=4,
    class_targets=None,
):
    """A random single-view or two-view step context of one client (a
    stack of K = 1) with zeroed buffers."""
    rows = batch * views
    embeddings = rng.normal(size=(1, rows, dim))
    logits = rng.normal(size=(1, rows, classes))
    labels = rng.integers(0, classes, size=(1, batch))
    return EnsembleStepContext(
        labels=labels,
        embeddings=embeddings,
        logits=logits,
        batch=batch,
        views=views,
        grad_logits=np.zeros_like(logits),
        grad_embedding=np.zeros_like(embeddings),
        class_targets=class_targets,
    )


class TestRegistry:
    def test_builtin_terms_registered(self):
        assert objective_term_specs() == BUILTIN_TERMS

    def test_make_term_builds_named_term(self):
        term = make_term("proto_nce", temperature=0.25)
        assert isinstance(term, ProtoNCETerm)
        assert term.temperature == 0.25

    def test_make_term_unknown_name(self):
        with pytest.raises(ValueError, match="unknown objective term"):
            make_term("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_objective_term("ce", CrossEntropyTerm)

    def test_custom_registration_round_trips(self):
        class NullTerm(ObjectiveTerm):
            name = "null"
            uses_embedding = False

            def apply_ensemble(self, ctx, weight):
                return np.zeros(ctx.stack)

        register_objective_term("null", NullTerm)
        try:
            assert isinstance(make_term("null"), NullTerm)
            objective = CompositeObjective([("ce", 1.0), ("null", 2.0)])
            assert objective.weights == {"ce": 1.0, "null": 2.0}
        finally:
            del OBJECTIVE_TERMS["null"]


class TestParseOverrides:
    def test_spec_string(self):
        assert parse_objective_overrides("ce=1, proto_nce=0.7") == {
            "ce": 1.0,
            "proto_nce": 0.7,
        }

    def test_mapping_passthrough(self):
        assert parse_objective_overrides({"align": 2}) == {"align": 2.0}

    def test_empty_chunks_ignored(self):
        assert parse_objective_overrides("ce=1,,") == {"ce": 1.0}

    @pytest.mark.parametrize(
        "bad", ["ce", "=1", "ce=abc", "ce=-0.5", "ce=inf", "ce=nan"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_objective_overrides(bad)


class TestCompositeObjective:
    def test_weights_and_spec(self):
        objective = CompositeObjective([("ce", 1.0), ("embed_l2", 0.5)])
        assert objective.weights == {"ce": 1.0, "embed_l2": 0.5}
        assert objective.spec == "ce=1,embed_l2=0.5"

    def test_spec_round_trips_through_overrides(self):
        objective = CompositeObjective([("ce", 1.0), ("proto_nce", 0.7)])
        again = objective.with_overrides(objective.spec)
        assert again.weights == objective.weights

    def test_overrides_replace_only_named_weights(self):
        objective = CompositeObjective([("ce", 1.0), ("embed_l2", 0.1)])
        updated = objective.with_overrides("embed_l2=0.9")
        assert updated.weights == {"ce": 1.0, "embed_l2": 0.9}
        # The original is untouched (with_overrides is functional).
        assert objective.weights["embed_l2"] == 0.1

    def test_override_preserves_parameterized_term_instance(self):
        term = ProtoNCETerm(temperature=0.125)
        objective = CompositeObjective([("ce", 1.0), ("proto_nce", 0.5, term)])
        updated = objective.with_overrides("proto_nce=1.5")
        assert updated.bindings[1].term is term

    def test_unknown_override_name_is_an_error(self):
        objective = CompositeObjective([("ce", 1.0)])
        with pytest.raises(ValueError, match="unknown objective term"):
            objective.with_overrides("proto_nce=0.7")

    def test_none_or_empty_overrides_are_identity(self):
        objective = CompositeObjective([("ce", 1.0)])
        assert objective.with_overrides(None) is objective
        assert objective.with_overrides("") is objective

    def test_rejects_bad_constructions(self):
        with pytest.raises(ValueError):
            CompositeObjective([])
        with pytest.raises(ValueError):
            CompositeObjective([("ce", -1.0)])
        with pytest.raises(ValueError):
            CompositeObjective([("ce", 1.0), ("ce", 0.5)])
        with pytest.raises(ValueError):
            CompositeObjective([("ce", float("nan"))])

    def test_needs_embedding(self):
        assert not CompositeObjective([("ce", 1.0)]).needs_embedding()
        assert CompositeObjective(
            [("ce", 1.0), ("embed_l2", 0.1)]
        ).needs_embedding()

    def test_zero_weight_terms_are_skipped(self, rng):
        class ExplodingTerm(ObjectiveTerm):
            name = "boom"

            def apply_ensemble(self, ctx, weight):
                raise AssertionError("zero-weight term must not run")

        objective = CompositeObjective(
            [("ce", 1.0), ("boom", 0.0, ExplodingTerm())]
        )
        ctx = make_context(rng)
        total = objective.evaluate_ensemble(ctx)
        assert np.all(np.isfinite(total))

    def test_evaluate_sums_term_losses(self):
        """The composite's total is the left-fold of its terms' weighted
        losses over identical contexts — the bitwise contract."""
        objective = CompositeObjective([("ce", 1.0), ("embed_l2", 0.5)])
        ce_only = CompositeObjective([("ce", 1.0)])
        l2_only = CompositeObjective([("embed_l2", 0.5)])
        both = objective.evaluate_ensemble(make_context(np.random.default_rng(7)))
        ce = ce_only.evaluate_ensemble(make_context(np.random.default_rng(7)))
        l2 = l2_only.evaluate_ensemble(make_context(np.random.default_rng(7)))
        np.testing.assert_array_equal(both, ce + l2)


class TestTermGradients:
    """Finite-difference checks on one client (K = 1): each term's
    accumulated gradient matches central differences of its returned loss
    (references held constant)."""

    def test_cross_entropy_logits_gradient(self, rng):
        ctx = make_context(rng)
        term = CrossEntropyTerm()
        term.apply_ensemble(ctx, 0.7)

        def loss():
            return CrossEntropyTerm().apply_ensemble(
                EnsembleStepContext(
                    labels=ctx.labels,
                    embeddings=ctx.embeddings,
                    logits=ctx.logits,
                    batch=ctx.batch,
                    grad_logits=np.zeros_like(ctx.logits),
                ),
                0.7,
            )[0]

        numeric = numeric_gradient(loss, ctx.logits)
        np.testing.assert_allclose(ctx.grad_logits, numeric, atol=1e-7)

    def test_cross_entropy_two_view_primary_only(self, rng):
        ctx = make_context(rng, views=2)
        CrossEntropyTerm(all_views=False).apply_ensemble(ctx, 1.0)
        # Gradient confined to the primary view's rows.
        assert np.all(ctx.grad_logits[:, ctx.batch :] == 0.0)
        assert np.any(ctx.grad_logits[:, : ctx.batch] != 0.0)

    def test_cross_entropy_two_view_all_views(self, rng):
        ctx = make_context(rng, views=2)
        CrossEntropyTerm(all_views=True).apply_ensemble(ctx, 1.0)
        assert np.any(ctx.grad_logits[:, ctx.batch :] != 0.0)

    def test_embedding_norm_gradient(self, rng):
        ctx = make_context(rng)
        EmbeddingNormTerm().apply_ensemble(ctx, 0.3)

        def loss():
            return 0.3 * float(np.mean(np.sum(ctx.embeddings[0] ** 2, axis=1)))

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(ctx.grad_embedding, numeric, atol=1e-7)

    def test_class_align_gradient_with_stop_grad_references(self, rng):
        """ClassAlign treats the in-batch class means as constants, so the
        analytic gradient is 2*w*(e - ref)/n with the references frozen —
        NOT the naive numeric gradient (which would move the mean too)."""
        ctx = make_context(rng)
        weight = 0.4
        ClassAlignTerm().apply_ensemble(ctx, weight)
        embeddings, labels = ctx.embeddings[0], ctx.labels[0]
        references = np.empty_like(embeddings)
        for label in np.unique(labels):
            mask = labels == label
            references[mask] = embeddings[mask].mean(axis=0)
        expected = weight * 2.0 * (embeddings - references) / embeddings.shape[0]
        np.testing.assert_array_equal(ctx.grad_embedding[0], expected)

    def test_feature_align_gradient(self, rng):
        targets = {c: rng.normal(size=6) for c in range(4)}
        ctx = make_context(rng, class_targets=targets)
        term = FeatureAlignTerm()
        term.apply_ensemble(ctx, 0.6)

        def loss():
            fresh = EnsembleStepContext(
                labels=ctx.labels,
                embeddings=ctx.embeddings,
                logits=ctx.logits,
                batch=ctx.batch,
                grad_embedding=np.zeros_like(ctx.embeddings),
                class_targets=targets,
            )
            return FeatureAlignTerm().apply_ensemble(fresh, 0.6)[0]

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(ctx.grad_embedding, numeric, atol=1e-7)

    def test_feature_align_no_targets_is_inert(self, rng):
        ctx = make_context(rng, class_targets={})
        assert FeatureAlignTerm().apply_ensemble(ctx, 1.0).tolist() == [0.0]
        assert np.all(ctx.grad_embedding == 0.0)

    def test_feature_align_partial_targets(self, rng):
        """Classes without a target contribute zero loss and gradient."""
        targets = {0: np.zeros(6)}
        ctx = make_context(rng, class_targets=targets)
        FeatureAlignTerm().apply_ensemble(ctx, 1.0)
        other = ctx.labels != 0
        assert np.all(ctx.grad_embedding[other] == 0.0)

    def test_proto_nce_gradient(self, rng):
        prototypes = {c: rng.normal(size=6) for c in range(4)}
        ctx = make_context(rng, class_targets=prototypes)
        term = ProtoNCETerm(temperature=0.5)
        term.apply_ensemble(ctx, 0.8)

        def loss():
            value, _ = prototype_nce(
                ctx.embeddings[0], ctx.labels[0], prototypes, 0.5
            )
            return 0.8 * value

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(
            ctx.grad_embedding, numeric, rtol=1e-4, atol=1e-7
        )

    def test_consistency_gradient(self, rng):
        ctx = make_context(rng, views=2)
        ConsistencyTerm().apply_ensemble(ctx, 0.9)

        def loss():
            diff = ctx.embeddings[0, : ctx.batch] - ctx.embeddings[0, ctx.batch :]
            return 0.9 * float(np.mean(diff**2))

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(ctx.grad_embedding, numeric, atol=1e-7)

    def test_triplet_and_pair_terms_gradcheck(self, rng):
        for name, params in [
            ("triplet_style", {"margin": 0.5, "hinge": False}),
            ("pair_l2", {}),
        ]:
            ctx = make_context(rng, views=2)
            term = make_term(name, **params)
            term.apply_ensemble(ctx, 0.35)

            def loss():
                fresh = EnsembleStepContext(
                    labels=ctx.labels,
                    embeddings=ctx.embeddings,
                    logits=ctx.logits,
                    batch=ctx.batch,
                    views=2,
                    grad_embedding=np.zeros_like(ctx.embeddings),
                )
                return make_term(name, **params).apply_ensemble(fresh, 0.35)[0]

            numeric = numeric_gradient(loss, ctx.embeddings)
            np.testing.assert_allclose(
                ctx.grad_embedding, numeric, rtol=1e-4, atol=1e-6,
                err_msg=f"gradient mismatch for term {name}",
            )


class TestEnsemblePath:
    """Each term's one stacked form must reproduce, on every slice bitwise,
    the reference loop's own scalar form of that term — the
    backend-invariance contract, checked against code the terms do not
    share."""

    #: Terms that need the two-view batch (anchors, then positives).
    TWO_VIEW = {"consistency", "pair_l2", "triplet_style"}

    def test_slices_share_one_target_mapping(self, rng):
        """The context holds the one ``class_targets`` mapping every slice
        reads; the old per-slice ``extras`` is no field, and its keyword
        takes only the empty per-slice mappings the benchmark harness
        passes."""
        targets = {0: rng.normal(size=6)}
        shape = dict(
            labels=np.zeros((2, 3), dtype=int),
            embeddings=rng.normal(size=(2, 3, 6)),
            logits=rng.normal(size=(2, 3, 4)),
            batch=3,
        )
        ctx = EnsembleStepContext(**shape, class_targets=targets)
        assert ctx.class_targets is targets
        fields = {f.name for f in dataclasses.fields(EnsembleStepContext)}
        assert "extras" not in fields
        assert EnsembleStepContext(**shape, extras=[{}, {}]).class_targets is None
        with pytest.raises(ValueError, match="per-slice extras"):
            EnsembleStepContext(**shape, extras=[{}, {"prototypes": targets}])

    @staticmethod
    def _draws(rng):
        """``(stack, batch, views, dim, labels, class_targets)`` draws: a
        plain one, one client alone, a class held by one slice only with
        targets for some classes, no targets at all, a one-row batch, and
        random shapes."""
        draws = [
            (3, 5, 2, 6, rng.integers(0, 4, size=(3, 5)), "all"),
            (1, 7, 2, 5, rng.integers(0, 3, size=(1, 7)), "all"),
        ]
        # Class 3 lives in slice 0 only; classes 1 and 3 have no target.
        labels = rng.integers(0, 3, size=(4, 6))
        labels[0, :2] = 3
        draws.append((4, 6, 2, 4, labels, (0, 2)))
        draws.append((2, 4, 2, 3, rng.integers(0, 3, size=(2, 4)), None))
        draws.append((3, 1, 2, 4, rng.integers(0, 2, size=(3, 1)), (1,)))
        for _ in range(4):
            stack, batch, dim = (int(v) for v in rng.integers(1, 9, size=3))
            classes = int(rng.integers(1, 5))
            labels = rng.integers(0, classes, size=(stack, batch))
            held = tuple(c for c in range(classes) if rng.random() < 0.6)
            draws.append((stack, batch, int(rng.integers(1, 3)), dim, labels, held))
        return draws

    @pytest.mark.parametrize("name", BUILTIN_TERMS)
    def test_slices_match_scalar(self, name, rng):
        scalar = reference_loop.SCALAR_TERMS[name]
        term = make_term(name)
        for stack, batch, views, dim, labels, held in self._draws(rng):
            if name in self.TWO_VIEW and views != 2:
                continue
            rows, classes = batch * views, 4
            embeddings = rng.normal(size=(stack, rows, dim))
            logits = rng.normal(size=(stack, rows, classes))
            # One mapping for every slice: the broadcast strategy's targets.
            if held is None:
                class_targets = None
            else:
                held = range(classes) if held == "all" else held
                class_targets = {c: rng.normal(size=dim) for c in held}
            ectx = EnsembleStepContext(
                labels=labels,
                embeddings=embeddings.copy(),
                logits=logits.copy(),
                batch=batch,
                views=views,
                grad_logits=np.zeros((stack, rows, classes)),
                grad_embedding=np.zeros((stack, rows, dim)),
                class_targets=class_targets,
            )
            losses = term.apply_ensemble(ectx, 0.7)
            assert losses.shape == (stack,)
            for k in range(stack):
                sctx = reference_loop.StepContext(
                    labels=labels[k],
                    embeddings=embeddings[k].copy(),
                    logits=logits[k].copy(),
                    batch=batch,
                    views=views,
                    grad_logits=np.zeros((rows, classes)),
                    grad_embedding=np.zeros((rows, dim)),
                    class_targets=class_targets,
                )
                scalar_loss = scalar(term, sctx, 0.7)
                where = f"{name}: slice {k} of {stack}, labels {labels.tolist()}"
                np.testing.assert_array_equal(
                    ectx.grad_logits[k], sctx.grad_logits,
                    err_msg=f"{where}: grad_logits diverges",
                )
                np.testing.assert_array_equal(
                    ectx.grad_embedding[k], sctx.grad_embedding,
                    err_msg=f"{where}: grad_embedding diverges",
                )
                assert losses[k] == scalar_loss, f"{where}: loss diverges"

    def test_runner_takes_per_slice_arrays(self, rng):
        """The members' own arrays train bitwise as their ``(K, N, ...)``
        stack, secondary view and per-batch views included; slices of
        unequal length are refused."""
        template = build_cnn_model((3, 8, 8), 4, rng, widths=(3, 4), embed_dim=5)
        objective = CompositeObjective([("ce", 1.0), ("embed_l2", 0.1)])
        config = LocalTrainingConfig(batch_size=4)
        images = rng.normal(size=(2, 10, 3, 8, 8))
        labels = rng.integers(0, 4, size=(2, 10))
        secondary = rng.normal(size=images.shape)
        flip = [lambda batch, rng: np.concatenate([batch, batch[..., ::-1]])] * 2
        results = []
        for wrap in (np.asarray, list):
            emodel = ensemble_of(template, 2)
            losses = run_objective_ensemble(
                emodel, wrap(images), wrap(labels), objective, config,
                [np.random.default_rng(seed) for seed in (1, 2)],
                secondary=wrap(secondary), batch_views=flip,
            )
            results.append((losses, ensemble_state_dicts(emodel)))
        (stacked_losses, stacked), (listed_losses, listed) = results
        np.testing.assert_array_equal(stacked_losses, listed_losses)
        for a, b in zip(stacked, listed):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        with pytest.raises(ValueError, match="same number of rows"):
            run_objective_ensemble(
                ensemble_of(template, 2), [images[0], images[1, :9]],
                [labels[0], labels[1, :9]], objective, config,
                [np.random.default_rng(seed) for seed in (1, 2)],
            )


class TestRunnersLeaveTheInputGradientAlone:
    """The runners skip the first layer's input gradient for their own steps
    only.  The server probes, and the trainer reuses, the very model
    instances they train, so a direct ``backward`` afterwards must still
    return the full ∂L/∂x (checked against finite differences)."""

    OBJECTIVE = CompositeObjective([("ce", 1.0), ("embed_l2", 0.1)])
    CONFIG = LocalTrainingConfig(batch_size=4)

    @staticmethod
    def _input_gradient(model, x, rng):
        embeddings = model.forward_features(x)
        grad_logits = rng.normal(size=model.forward_logits(embeddings).shape)
        grad_embedding = rng.normal(size=embeddings.shape)

        def scalar():
            embeddings = model.forward_features(x)
            logits = model.forward_logits(embeddings)
            return float(
                np.sum(logits * grad_logits) + np.sum(embeddings * grad_embedding)
            )

        analytic = model.backward(
            grad_logits=grad_logits, grad_embedding=grad_embedding
        )
        return analytic, numeric_gradient(scalar, x)

    def test_scalar_runner(self, rng):
        model = build_cnn_model((3, 8, 8), 4, rng, widths=(3, 4), embed_dim=5)
        dataset = LabeledDataset(
            rng.normal(size=(10, 3, 8, 8)), rng.integers(0, 4, 10), np.zeros(10)
        )
        secondary = rng.normal(size=dataset.images.shape)
        before = model.state_dict()
        reference_loop.run_objective_epochs(
            model, dataset, self.OBJECTIVE, self.CONFIG, rng, secondary=secondary
        )
        assert any(np.any(before[k] != v) for k, v in model.state_dict().items())
        x = rng.normal(size=(2, 3, 8, 8))
        analytic, numeric = self._input_gradient(model, x, rng)
        assert analytic.shape == x.shape
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_ensemble_runner(self, rng):
        template = build_cnn_model((3, 8, 8), 4, rng, widths=(3, 4), embed_dim=5)
        emodel = ensemble_of(template, 2)
        images = rng.normal(size=(2, 10, 3, 8, 8))
        labels = rng.integers(0, 4, size=(2, 10))
        rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        run_objective_ensemble(
            emodel, images, labels, self.OBJECTIVE, self.CONFIG, rngs
        )
        x = rng.normal(size=(2, 2, 3, 8, 8))
        analytic, numeric = self._input_gradient(emodel, x, rng)
        assert analytic.shape == x.shape
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)
