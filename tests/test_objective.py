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
    StepContext,
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
    """A random single-view or two-view step context with zeroed buffers."""
    rows = batch * views
    embeddings = rng.normal(size=(rows, dim))
    logits = rng.normal(size=(rows, classes))
    labels = rng.integers(0, classes, size=batch)
    return StepContext(
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

            def apply(self, ctx, weight):
                return 0.0

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

            def apply(self, ctx, weight):
                raise AssertionError("zero-weight term must not run")

        objective = CompositeObjective(
            [("ce", 1.0), ("boom", 0.0, ExplodingTerm())]
        )
        ctx = make_context(rng)
        total = objective.evaluate(ctx)
        assert np.isfinite(total)

    def test_evaluate_sums_term_losses(self):
        """The composite's total is the left-fold of its terms' weighted
        losses over identical contexts — the bitwise contract."""
        objective = CompositeObjective([("ce", 1.0), ("embed_l2", 0.5)])
        ce_only = CompositeObjective([("ce", 1.0)])
        l2_only = CompositeObjective([("embed_l2", 0.5)])
        both = objective.evaluate(make_context(np.random.default_rng(7)))
        ce = ce_only.evaluate(make_context(np.random.default_rng(7)))
        l2 = l2_only.evaluate(make_context(np.random.default_rng(7)))
        assert both == ce + l2


class TestTermGradients:
    """Finite-difference checks: each term's accumulated gradient matches
    central differences of its returned loss (references held constant)."""

    def test_cross_entropy_logits_gradient(self, rng):
        ctx = make_context(rng)
        term = CrossEntropyTerm()
        term.apply(ctx, 0.7)

        def loss():
            return CrossEntropyTerm().apply(
                StepContext(
                    labels=ctx.labels,
                    embeddings=ctx.embeddings,
                    logits=ctx.logits,
                    batch=ctx.batch,
                    grad_logits=np.zeros_like(ctx.logits),
                ),
                0.7,
            )

        numeric = numeric_gradient(loss, ctx.logits)
        np.testing.assert_allclose(ctx.grad_logits, numeric, atol=1e-7)

    def test_cross_entropy_two_view_primary_only(self, rng):
        ctx = make_context(rng, views=2)
        CrossEntropyTerm(all_views=False).apply(ctx, 1.0)
        # Gradient confined to the primary view's rows.
        assert np.all(ctx.grad_logits[ctx.batch :] == 0.0)
        assert np.any(ctx.grad_logits[: ctx.batch] != 0.0)

    def test_cross_entropy_two_view_all_views(self, rng):
        ctx = make_context(rng, views=2)
        CrossEntropyTerm(all_views=True).apply(ctx, 1.0)
        assert np.any(ctx.grad_logits[ctx.batch :] != 0.0)

    def test_embedding_norm_gradient(self, rng):
        ctx = make_context(rng)
        EmbeddingNormTerm().apply(ctx, 0.3)

        def loss():
            return 0.3 * float(np.mean(np.sum(ctx.embeddings**2, axis=1)))

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(ctx.grad_embedding, numeric, atol=1e-7)

    def test_class_align_gradient_with_stop_grad_references(self, rng):
        """ClassAlign treats the in-batch class means as constants, so the
        analytic gradient is 2*w*(e - ref)/n with the references frozen —
        NOT the naive numeric gradient (which would move the mean too)."""
        ctx = make_context(rng)
        weight = 0.4
        ClassAlignTerm().apply(ctx, weight)
        references = np.empty_like(ctx.embeddings)
        for label in np.unique(ctx.labels):
            mask = ctx.labels == label
            references[mask] = ctx.embeddings[mask].mean(axis=0)
        expected = (
            weight * 2.0 * (ctx.embeddings - references)
            / ctx.embeddings.shape[0]
        )
        np.testing.assert_array_equal(ctx.grad_embedding, expected)

    def test_feature_align_gradient(self, rng):
        targets = {c: rng.normal(size=6) for c in range(4)}
        ctx = make_context(rng, class_targets=targets)
        term = FeatureAlignTerm()
        term.apply(ctx, 0.6)

        def loss():
            fresh = StepContext(
                labels=ctx.labels,
                embeddings=ctx.embeddings,
                logits=ctx.logits,
                batch=ctx.batch,
                grad_embedding=np.zeros_like(ctx.embeddings),
                class_targets=targets,
            )
            return FeatureAlignTerm().apply(fresh, 0.6)

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(ctx.grad_embedding, numeric, atol=1e-7)

    def test_feature_align_no_targets_is_inert(self, rng):
        ctx = make_context(rng, class_targets={})
        assert FeatureAlignTerm().apply(ctx, 1.0) == 0.0
        assert np.all(ctx.grad_embedding == 0.0)

    def test_feature_align_partial_targets(self, rng):
        """Classes without a target contribute zero loss and gradient."""
        targets = {0: np.zeros(6)}
        ctx = make_context(rng, class_targets=targets)
        FeatureAlignTerm().apply(ctx, 1.0)
        other = ctx.labels != 0
        assert np.all(ctx.grad_embedding[other] == 0.0)

    def test_proto_nce_gradient(self, rng):
        prototypes = {c: rng.normal(size=6) for c in range(4)}
        ctx = make_context(rng, class_targets=prototypes)
        term = ProtoNCETerm(temperature=0.5)
        term.apply(ctx, 0.8)

        def loss():
            value, _ = prototype_nce(
                ctx.embeddings, ctx.labels, prototypes, 0.5
            )
            return 0.8 * value

        numeric = numeric_gradient(loss, ctx.embeddings)
        np.testing.assert_allclose(
            ctx.grad_embedding, numeric, rtol=1e-4, atol=1e-7
        )

    def test_consistency_gradient(self, rng):
        ctx = make_context(rng, views=2)
        ConsistencyTerm().apply(ctx, 0.9)

        def loss():
            diff = ctx.embeddings[: ctx.batch] - ctx.embeddings[ctx.batch :]
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
            term.apply(ctx, 0.35)

            def loss():
                fresh = StepContext(
                    labels=ctx.labels,
                    embeddings=ctx.embeddings,
                    logits=ctx.logits,
                    batch=ctx.batch,
                    views=2,
                    grad_embedding=np.zeros_like(ctx.embeddings),
                )
                return make_term(name, **params).apply(fresh, 0.35)

            numeric = numeric_gradient(loss, ctx.embeddings)
            np.testing.assert_allclose(
                ctx.grad_embedding, numeric, rtol=1e-4, atol=1e-6,
                err_msg=f"gradient mismatch for term {name}",
            )


class TestEnsemblePath:
    """apply_ensemble (vectorized or per-slice fallback) must reproduce the
    scalar apply on every slice bitwise — the backend-invariance contract."""

    def test_slices_share_one_target_mapping(self, rng):
        """Every slice reads the one ``class_targets`` mapping; the old
        per-slice ``extras`` is no field, and its keyword takes only the
        empty per-slice mappings the benchmark harness passes."""
        targets = {0: rng.normal(size=6)}
        shape = dict(
            labels=np.zeros((2, 3), dtype=int),
            embeddings=rng.normal(size=(2, 3, 6)),
            logits=rng.normal(size=(2, 3, 4)),
            batch=3,
        )
        ctx = EnsembleStepContext(**shape, class_targets=targets)
        assert all(ctx.slice(k).class_targets is targets for k in range(2))
        for cls in (StepContext, EnsembleStepContext):
            assert "extras" not in {f.name for f in dataclasses.fields(cls)}
        assert EnsembleStepContext(**shape, extras=[{}, {}]).class_targets is None
        with pytest.raises(ValueError, match="per-slice extras"):
            EnsembleStepContext(**shape, extras=[{}, {"prototypes": targets}])

    @pytest.mark.parametrize("name", BUILTIN_TERMS)
    def test_slices_match_scalar(self, name, rng):
        stack, batch, views, dim, classes = 3, 5, 2, 6, 4
        rows = batch * views
        embeddings = rng.normal(size=(stack, rows, dim))
        logits = rng.normal(size=(stack, rows, classes))
        labels = rng.integers(0, classes, size=(stack, batch))
        # One mapping for every slice: the broadcast strategy's targets.
        class_targets = {c: rng.normal(size=dim) for c in range(classes)}
        term = make_term(name)
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
            sctx = StepContext(
                labels=labels[k],
                embeddings=embeddings[k].copy(),
                logits=logits[k].copy(),
                batch=batch,
                views=views,
                grad_logits=np.zeros((rows, classes)),
                grad_embedding=np.zeros((rows, dim)),
                class_targets=class_targets,
            )
            scalar_loss = term.apply(sctx, 0.7)
            np.testing.assert_array_equal(
                ectx.grad_logits[k], sctx.grad_logits,
                err_msg=f"{name}: slice {k} grad_logits diverges",
            )
            np.testing.assert_array_equal(
                ectx.grad_embedding[k], sctx.grad_embedding,
                err_msg=f"{name}: slice {k} grad_embedding diverges",
            )
            assert losses[k] == scalar_loss, f"{name}: slice {k} loss diverges"

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
