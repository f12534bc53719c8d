"""Tests for optimizers, the module system, and model builders."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter


def quadratic_params(rng):
    """A parameter whose optimum under f(w) = ||w - target||^2 is `target`."""
    target = rng.normal(size=(6,))
    param = Parameter(np.zeros(6), name="w")
    return param, target


class TestSGD:
    def test_converges_on_quadratic(self, rng):
        param, target = quadratic_params(rng)
        optimizer = nn.SGD([param], lr=0.1)
        for _ in range(200):
            param.zero_grad()
            param.grad += 2 * (param.data - target)
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-6)

    def test_momentum_accelerates(self, rng):
        results = {}
        for momentum in (0.0, 0.9):
            param, target = quadratic_params(np.random.default_rng(7))
            optimizer = nn.SGD([param], lr=0.01, momentum=momentum)
            for _ in range(50):
                param.zero_grad()
                param.grad += 2 * (param.data - target)
                optimizer.step()
            results[momentum] = np.linalg.norm(param.data - target)
        assert results[0.9] < results[0.0]

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.ones(4) * 10.0)
        optimizer = nn.SGD([param], lr=0.1, weight_decay=0.5)
        for _ in range(100):
            param.zero_grad()  # zero loss gradient: only decay acts
            optimizer.step()
        assert np.all(np.abs(param.data) < 1.0)

    def test_rejects_bad_hyperparameters(self):
        param = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            nn.SGD([param], lr=0.0)
        with pytest.raises(ValueError):
            nn.SGD([param], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self, rng):
        param, target = quadratic_params(rng)
        optimizer = nn.Adam([param], lr=0.05)
        for _ in range(500):
            param.zero_grad()
            param.grad += 2 * (param.data - target)
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-4)


class TestModuleSystem:
    def test_named_parameters_depth_first(self, rng):
        model = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(), nn.Linear(4, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert names == [
            "layers.0.weight",
            "layers.0.bias",
            "layers.2.weight",
            "layers.2.bias",
        ]

    def test_state_dict_round_trip(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=5, rng=rng)
        state = model.state_dict()
        clone = nn.build_mlp_model((3, 4, 4), num_classes=5, rng=np.random.default_rng(99))
        clone.load_state_dict(state)
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(model.forward(x), clone.forward(x))

    def test_state_dict_is_a_copy(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=2, rng=rng)
        state = model.state_dict()
        first_key = next(iter(state))
        state[first_key] += 100.0
        assert not np.allclose(model.state_dict()[first_key], state[first_key])

    def test_load_rejects_missing_keys(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=2, rng=rng)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=2, rng=rng)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        model = nn.Sequential(nn.ReLU(), nn.Linear(4, 2, rng=rng))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_num_parameters(self, rng):
        layer = nn.Linear(10, 5, rng=rng)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_load_rejects_unexpected_keys(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=2, rng=rng)
        state = model.state_dict()
        state["features.layers.1.running_mean"] = np.zeros(4)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_load_copies_never_aliases(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=2, rng=rng)
        state = model.state_dict()
        model.load_state_dict(state)
        for name, param in model.named_parameters():
            assert not np.shares_memory(param.data, state[name])

    @pytest.mark.parametrize(
        "builder,keys",
        [
            (
                nn.build_cnn_model,
                [
                    ("features.layers.0.weight", (12, 3, 3, 3)),
                    ("features.layers.0.bias", (12,)),
                    ("features.layers.2.weight", (24, 12, 3, 3)),
                    ("features.layers.2.bias", (24,)),
                    ("features.layers.5.weight", (96, 64)),
                    ("features.layers.5.bias", (64,)),
                    ("classifier.weight", (64, 4)),
                    ("classifier.bias", (4,)),
                ],
            ),
            (
                nn.build_mlp_model,
                [
                    ("features.layers.1.weight", (192, 64)),
                    ("features.layers.1.bias", (64,)),
                    ("features.layers.3.weight", (64, 32)),
                    ("features.layers.3.bias", (32,)),
                    ("classifier.weight", (32, 4)),
                    ("classifier.bias", (4,)),
                ],
            ),
        ],
        ids=["cnn", "mlp"],
    )
    def test_state_dict_keys_and_order_are_pinned(self, builder, keys, rng):
        """The wire format: aggregation, codecs and every trace digest depend
        on these names, shapes and this order."""
        model = builder((3, 8, 8), 4, rng)
        state = model.state_dict()
        assert [(name, value.shape) for name, value in state.items()] == keys
        assert list(state) == [name for name, _ in model.named_parameters()]


def _signature_pair(variant):
    """Two models that differ only in ``variant``'s one structural choice."""
    rng = np.random.default_rng(0)

    def convs(first_stride, second_stride, padding=1, bias=True):
        return nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, stride=first_stride, padding=padding,
                      bias=bias, rng=rng),
            nn.ReLU(),
            nn.Conv2d(4, 4, kernel_size=3, stride=second_stride, padding=padding,
                      bias=bias, rng=rng),
        )

    if variant == "conv_strides":
        return convs(2, 1), convs(1, 2)
    if variant == "conv_padding":
        return convs(1, 1, padding=0), convs(1, 1, padding=1)
    if variant == "conv_bias":
        return convs(1, 1), convs(1, 1, bias=False)
    if variant == "linear_bias":
        return nn.Linear(4, 3, rng=rng), nn.Linear(4, 3, rng=rng, bias=False)
    if variant == "activation_class":
        return (
            nn.Sequential(nn.Linear(4, 4, rng=rng), nn.ReLU()),
            nn.Sequential(nn.Linear(4, 4, rng=rng), nn.Tanh()),
        )
    if variant == "layer_order":
        return (
            nn.Sequential(nn.ReLU(), nn.Flatten(), nn.Linear(4, 2, rng=rng)),
            nn.Sequential(nn.Flatten(), nn.ReLU(), nn.Linear(4, 2, rng=rng)),
        )
    if variant == "extra_layer":
        return (
            nn.Sequential(nn.Linear(4, 4, rng=rng)),
            nn.Sequential(nn.Linear(4, 4, rng=rng), nn.ReLU()),
        )
    if variant == "embed_dim":
        return (
            nn.build_mlp_model((1, 2, 2), 3, rng, embed_dim=8),
            nn.build_mlp_model((1, 2, 2), 3, rng, embed_dim=6),
        )
    if variant == "builder":
        return (
            nn.build_cnn_model((3, 4, 4), 3, rng, widths=(2, 2), embed_dim=4),
            nn.build_mlp_model((3, 4, 4), 3, rng, hidden_dim=4, embed_dim=4),
        )
    raise AssertionError(variant)


class TestArchitectureSignature:
    """The key of the trainer's cached clone and of the socket lane's
    template check: equal exactly when one model's forward pass is the
    other's up to weights."""

    @pytest.mark.parametrize(
        "variant",
        [
            "conv_strides",
            "conv_padding",
            "conv_bias",
            "linear_bias",
            "activation_class",
            "layer_order",
            "extra_layer",
            "embed_dim",
            "builder",
        ],
    )
    def test_differs_when_the_structure_does(self, variant):
        first, second = _signature_pair(variant)
        assert nn.architecture_signature(first) != nn.architecture_signature(second)

    @pytest.mark.parametrize(
        "change", ["weights", "training_mode", "forward_caches", "gradients"]
    )
    def test_ignores_runtime_state(self, change):
        rng = np.random.default_rng(1)
        model = nn.build_cnn_model((3, 8, 8), 4, rng, widths=(4, 6), embed_dim=8)
        before = nn.architecture_signature(model)
        if change == "weights":
            model.load_state_dict(
                {name: value + 1.0 for name, value in model.state_dict().items()}
            )
        elif change == "training_mode":
            model.eval()
        elif change == "forward_caches":
            model.forward(rng.normal(size=(2, 3, 8, 8)))
        else:
            for param in model.parameters():
                param.grad += 1.0
        assert nn.architecture_signature(model) == before

    def test_is_hashable(self, rng):
        model = nn.build_cnn_model((3, 8, 8), 4, rng, widths=(4, 6), embed_dim=8)
        assert {nn.architecture_signature(model): 1}[
            nn.architecture_signature(model)
        ] == 1


class TestModels:
    def test_cnn_shapes(self, rng):
        model = nn.build_cnn_model((3, 16, 16), num_classes=7, rng=rng)
        x = rng.normal(size=(4, 3, 16, 16))
        z = model.forward_features(x)
        assert z.shape == (4, model.embed_dim)
        logits = model.forward_logits(z)
        assert logits.shape == (4, 7)

    def test_cnn_rejects_indivisible_sides(self, rng):
        with pytest.raises(ValueError):
            nn.build_cnn_model((3, 15, 16), num_classes=2, rng=rng)

    def test_backward_requires_some_gradient(self, rng):
        model = nn.build_mlp_model((3, 4, 4), num_classes=3, rng=rng)
        model.forward(rng.normal(size=(2, 3, 4, 4)))
        with pytest.raises(ValueError):
            model.backward()

    def test_split_gradient_entry_points_agree(self, rng):
        """Feeding the CE gradient via grad_logits equals the chain rule by hand."""
        model = nn.build_mlp_model((3, 4, 4), num_classes=3, rng=rng)
        x = rng.normal(size=(2, 3, 4, 4))
        labels = np.array([0, 2])
        model.zero_grad()
        logits = model.forward(x)
        _, grad = nn.cross_entropy(logits, labels)
        model.backward(grad_logits=grad)
        grads_via_model = {
            name: p.grad.copy() for name, p in model.named_parameters()
        }

        # Same computation, manual chaining.
        model.zero_grad()
        z = model.forward_features(x)
        logits = model.forward_logits(z)
        grad_z = model.classifier.backward(nn.cross_entropy(logits, labels)[1])
        model.features.backward(grad_z)
        for name, param in model.named_parameters():
            np.testing.assert_allclose(param.grad, grads_via_model[name])

    def test_embedding_gradient_entry_point(self, rng):
        """grad_embedding alone reaches feature weights but not the classifier."""
        model = nn.build_mlp_model((3, 4, 4), num_classes=3, rng=rng)
        x = rng.normal(size=(2, 3, 4, 4))
        model.zero_grad()
        z = model.forward_features(x)
        model.forward_logits(z)
        model.backward(grad_embedding=np.ones_like(z))
        feature_grads = [p.grad for _, p in model.features.named_parameters()]
        assert any(np.any(g != 0) for g in feature_grads)
        classifier_grads = [p.grad for _, p in model.classifier.named_parameters()]
        assert all(np.all(g == 0) for g in classifier_grads)

    @pytest.mark.parametrize(
        "builder", [nn.build_cnn_model, nn.build_mlp_model], ids=["cnn", "mlp"]
    )
    def test_input_grad_false_changes_only_the_return_value(self, builder, rng):
        """``input_grad=False`` is per call: parameter gradients are bitwise
        the default call's, and the next default call returns ∂L/∂x again."""
        model = builder((3, 8, 8), num_classes=3, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8))
        grad_logits = rng.normal(size=model.forward(x).shape)
        model.zero_grad()
        grad_input = model.backward(grad_logits=grad_logits)
        assert grad_input.shape == x.shape
        expected = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        model.forward(x)
        assert model.backward(grad_logits=grad_logits, input_grad=False) is None
        for param, grad in zip(model.parameters(), expected):
            assert np.array_equal(param.grad, grad)

        model.forward(x)
        np.testing.assert_array_equal(
            model.backward(grad_logits=grad_logits), grad_input
        )

    def test_predict_logits_batches_consistently(self, rng):
        model = nn.build_cnn_model((3, 16, 16), num_classes=4, rng=rng)
        x = rng.normal(size=(10, 3, 16, 16))
        full = model.predict_logits(x, batch_size=3)
        single = model.predict_logits(x, batch_size=100)
        np.testing.assert_allclose(full, single)

    def test_predict_logits_of_no_images_keeps_the_logit_width(self, rng):
        model = nn.build_cnn_model((3, 16, 16), num_classes=4, rng=rng)
        logits = model.predict_logits(np.zeros((0, 3, 16, 16)))
        assert logits.shape == (0, 4)
        assert model.training

    def test_predict_logits_restores_training_mode_when_forward_raises(self, rng):
        model = nn.build_cnn_model((3, 16, 16), num_classes=4, rng=rng)
        assert model.training
        with pytest.raises(ValueError):
            model.predict_logits(np.zeros((2, 5, 16, 16)))  # 5 channels, not 3
        assert all(module.training for module in model.modules())

    def test_training_reduces_loss(self, rng):
        """End-to-end sanity: a few SGD steps on a separable toy problem."""
        model = nn.build_mlp_model((1, 4, 4), num_classes=2, rng=rng, hidden_dim=16)
        x = rng.normal(size=(64, 1, 4, 4))
        labels = (x.mean(axis=(1, 2, 3)) > 0).astype(int)
        optimizer = nn.SGD(model.parameters(), lr=0.5)
        first_loss = None
        for _ in range(60):
            model.zero_grad()
            logits = model.forward(x)
            loss, grad = nn.cross_entropy(logits, labels)
            if first_loss is None:
                first_loss = loss
            model.backward(grad_logits=grad)
            optimizer.step()
        assert loss < first_loss * 0.5
