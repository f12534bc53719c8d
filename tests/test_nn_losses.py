"""Tests for the loss functions of ``repro.nn.losses``, including
finite-difference checks of the triplet loss — the heart of PARDON's
contrastive mechanism.  The Eq. 7 / Eq. 8 losses take ``(K, ...)`` stacks:
the hand-valued cases run them on a stack of one client, and drawn batches
hold every slice of a K-stack, and a stack of one, bitwise to the scalar
oracle in ``tests/reference_loop.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.losses import embedding_l2_loss, triplet_style_loss
from tests import reference_loop
from tests.reference_loop import log_softmax
from tests.gradcheck import numeric_gradient


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        loss, _ = nn.cross_entropy(logits, labels)
        manual = -log_softmax(logits)[np.arange(4), labels].mean()
        np.testing.assert_allclose(loss, manual)

    def test_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        _, analytic = nn.cross_entropy(logits, labels)
        numeric = numeric_gradient(lambda: nn.cross_entropy(logits, labels)[0], logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = nn.cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-8

    def test_rejects_batch_mismatch(self, rng):
        with pytest.raises(ValueError):
            nn.cross_entropy(rng.normal(size=(3, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("label", [-1, 2], ids=["negative", "too_large"])
    def test_rejects_out_of_range_labels(self, label, rng):
        """A negative label must not index the last class from the end."""
        with pytest.raises(ValueError, match="out of range"):
            nn.cross_entropy(rng.normal(size=(2, 2)), np.array([0, label]))


def one_client(loss, *arrays, **params):
    """``(loss, grad_anchors, grad_transferred)`` of ``loss`` on a stack of
    one client (K = 1)."""
    losses, grad_a, grad_t = loss(*(np.asarray(a)[None] for a in arrays), **params)
    return losses[0], grad_a[0], grad_t[0]


def unit(rows):
    """``rows`` scaled to unit L2 norm, where the triplet's normalization
    is the identity up to rounding."""
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestTripletStyleLoss:
    """Paper Eq. 7 through :func:`triplet_style_loss`, one client."""

    # Two classes on opposite unit axes, each positive exactly at its
    # anchor: every negative lies at squared distance 2 or 4 (mean 3).
    SEPARATED = np.eye(8)[[0, 1, 0, 1]] * np.array([[1.0], [1.0], [-1.0], [-1.0]])

    def test_hinge_zero_when_negatives_far_and_positive_close(self):
        anchors = self.SEPARATED
        loss, _, _ = one_client(
            triplet_style_loss, anchors, anchors.copy(), np.array([0, 0, 1, 1]),
            margin=1.0, hinge=True,
        )
        assert loss == 0.0

    def test_no_hinge_rewards_far_negatives(self):
        """Without the hinge (the paper's Eq. 7 as written) the same
        configuration yields a negative loss — pushing negatives farther
        keeps paying off."""
        anchors = self.SEPARATED
        loss, _, _ = one_client(
            triplet_style_loss, anchors, anchors.copy(), np.array([0, 0, 1, 1]),
            margin=1.0, hinge=False,
        )
        assert loss < 0.0

    def test_positive_when_negative_closer_than_positive(self):
        anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
        transferred = np.array([[0.0, 1.0], [1.0, 0.0]])  # other-class is closer
        labels = np.array([0, 1])
        loss, _, _ = one_client(
            triplet_style_loss, anchors, transferred, labels, margin=0.5, hinge=False
        )
        assert loss > 0.0

    @pytest.mark.parametrize("hinge", [False, True])
    def test_gradients_match_fd(self, hinge, rng):
        anchors = rng.normal(size=(5, 4))
        transferred = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 0, 2, 1])
        params = dict(margin=2.0, hinge=hinge)
        _, grad_a, grad_t = one_client(
            triplet_style_loss, anchors, transferred, labels, **params
        )

        def loss_fn():
            return one_client(
                triplet_style_loss, anchors, transferred, labels, **params
            )[0]

        numeric_a = numeric_gradient(loss_fn, anchors)
        numeric_t = numeric_gradient(loss_fn, transferred)
        np.testing.assert_allclose(grad_a, numeric_a, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(grad_t, numeric_t, rtol=1e-4, atol=1e-7)

    def test_normalized_distances_are_bounded(self, rng):
        """On the unit sphere every pairwise term lies in [0, 4], so the
        hinge-free loss cannot explode regardless of embedding scale."""
        anchors = rng.normal(size=(6, 8)) * 1e6
        transferred = rng.normal(size=(6, 8)) * 1e-6
        labels = np.array([0, 1, 2, 0, 1, 2])
        loss, _, _ = one_client(
            triplet_style_loss, anchors, transferred, labels, margin=0.0, hinge=False
        )
        assert -4.0 <= loss <= 4.0

    def test_normalized_gradient_is_tangent(self, rng):
        """The chained gradient has no radial component: moving along z
        itself cannot change z/||z||."""
        anchors = rng.normal(size=(4, 6))
        transferred = rng.normal(size=(4, 6))
        labels = np.array([0, 1, 0, 1])
        _, grad_a, grad_t = one_client(
            triplet_style_loss, anchors, transferred, labels, margin=1.0, hinge=False
        )
        radial_a = np.sum(grad_a * anchors, axis=1)
        radial_t = np.sum(grad_t * transferred, axis=1)
        np.testing.assert_allclose(radial_a, 0.0, atol=1e-10)
        np.testing.assert_allclose(radial_t, 0.0, atol=1e-10)

    def test_single_class_batch_has_no_negative_term(self, rng):
        """All-same-class batch: loss reduces to the mean positive term."""
        anchors = unit(rng.normal(size=(3, 4)))
        transferred = unit(rng.normal(size=(3, 4)))
        labels = np.zeros(3, dtype=int)
        loss, _, _ = one_client(
            triplet_style_loss, anchors, transferred, labels, margin=0.0, hinge=False
        )
        expected = np.sum((anchors - transferred) ** 2) / 3
        np.testing.assert_allclose(loss, expected)

    def test_empty_batch(self):
        loss, grad_a, grad_t = one_client(
            triplet_style_loss, np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0),
            margin=1.0, hinge=False,
        )
        assert loss == 0.0
        assert grad_a.shape == (0, 4) and grad_t.shape == (0, 4)

    def test_minimizing_pulls_anchor_to_positive(self):
        """Gradient descent on the loss moves an anchor that starts nearer
        the other class's transferred sample to its own positive."""
        anchors = np.array([[-0.6, 0.8], [0.0, -1.0]])
        transferred = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 1])

        def distances():
            return [np.linalg.norm(anchors[0] - t) for t in transferred]

        dist_pos_0, dist_neg_0 = distances()
        assert dist_pos_0 > dist_neg_0
        for _ in range(50):
            _, grad_a, _ = one_client(
                triplet_style_loss, anchors, transferred, labels,
                margin=10.0, hinge=False,
            )
            anchors -= 0.05 * grad_a
        dist_pos_0, dist_neg_0 = distances()
        assert dist_pos_0 < dist_neg_0


class TestEmbeddingL2:
    """Paper Eq. 8 through :func:`embedding_l2_loss`, one client."""

    def test_value(self, rng):
        a = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        loss, _, _ = one_client(embedding_l2_loss, a, t)
        np.testing.assert_allclose(loss, (np.sum(a**2) + np.sum(t**2)) / 3)

    def test_gradients(self, rng):
        a = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        _, grad_a, grad_t = one_client(embedding_l2_loss, a, t)
        np.testing.assert_allclose(grad_a, 2 * a / 3)
        np.testing.assert_allclose(grad_t, 2 * t / 3)


class TestMSE:
    def test_value_and_gradient(self, rng):
        pred = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 5))
        loss, grad = nn.mse(pred, target)
        np.testing.assert_allclose(loss, np.mean((pred - target) ** 2))
        numeric = numeric_gradient(lambda: nn.mse(pred, target)[0], pred)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)


@st.composite
def embedding_stacks(draw):
    """``(anchors, transferred, labels, margin, hinge)``: ``(K, B, d)``
    stacks of K 1-4 clients, batch 0-6 and d 1-5 at a drawn scale, with
    labels from 1-3 classes (so one-class batches are drawn too)."""
    stack = draw(st.integers(1, 4))
    batch = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-6, 1.0, 1e3)))
    anchors = rng.normal(size=(stack, batch, dim)) * scale
    transferred = rng.normal(size=(stack, batch, dim)) * scale
    labels = rng.integers(0, draw(st.integers(1, 3)), size=(stack, batch))
    margin = draw(st.floats(0.0, 4.0))
    return anchors, transferred, labels, margin, draw(st.booleans())


class TestGeneratedLosses:
    """Drawn batches: each slice of the Eq. 7 and Eq. 8 functions, on a
    K-stack and on a stack of one, is bitwise the scalar oracle
    (``reference_loop.TripletStyleLoss`` / ``EmbeddingL2Loss``): the loss
    and both gradients."""

    @settings(derandomize=True, deadline=None)
    @given(embedding_stacks())
    def test_every_slice_matches_the_scalar_oracle(self, case):
        anchors, transferred, labels, margin, hinge = case

        def forms(a, t, y):
            return {
                "triplet": triplet_style_loss(a, t, y, margin, hinge),
                "l2": embedding_l2_loss(a, t),
            }

        stacked = forms(anchors, transferred, labels)
        for index in range(anchors.shape[0]):
            a, t, y = anchors[index], transferred[index], labels[index]
            triplet = reference_loop.TripletStyleLoss(margin=margin, hinge=hinge)
            l2 = reference_loop.EmbeddingL2Loss()
            oracle = {
                "triplet": (triplet.forward(a, t, y), *triplet.backward()),
                "l2": (l2.forward(a, t), *l2.backward()),
            }
            alone = forms(a[None], t[None], y[None])
            for name, (loss, grad_a, grad_t) in oracle.items():
                for where, got, row in (
                    (f"slice {index}", stacked[name], index),
                    ("stack of one", alone[name], 0),
                ):
                    assert got[0][row] == loss, f"{name}, {where}: loss"
                    assert np.array_equal(got[1][row], grad_a), (
                        f"{name}, {where}: anchor gradient"
                    )
                    assert np.array_equal(got[2][row], grad_t), (
                        f"{name}, {where}: transferred gradient"
                    )
