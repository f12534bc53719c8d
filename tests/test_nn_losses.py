"""Tests for loss functions, including finite-difference checks of the
triplet loss — the heart of PARDON's contrastive mechanism.  The Eq. 7 /
Eq. 8 losses exist only over ``(K, ...)`` stacks; they are checked here on
a stack of one client."""

import numpy as np
import pytest

from repro import nn
from repro.nn.ensemble import EnsembleEmbeddingL2Loss, EnsembleTripletStyleLoss
from repro.nn.functional import log_softmax
from tests.gradcheck import numeric_gradient


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        loss = nn.CrossEntropyLoss().forward(logits, labels)
        manual = -log_softmax(logits)[np.arange(4), labels].mean()
        np.testing.assert_allclose(loss, manual)

    def test_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        criterion = nn.CrossEntropyLoss()
        criterion.forward(logits, labels)
        analytic = criterion.backward()
        numeric = numeric_gradient(
            lambda: nn.CrossEntropyLoss().forward(logits, labels), logits
        )
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = nn.CrossEntropyLoss().forward(logits, np.array([0, 1]))
        assert loss < 1e-8

    def test_sum_reduction(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 2, 0, 1])
        mean_loss = nn.CrossEntropyLoss("mean").forward(logits, labels)
        sum_loss = nn.CrossEntropyLoss("sum").forward(logits, labels)
        np.testing.assert_allclose(sum_loss, 5 * mean_loss)

    def test_rejects_batch_mismatch(self, rng):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss().forward(rng.normal(size=(3, 2)), np.array([0, 1]))


def one_client(criterion, *arrays):
    """``criterion``'s loss on a stack of one client (K = 1)."""
    (loss,) = criterion.forward(*(np.asarray(a)[None] for a in arrays))
    return loss


def one_client_grads(criterion):
    """The single slice of ``criterion``'s two gradient stacks."""
    grad_a, grad_t = criterion.backward()
    return grad_a[0], grad_t[0]


class TestTripletStyleLoss:
    """Paper Eq. 7 through :class:`EnsembleTripletStyleLoss`, one client."""

    def test_hinge_zero_when_negatives_far_and_positive_close(self, rng):
        anchors = rng.normal(size=(4, 8))
        anchors[2:] += 100.0  # well-separated classes
        transferred = anchors.copy()  # positives exactly at anchors
        labels = np.array([0, 0, 1, 1])
        loss = one_client(
            EnsembleTripletStyleLoss(margin=1.0, hinge=True, normalize=False),
            anchors, transferred, labels,
        )
        assert loss == 0.0

    def test_no_hinge_rewards_far_negatives(self, rng):
        """Without the hinge (the paper's Eq. 7 as written) the same
        configuration yields a negative loss — pushing negatives farther
        keeps paying off."""
        anchors = rng.normal(size=(4, 8))
        anchors[2:] += 100.0
        transferred = anchors.copy()
        labels = np.array([0, 0, 1, 1])
        loss = one_client(
            EnsembleTripletStyleLoss(margin=1.0, hinge=False, normalize=False),
            anchors, transferred, labels,
        )
        assert loss < 0.0

    def test_positive_when_negative_closer_than_positive(self):
        anchors = np.array([[0.0, 0.0], [10.0, 10.0]])
        transferred = np.array([[5.0, 5.0], [0.1, 0.1]])  # other-class is closer
        labels = np.array([0, 1])
        loss = one_client(
            EnsembleTripletStyleLoss(margin=0.5, normalize=False),
            anchors, transferred, labels,
        )
        assert loss > 0.0

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("hinge", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_gradients_match_fd(self, reduction, hinge, normalize, rng):
        anchors = rng.normal(size=(5, 4))
        transferred = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 0, 2, 1])
        criterion = EnsembleTripletStyleLoss(
            margin=2.0, reduction=reduction, hinge=hinge, normalize=normalize
        )
        one_client(criterion, anchors, transferred, labels)
        grad_a, grad_t = one_client_grads(criterion)

        def loss_fn():
            return one_client(
                EnsembleTripletStyleLoss(
                    margin=2.0, reduction=reduction, hinge=hinge, normalize=normalize
                ),
                anchors, transferred, labels,
            )

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
        loss = one_client(
            EnsembleTripletStyleLoss(margin=0.0, normalize=True),
            anchors, transferred, labels,
        )
        assert -4.0 <= loss <= 4.0

    def test_normalized_gradient_is_tangent(self, rng):
        """The chained gradient has no radial component: moving along z
        itself cannot change z/||z||."""
        anchors = rng.normal(size=(4, 6))
        transferred = rng.normal(size=(4, 6))
        labels = np.array([0, 1, 0, 1])
        criterion = EnsembleTripletStyleLoss(normalize=True)
        one_client(criterion, anchors, transferred, labels)
        grad_a, grad_t = one_client_grads(criterion)
        radial_a = np.sum(grad_a * anchors, axis=1)
        radial_t = np.sum(grad_t * transferred, axis=1)
        np.testing.assert_allclose(radial_a, 0.0, atol=1e-10)
        np.testing.assert_allclose(radial_t, 0.0, atol=1e-10)

    def test_single_class_batch_has_no_negative_term(self, rng):
        """All-same-class batch: loss reduces to hinge(positive + margin)."""
        anchors = rng.normal(size=(3, 4))
        transferred = rng.normal(size=(3, 4))
        labels = np.zeros(3, dtype=int)
        loss = one_client(
            EnsembleTripletStyleLoss(margin=0.0, reduction="sum", normalize=False),
            anchors, transferred, labels,
        )
        expected = np.sum((anchors - transferred) ** 2)
        np.testing.assert_allclose(loss, expected)

    def test_empty_batch(self):
        criterion = EnsembleTripletStyleLoss()
        loss = one_client(criterion, np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0))
        assert loss == 0.0
        grad_a, grad_t = one_client_grads(criterion)
        assert grad_a.shape == (0, 4) and grad_t.shape == (0, 4)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            EnsembleTripletStyleLoss(margin=-1.0)

    def test_minimizing_pulls_anchor_to_positive(self, rng):
        """Gradient descent on the loss moves anchors toward their positives
        and away from other-class transferred samples."""
        anchors = np.array([[0.0, 0.0], [4.0, 4.0]])
        transferred = np.array([[2.0, 0.0], [2.0, 4.0]])
        labels = np.array([0, 1])
        criterion = EnsembleTripletStyleLoss(margin=10.0, normalize=False)
        for _ in range(50):
            one_client(criterion, anchors, transferred, labels)
            grad_a, _ = one_client_grads(criterion)
            anchors -= 0.05 * grad_a
        dist_pos_0 = np.linalg.norm(anchors[0] - transferred[0])
        dist_neg_0 = np.linalg.norm(anchors[0] - transferred[1])
        assert dist_pos_0 < dist_neg_0


class TestEmbeddingL2:
    """Paper Eq. 8 through :class:`EnsembleEmbeddingL2Loss`, one client."""

    def test_value(self, rng):
        a = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        loss = one_client(EnsembleEmbeddingL2Loss(reduction="sum"), a, t)
        np.testing.assert_allclose(loss, np.sum(a**2) + np.sum(t**2))

    def test_gradients(self, rng):
        a = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        criterion = EnsembleEmbeddingL2Loss()
        one_client(criterion, a, t)
        grad_a, grad_t = one_client_grads(criterion)
        np.testing.assert_allclose(grad_a, 2 * a / 3)
        np.testing.assert_allclose(grad_t, 2 * t / 3)


class TestMSE:
    def test_value_and_gradient(self, rng):
        pred = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 5))
        criterion = nn.MSELoss()
        loss = criterion.forward(pred, target)
        np.testing.assert_allclose(loss, np.mean((pred - target) ** 2))
        numeric = numeric_gradient(
            lambda: nn.MSELoss().forward(pred, target), pred
        )
        np.testing.assert_allclose(criterion.backward(), numeric, rtol=1e-5, atol=1e-8)
