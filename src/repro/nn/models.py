"""Model definitions used across the library.

Every federated strategy in the paper views the network as two modules
(paper §III-B): a feature extractor ``f : X -> Z`` producing a compact
embedding, and a unified classifier ``g : Z -> logits``.
:class:`FeatureClassifierModel` encodes that split explicitly, and its
``backward`` accepts gradients arriving at *both* the logits (from
cross-entropy) and the embedding (from the triplet / regularization terms),
which is exactly the gradient routing PARDON's composite objective needs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.module import Module, Sequential

__all__ = ["FeatureClassifierModel", "build_cnn_model", "build_mlp_model"]


class FeatureClassifierModel(Module):
    """A feature extractor + classifier pair with split gradient entry points.

    Parameters
    ----------
    features:
        Maps input batches to embeddings of shape ``(batch, embed_dim)``.
    classifier:
        Maps embeddings to logits of shape ``(batch, num_classes)``.
    """

    def __init__(self, features: Module, classifier: Module, embed_dim: int) -> None:
        super().__init__()
        self.features = features
        self.classifier = classifier
        self.embed_dim = embed_dim

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Embed a batch; caches activations for the next ``backward``."""
        return self.features.forward(x)

    def forward_logits(self, embeddings: np.ndarray) -> np.ndarray:
        """Classify embeddings; caches activations for the next ``backward``."""
        return self.classifier.forward(embeddings)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass to logits."""
        return self.forward_logits(self.forward_features(x))

    def backward(
        self,
        grad_logits: np.ndarray | None = None,
        grad_embedding: np.ndarray | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Back-propagate gradients arriving at the logits and/or embedding.

        Returns the gradient with respect to the input batch (useful for
        input-space attacks and the loss-landscape tooling).  A training step
        that only wants the parameter gradients passes ``input_grad=False``
        for this one call; the first layer then skips computing it and the
        return value is ``None``.
        """
        if grad_logits is None and grad_embedding is None:
            raise ValueError("at least one of grad_logits/grad_embedding required")
        total_grad_embedding = None
        if grad_logits is not None:
            total_grad_embedding = self.classifier.backward(grad_logits)
        if grad_embedding is not None:
            if total_grad_embedding is None:
                total_grad_embedding = grad_embedding.copy()
            else:
                total_grad_embedding = total_grad_embedding + grad_embedding
        if input_grad:
            return self.features.backward(total_grad_embedding)
        self.features.backward_params(total_grad_embedding)
        return None

    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Evaluation-mode logits, computed in batches to bound memory."""
        was_training = self.training
        self.eval()
        try:
            chunks = [
                self.forward(x[start : start + batch_size])
                for start in range(0, x.shape[0], batch_size)
            ]
            if not chunks:
                # No chunk to take the logit width from: classify an empty
                # embedding batch, which is (0, num_classes).
                chunks = [self.forward_logits(np.zeros((0, self.embed_dim)))]
        finally:
            if was_training:
                self.train()
        return np.concatenate(chunks, axis=0)


def build_cnn_model(
    image_shape: tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    widths: tuple[int, int] = (12, 24),
    embed_dim: int = 64,
) -> FeatureClassifierModel:
    """The default backbone: two stride-2 convs, then a linear embedding.

    Stands in for the paper's ResNet/ImageNet-scale backbone at a size a
    numpy substrate can train in seconds.  Input is NCHW.
    """
    channels, height, width = image_shape
    if height % 4 or width % 4:
        raise ValueError(f"image sides must be divisible by 4, got {image_shape}")
    w1, w2 = widths
    feature_layers = Sequential(
        Conv2d(channels, w1, kernel_size=3, stride=2, padding=1, rng=rng),
        ReLU(),
        Conv2d(w1, w2, kernel_size=3, stride=2, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Linear((height // 4) * (width // 4) * w2, embed_dim, rng=rng),
    )
    classifier = Linear(embed_dim, num_classes, rng=rng)
    return FeatureClassifierModel(feature_layers, classifier, embed_dim=embed_dim)


def build_mlp_model(
    image_shape: tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    embed_dim: int = 32,
) -> FeatureClassifierModel:
    """A small MLP backbone for fast unit/integration tests."""
    channels, height, width = image_shape
    input_dim = channels * height * width
    feature_layers = Sequential(
        Flatten(),
        Linear(input_dim, hidden_dim, rng=rng),
        ReLU(),
        Linear(hidden_dim, embed_dim, rng=rng),
    )
    classifier = Linear(embed_dim, num_classes, rng=rng)
    return FeatureClassifierModel(feature_layers, classifier, embed_dim=embed_dim)
