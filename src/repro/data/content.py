"""Class *content* generation for the synthetic multi-domain datasets.

Domain generalization assumes every domain shares the same label-defining
content while rendering it in a different style (paper Definition 3: the
conditional feature distribution ``P(x|y)`` shifts across domains while the
content semantics stay fixed).  This module produces the content half of that
factorization: each class owns a smooth spatial *prototype pattern*, and each
sample is the prototype plus bounded content jitter (shifts and smooth noise),
rendered as a single-channel map in roughly ``[-1, 1]``.

The style half — how a domain colours, textures, and exposes that content —
lives in :mod:`repro.data.styles`.

Draw order (part of the contract)
---------------------------------
Suite bytes are a function of the generator stream, so the scalar draws keep
a fixed order: a smooth field takes ``normal, uniform`` per Fourier component
in ``(fy, fx)`` order, and each sample of :meth:`ContentBank.sample` takes
``integers, integers`` (its shift) before its field's draws.  Everything
after the draws is batched; ``tests/test_data_suites.py`` keeps the
per-sample algorithm this replaced and requires the same bytes and the same
generator state from both.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ContentBank", "smooth_noise"]


def _draw_field(rng: np.random.Generator, cutoff: int) -> list[tuple[float, float]]:
    """One field's scalar draws in stream order: per component the standard
    normal of ``rng.normal()`` and the ``[0, 1)`` uniform that
    ``rng.uniform(0, 2 * pi)`` scales."""
    return [(rng.standard_normal(), rng.random()) for _ in range(cutoff * cutoff - 1)]


def _fields(draws: np.ndarray, height: int, width: int, cutoff: int) -> np.ndarray:
    """The field kernel: draws ``(n, cutoff**2 - 1, 2)`` -> ``(n, height, width)``.

    Component ``(fy, fx)`` is ``normal / (1 + fy + fx)`` times the cosine of
    ``fy * y + fx * x + 2 * pi * uniform``; components accumulate in
    ``(fy, fx)`` order and each field is then scaled to unit peak.
    """
    ys = np.linspace(0.0, 2.0 * np.pi, height, endpoint=False)[:, None]
    xs = np.linspace(0.0, 2.0 * np.pi, width, endpoint=False)[None, :]
    frequencies = [(fy, fx) for fy in range(cutoff) for fx in range(cutoff) if fy or fx]
    fields = np.zeros((len(draws), height, width))
    per_component = draws.transpose(1, 2, 0)[..., None, None]
    for (fy, fx), (normal, uniform) in zip(frequencies, per_component):
        # A zero frequency leaves its axis at length 1 (0 * y is exactly 0.0):
        # that wave is one row or column, broadcast when it joins the sum.
        grid = (fy * ys if fy else 0.0) + (fx * xs if fx else 0.0)
        wave = grid + (2.0 * np.pi) * uniform
        np.cos(wave, out=wave)
        wave *= normal / (1.0 + fy + fx)
        fields += wave
    peaks = np.abs(fields).max(axis=(1, 2), keepdims=True)
    np.divide(fields, peaks, out=fields, where=peaks > 0)
    return fields


def smooth_noise(
    height: int, width: int, rng: np.random.Generator, cutoff: int = 3
) -> np.ndarray:
    """Low-frequency random field in roughly [-1, 1].

    Built from a handful of random Fourier components below ``cutoff`` so the
    result is smooth at any resolution — a cheap stand-in for natural-image
    content statistics.
    """
    draws = np.array(_draw_field(rng, cutoff)).reshape(1, -1, 2)
    return _fields(draws, height, width, cutoff)[0]


class ContentBank:
    """Per-class content prototypes plus a sampler for jittered instances.

    Parameters
    ----------
    num_classes:
        Number of classes; each gets an independent prototype.
    image_size:
        Side length of the square content map.
    rng:
        Generator that fixes the prototypes; two banks built from equal seeds
        are identical, which is how every federated client (and the unseen
        test domains) share one ground-truth content space.
    jitter:
        Standard deviation of the smooth additive content noise.
    """

    def __init__(
        self,
        num_classes: int,
        image_size: int,
        rng: np.random.Generator,
        jitter: float = 0.25,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if image_size < 4:
            raise ValueError(f"image_size must be >= 4, got {image_size}")
        self.num_classes = num_classes
        self.image_size = image_size
        self.jitter = jitter
        self.prototypes = np.stack(
            [
                self._make_prototype(class_id, rng)
                for class_id in range(num_classes)
            ]
        )

    def _make_prototype(self, class_id: int, rng: np.random.Generator) -> np.ndarray:
        """One class prototype: smooth field plus a class-keyed geometric cue.

        The geometric cue (an oriented bar whose angle/offset is derived from
        the class index) guarantees prototypes stay discriminable even when
        many classes share similar smooth components — important for the
        65-class Office-Home and long-tail IWildCam stand-ins.
        """
        size = self.image_size
        base = smooth_noise(size, size, rng)
        ys, xs = np.mgrid[0:size, 0:size]
        ys = (ys - size / 2.0) / size
        xs = (xs - size / 2.0) / size
        angle = 2.0 * np.pi * class_id / max(self.num_classes, 1)
        offset = 0.35 * np.sin(3.0 * angle)
        bar = np.exp(
            -(((xs * np.cos(angle) + ys * np.sin(angle)) - offset) ** 2) / 0.02
        )
        blob_x = 0.3 * np.cos(angle * 2.0)
        blob_y = 0.3 * np.sin(angle * 2.0)
        blob = np.exp(-((xs - blob_x) ** 2 + (ys - blob_y) ** 2) / 0.03)
        pattern = 0.5 * base + 1.2 * bar + 0.9 * blob
        peak = np.max(np.abs(pattern))
        return pattern / peak if peak > 0 else pattern

    def sample(
        self, class_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` jittered content maps for ``class_id``.

        Jitter consists of a circular shift of up to 1/8 of the image (small
        translations preserve class identity) and a smooth additive field.
        Output shape is ``(count, image_size, image_size)``.
        """
        if not 0 <= class_id < self.num_classes:
            raise ValueError(
                f"class_id {class_id} out of range [0, {self.num_classes})"
            )
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        size, cutoff = self.image_size, 3  # smooth_noise's default spectrum
        max_shift = max(size // 8, 1)
        shifts, draws = [], []
        for _ in range(count):
            shifts.append(rng.integers(-max_shift, max_shift + 1))
            shifts.append(rng.integers(-max_shift, max_shift + 1))
            draws.append(_draw_field(rng, cutoff))
        shifts = np.array(shifts, dtype=np.int64).reshape(count, 2)
        draws = np.array(draws).reshape(count, cutoff * cutoff - 1, 2)
        # np.roll(prototype, (shift_y, shift_x)) of every sample, as one gather.
        rows = (np.arange(size) - shifts[:, :1]) % size
        cols = (np.arange(size) - shifts[:, 1:]) % size
        samples = _fields(draws, size, size, cutoff)
        samples *= self.jitter
        samples += self.prototypes[class_id][rows[:, :, None], cols[:, None, :]]
        return samples
