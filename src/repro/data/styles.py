"""Domain *style* model: how a domain renders shared content into RGB images.

A :class:`DomainStyle` is a parametric rendering: colourization of the
grayscale content into three channels, per-channel gain/bias, a contrast
exponent, a domain-specific periodic texture, and sensor noise.  All of these
shift the per-channel feature statistics — exactly the kind of covariate
shift AdaIN-based style transfer (paper §III-B) is designed to capture and
neutralize — while leaving the spatial content that defines the label intact.

``DomainStyle.random`` draws a style from a seeded generator; the registry
uses hand-shaped priors per dataset (e.g. the "sketch" domain of the PACS
stand-in is desaturated and high-contrast, "photo" is neutral).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DomainStyle", "render_images"]


@dataclass(frozen=True)
class DomainStyle:
    """Parameters of one domain's rendering pipeline.

    Attributes
    ----------
    name:
        Domain name (e.g. ``"art_painting"``).
    color_weights:
        Shape ``(3,)`` — how strongly the content map drives each channel.
    channel_gain / channel_bias:
        Shape ``(3,)`` — per-channel affine applied after colourization; the
        dominant source of style shift.
    contrast:
        Exponent applied to normalized magnitude (1.0 = linear).
    texture_amp / texture_freq / texture_angle:
        Additive oriented sinusoidal texture (amplitude, spatial frequency in
        cycles per image, orientation in radians).
    noise_std:
        Per-pixel Gaussian sensor noise.
    """

    name: str
    color_weights: tuple[float, float, float]
    channel_gain: tuple[float, float, float]
    channel_bias: tuple[float, float, float]
    contrast: float = 1.0
    texture_amp: float = 0.0
    texture_freq: float = 0.0
    texture_angle: float = 0.0
    noise_std: float = 0.05

    def __post_init__(self) -> None:
        if len(self.color_weights) != 3:
            raise ValueError("color_weights must have 3 entries")
        if len(self.channel_gain) != 3 or len(self.channel_bias) != 3:
            raise ValueError("channel_gain/channel_bias must have 3 entries")
        if self.contrast <= 0:
            raise ValueError(f"contrast must be positive, got {self.contrast}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")

    @staticmethod
    def random(
        name: str,
        rng: np.random.Generator,
        gain_spread: float = 0.6,
        bias_spread: float = 0.5,
        texture_max: float = 0.3,
    ) -> "DomainStyle":
        """Draw a random style; spreads control how far domains sit apart."""
        gains = np.exp(rng.uniform(-gain_spread, gain_spread, size=3))
        biases = rng.uniform(-bias_spread, bias_spread, size=3)
        colors = rng.uniform(0.4, 1.0, size=3)
        return DomainStyle(
            name=name,
            color_weights=tuple(float(c) for c in colors),
            channel_gain=tuple(float(g) for g in gains),
            channel_bias=tuple(float(b) for b in biases),
            contrast=float(np.exp(rng.uniform(-0.3, 0.3))),
            texture_amp=float(rng.uniform(0.0, texture_max)),
            texture_freq=float(rng.uniform(1.0, 4.0)),
            texture_angle=float(rng.uniform(0.0, np.pi)),
            noise_std=float(rng.uniform(0.02, 0.08)),
        )

    def texture_field(self, height: int, width: int) -> np.ndarray:
        """The domain's oriented sinusoidal texture, shape ``(height, width)``."""
        if self.texture_amp == 0.0:
            return np.zeros((height, width))
        ys, xs = np.mgrid[0:height, 0:width]
        ys = ys / height
        xs = xs / width
        projection = xs * np.cos(self.texture_angle) + ys * np.sin(self.texture_angle)
        return self.texture_amp * np.sin(2.0 * np.pi * self.texture_freq * projection)


def render_images(
    content: np.ndarray, style: DomainStyle, rng: np.random.Generator
) -> np.ndarray:
    """Render content maps ``(n, H, W)`` into styled RGB images ``(n, 3, H, W)``.

    Pipeline per sample: contrast-warp the content, colourize into three
    channels, apply the per-channel affine, add the domain texture, add
    sensor noise.
    """
    if content.ndim != 3:
        raise ValueError(f"content must be (n, H, W), got shape {content.shape}")
    count, height, width = content.shape
    warped = np.sign(content) * np.abs(content) ** style.contrast
    color = np.asarray(style.color_weights)[None, :, None, None]
    gain = np.asarray(style.channel_gain)[None, :, None, None]
    bias = np.asarray(style.channel_bias)[None, :, None, None]
    images = warped[:, None, :, :] * color
    images *= gain
    images += bias
    images += style.texture_field(height, width)[None, None, :, :]
    if style.noise_std > 0:
        images += rng.normal(0.0, style.noise_std, size=images.shape)
    return images
