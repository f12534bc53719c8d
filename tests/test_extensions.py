"""Tests for the extension modules: multi-seed statistics, the transform
library, and differentially-private style sharing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_pacs, partition_clients
from repro.data.transforms import (
    compose,
    gaussian_noise,
    random_shift,
    standard_augmentation,
)
from repro.eval.statistics import (
    SeedSweepResult,
    mean_std,
    paired_win_rate,
    sweep_seeds,
)
from repro.fl import Client, LocalTrainingConfig, run_prepare
from repro.privacy.dp import DPStyleStrategy, GaussianMechanism, gaussian_sigma
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)


class TestStatistics:
    def test_sweep_collects_all_seeds(self):
        result = sweep_seeds(lambda seed: float(seed) * 0.1, [0, 1, 2])
        assert result.count == 3
        np.testing.assert_allclose(result.mean, 0.1)

    def test_confidence_interval_narrows_with_agreement(self):
        tight = SeedSweepResult([0.5, 0.5, 0.5])
        loose = SeedSweepResult([0.1, 0.5, 0.9])
        t_lo, t_hi = tight.confidence_interval()
        l_lo, l_hi = loose.confidence_interval()
        assert (t_hi - t_lo) < (l_hi - l_lo)

    def test_single_seed_ci_degenerates(self):
        result = SeedSweepResult([0.7])
        assert result.confidence_interval() == (0.7, 0.7)

    def test_paired_win_rate(self):
        assert paired_win_rate([2, 2, 2], [1, 1, 1]) == 1.0
        assert paired_win_rate([1, 2], [2, 1]) == 0.5
        assert paired_win_rate([1.0], [1.0]) == 0.5  # tie counts half

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_seeds(lambda s: 0.0, [])
        with pytest.raises(ValueError):
            paired_win_rate([1], [1, 2])
        with pytest.raises(ValueError):
            mean_std([])


class TestTransforms:
    def batch(self, rng, n=4):
        return rng.normal(size=(n, 3, 8, 8))

    def test_shift_preserves_content_multiset(self, rng):
        images = self.batch(rng)
        shifted = random_shift(2)(images, rng)
        np.testing.assert_allclose(
            np.sort(images.reshape(4, -1), axis=1),
            np.sort(shifted.reshape(4, -1), axis=1),
        )

    def test_noise_zero_std_is_identity(self, rng):
        images = self.batch(rng)
        np.testing.assert_array_equal(gaussian_noise(0.0)(images, rng), images)

    def test_compose_order(self, rng):
        images = np.ones((1, 3, 8, 8))
        pipeline = compose([
            gaussian_noise(0.0),
            lambda batch, _rng: batch * 2,
            lambda batch, _rng: batch + 1,
        ])
        np.testing.assert_array_equal(pipeline(images, rng), 3 * images)

    def test_standard_augmentation_changes_images(self, rng):
        images = self.batch(rng)
        augmented = standard_augmentation()(images, rng)
        assert augmented.shape == images.shape
        assert not np.allclose(augmented, images)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_property_label_free_shapes(self, seed):
        """Every transform preserves the batch shape."""
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(3, 3, 8, 8))
        for transform in (random_shift(1), gaussian_noise(0.05),
                          standard_augmentation()):
            assert transform(images, rng).shape == images.shape

    def test_rejects_non_batch(self, rng):
        with pytest.raises(ValueError):
            random_shift(1)(np.zeros((3, 8, 8)), rng)


class TestDifferentialPrivacy:
    def test_sigma_formula(self):
        sigma = gaussian_sigma(epsilon=1.0, delta=1e-5, sensitivity=2.0)
        expected = 2.0 * np.sqrt(2 * np.log(1.25e5))
        np.testing.assert_allclose(sigma, expected)

    def test_sigma_decreases_with_epsilon(self):
        loose = gaussian_sigma(2.0, 1e-5, 1.0)
        strict = gaussian_sigma(0.5, 1e-5, 1.0)
        assert strict > loose

    def test_privatize_clips_and_noises(self, rng):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-5, clip_norm=1.0)
        big = np.full(8, 100.0)
        out = mech.privatize(big, rng)
        # Clipped to norm 1, then noised with sigma ~ 9.6: far from 100.
        assert np.linalg.norm(out) < 100.0
        assert not np.allclose(out, big)

    def test_noise_scale_grows_with_privacy(self, rng):
        strict = GaussianMechanism(epsilon=0.1, delta=1e-5, clip_norm=1.0)
        loose = GaussianMechanism(epsilon=5.0, delta=1e-5, clip_norm=1.0)
        assert strict.sigma > loose.sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=0.0, delta=1e-5, clip_norm=1.0)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=0.0, clip_norm=1.0)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=1e-5, clip_norm=0.0)

    @staticmethod
    def _clients():
        partition = partition_clients(
            SUITE, [0, 1], 4, 0.2, np.random.default_rng(0)
        )
        return [Client(i, d) for i, d in enumerate(partition.client_datasets)]

    @staticmethod
    def _dp(epsilon=2.0):
        return DPStyleStrategy(
            mechanism=GaussianMechanism(epsilon=epsilon, delta=1e-5, clip_norm=5.0),
            local_config=LocalTrainingConfig(batch_size=8),
        )

    def test_dp_strategy_produces_valid_interpolation_style(self):
        strategy = self._dp()
        run_prepare(strategy, self._clients(), SeedTree(0))
        style = strategy.interpolation_style
        assert style is not None
        assert np.all(np.isfinite(style.to_array()))
        assert np.all(style.sigma >= 0)  # post-processing floor applied

    def test_dp_styles_differ_from_raw(self):
        from repro.core import PardonStrategy

        clients = self._clients()
        raw = PardonStrategy(local_config=LocalTrainingConfig(batch_size=8))
        run_prepare(raw, clients, SeedTree(1))
        dp = self._dp(epsilon=1.0)
        run_prepare(dp, clients, SeedTree(1))
        for client_id in raw.client_styles:
            assert not np.allclose(
                raw.client_styles[client_id].to_array(),
                dp.client_styles[client_id].to_array(),
            )

    def test_server_sees_only_privatized_styles(self, monkeypatch):
        """Noise is added on the client: what reaches ``fuse_prepare`` is
        each client's clipped, noised style under its own
        ``(noise_seed, client_id)`` generator, and the interpolation style
        is extracted once, from those vectors."""
        import repro.core.pardon as pardon
        from repro.core import compute_client_style

        calls = []
        extract = pardon.extract_interpolation_style
        monkeypatch.setattr(
            pardon, "extract_interpolation_style",
            lambda styles, **kw: calls.append(styles) or extract(styles, **kw),
        )
        strategy = self._dp()
        fused = []
        fuse = strategy.fuse_prepare
        strategy.fuse_prepare = lambda payloads: fused.append(payloads) or fuse(payloads)
        clients = [c for c in self._clients() if c.num_samples]
        run_prepare(strategy, clients, SeedTree(0))

        assert len(fused) == 1 and len(calls) == 1
        assert list(fused[0]) == [c.client_id for c in clients]
        for client in clients:
            raw = compute_client_style(
                client.dataset.images, strategy.encoder, use_local_clustering=True
            ).to_array()
            expected = strategy.mechanism.privatize(
                raw, np.random.default_rng((strategy.noise_seed, client.client_id))
            )
            half = expected.shape[0] // 2
            expected[half:] = np.maximum(expected[half:], 0.0)
            np.testing.assert_array_equal(fused[0][client.client_id]["style"], expected)
            assert not np.allclose(expected, raw)
        np.testing.assert_array_equal(
            np.stack([s.to_array() for s in calls[0]]),
            np.stack([fused[0][c.client_id]["style"] for c in clients]),
        )
