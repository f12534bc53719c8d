"""Tests for the privacy substrate: metrics, the inversion generator, and
the headline sample-vs-client reconstruction gap (paper Table IV)."""

import numpy as np
import pytest

from repro.data import synthetic_pacs
from repro.nn import build_mlp_model, cross_entropy, SGD
from repro.privacy import (
    client_style_vectors,
    fid_score,
    frechet_distance,
    inception_score_like,
    psnr,
    run_reconstruction_attack,
    sample_style_vectors,
    train_inverter,
)
from repro.style import FrozenConvEncoder, InvertibleEncoder

SUITE = synthetic_pacs(seed=0, samples_per_class=12, image_size=8)
ENCODER = InvertibleEncoder(levels=1, seed=7)


def train_judge(rng):
    """A small classifier on the suite, used by the IS-like metric."""
    train = SUITE.merged([0, 1, 2, 3])
    model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    n = len(train)
    shuffle = np.random.default_rng(0)
    for _ in range(5):
        order = shuffle.permutation(n)
        for start in range(0, n, 32):
            idx = order[start : start + 32]
            model.zero_grad()
            logits = model.forward(train.images[idx])
            _, grad = cross_entropy(logits, train.labels[idx])
            model.backward(grad_logits=grad)
            optimizer.step()
    return model


class TestFrechetDistance:
    def test_identical_sets_near_zero(self, rng):
        features = rng.normal(size=(50, 6))
        assert frechet_distance(features, features) < 1e-6

    def test_mean_shift_increases_distance(self, rng):
        a = rng.normal(size=(100, 6))
        b_near = a + 0.1
        b_far = a + 3.0
        assert frechet_distance(a, b_far) > frechet_distance(a, b_near)

    def test_known_isotropic_value(self, rng):
        """For equal covariance and mean gap d, FD == ||d||^2."""
        a = rng.normal(size=(5000, 3))
        shift = np.array([2.0, 0.0, 0.0])
        value = frechet_distance(a, a + shift)
        np.testing.assert_allclose(value, 4.0, rtol=0.1)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            frechet_distance(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))
        with pytest.raises(ValueError):
            frechet_distance(rng.normal(size=(1, 3)), rng.normal(size=(10, 3)))


class TestInceptionScoreLike:
    def test_confident_diverse_beats_uniform_blobs(self, rng):
        judge = train_judge(rng)
        real = SUITE.datasets[0].images
        blobs = np.ones_like(real[:20]) * real.mean()
        diverse = inception_score_like(real, judge)
        collapsed = inception_score_like(blobs, judge)
        assert diverse > collapsed

    def test_lower_bound_is_one(self, rng):
        judge = train_judge(rng)
        identical = np.repeat(SUITE.datasets[0].images[:1], 10, axis=0)
        score = inception_score_like(identical, judge)
        np.testing.assert_allclose(score, 1.0, atol=1e-6)

    def test_empty_rejected(self, rng):
        judge = train_judge(rng)
        with pytest.raises(ValueError):
            inception_score_like(np.zeros((0, 3, 8, 8)), judge)


class TestPSNR:
    def test_perfect_reconstruction_infinite(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        assert psnr(x, x.copy()) == float("inf")

    def test_more_noise_lower_psnr(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        small = psnr(x, x + 0.01 * rng.normal(size=x.shape))
        large = psnr(x, x + 1.0 * rng.normal(size=x.shape))
        assert small > large

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            psnr(np.zeros((1, 3, 4, 4)), np.zeros((2, 3, 4, 4)))


class TestInverterTraining:
    def test_learns_to_reconstruct_in_distribution(self, rng):
        images = SUITE.datasets[0].images
        result = train_inverter(images, ENCODER, rng, epochs=30)
        assert result.losses[-1] < result.losses[0]
        styles = sample_style_vectors(images[:8], ENCODER)
        recon = result.generator.generate(styles)
        assert recon.shape == images[:8].shape
        # Styles carry colour structure: reconstruction beats predicting zero.
        baseline = np.mean(images[:8] ** 2)
        assert np.mean((recon - images[:8]) ** 2) < baseline

    def test_requires_minimum_data(self, rng):
        with pytest.raises(ValueError):
            train_inverter(SUITE.datasets[0].images[:2], ENCODER, rng)


class TestClientStyleVectors:
    def test_one_vector_per_nonempty_client(self, rng):
        datasets = [SUITE.datasets[0].images[:10], SUITE.datasets[1].images[:10],
                    np.zeros((0, 3, 8, 8))]
        vectors = client_style_vectors(datasets, ENCODER)
        assert vectors.shape == (2, 2 * ENCODER.out_channels)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            client_style_vectors([np.zeros((0, 3, 8, 8))], ENCODER)


class TestReconstructionGap:
    def test_client_styles_leak_less_than_sample_styles(self, rng):
        """The paper's Table IV in one assertion: reconstructions from
        client-level (PARDON) style vectors sit much farther from the real
        data than reconstructions from sample-level (CCST) style vectors."""
        judge = train_judge(rng)
        victim = SUITE.merged([0, 1])
        # Victim data split across 6 clients.
        chunks = np.array_split(np.arange(len(victim)), 6)
        client_data = [victim.images[c] for c in chunks]
        surrogate = synthetic_pacs(seed=99, samples_per_class=12, image_size=8)
        attacker_images = surrogate.merged([0, 1]).images

        fid_encoder = FrozenConvEncoder(seed=11)
        reports = {}
        for mode in ("sample", "client"):
            reports[mode] = run_reconstruction_attack(
                attacker_images=attacker_images,
                victim_images=victim.images,
                victim_client_datasets=client_data,
                mode=mode,
                encoder=ENCODER,
                judge=judge,
                rng=np.random.default_rng(5),
                epochs=25,
                fid_encoder=fid_encoder,
            )
        assert reports["client"].fid > reports["sample"].fid
        assert reports["client"].num_reconstructions == 6
        assert reports["sample"].num_reconstructions == len(victim)

    def test_mode_validation(self, rng):
        with pytest.raises(ValueError):
            run_reconstruction_attack(
                attacker_images=SUITE.datasets[0].images,
                victim_images=SUITE.datasets[1].images,
                victim_client_datasets=[SUITE.datasets[1].images],
                mode="bogus",
                encoder=ENCODER,
                judge=None,
                rng=rng,
            )
