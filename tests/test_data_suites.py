"""Tests for dataset containers and the benchmark suite builders.

The last two classes pin the generator *algorithm*: the shipped (batched)
sampler against the per-sample loop it replaced, which lives only here.
Suite bytes depend on the machine (numpy picks its float64 ``cos`` by CPU
feature), so no digest is committed; both sides are built in one process.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.content
import repro.data.synthetic
from repro.data import (
    ContentBank,
    LabeledDataset,
    smooth_noise,
    synthetic_domain_sweep,
    synthetic_iwildcam,
    synthetic_office_home,
    synthetic_pacs,
    synthetic_skew,
)


def tiny_dataset(rng, n=10, domain=0):
    return LabeledDataset(
        images=rng.normal(size=(n, 3, 8, 8)),
        labels=rng.integers(0, 3, size=n),
        domain_ids=np.full(n, domain),
    )


class TestLabeledDataset:
    def test_len_and_shape(self, rng):
        ds = tiny_dataset(rng, n=7)
        assert len(ds) == 7
        assert ds.image_shape == (3, 8, 8)

    def test_subset_copies(self, rng):
        ds = tiny_dataset(rng)
        sub = ds.subset(np.array([0, 2]))
        sub.images[0] = 999.0
        assert ds.images[0, 0, 0, 0] != 999.0

    def test_concatenate(self, rng):
        a, b = tiny_dataset(rng, n=4, domain=0), tiny_dataset(rng, n=6, domain=1)
        merged = LabeledDataset.concatenate([a, b])
        assert len(merged) == 10
        assert set(np.unique(merged.domain_ids)) == {0, 1}

    def test_concatenate_rejects_empty_list(self):
        with pytest.raises(ValueError):
            LabeledDataset.concatenate([])

    def test_class_counts(self, rng):
        ds = LabeledDataset(
            images=np.zeros((4, 3, 8, 8)),
            labels=np.array([0, 0, 2, 1]),
            domain_ids=np.zeros(4),
        )
        np.testing.assert_array_equal(ds.class_counts(4), [2, 1, 1, 0])

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            LabeledDataset(
                images=np.zeros((4, 3, 8)),
                labels=np.zeros(4),
                domain_ids=np.zeros(4),
            )
        with pytest.raises(ValueError):
            LabeledDataset(
                images=np.zeros((4, 3, 8, 8)),
                labels=np.zeros(3),
                domain_ids=np.zeros(4),
            )


class TestPacsSuite:
    def test_structure(self):
        suite = synthetic_pacs(seed=0, samples_per_class=5, image_size=8)
        assert suite.num_domains == 4
        assert suite.num_classes == 7
        assert suite.domain_names == ["photo", "art_painting", "cartoon", "sketch"]
        for dataset in suite.datasets:
            assert len(dataset) == 5 * 7

    def test_domains_have_distinct_statistics(self):
        suite = synthetic_pacs(seed=0, samples_per_class=10, image_size=8)
        means = [d.images.mean(axis=(0, 2, 3)) for d in suite.datasets]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.05

    def test_reproducible(self):
        a = synthetic_pacs(seed=3, samples_per_class=4, image_size=8)
        b = synthetic_pacs(seed=3, samples_per_class=4, image_size=8)
        np.testing.assert_array_equal(a.datasets[0].images, b.datasets[0].images)

    def test_different_seeds_differ(self):
        a = synthetic_pacs(seed=1, samples_per_class=4, image_size=8)
        b = synthetic_pacs(seed=2, samples_per_class=4, image_size=8)
        assert not np.allclose(a.datasets[0].images, b.datasets[0].images)

    def test_domain_lookup(self):
        suite = synthetic_pacs(seed=0, samples_per_class=2, image_size=8)
        assert suite.domain_index("sketch") == 3
        with pytest.raises(KeyError):
            suite.domain_index("nonexistent")
        by_name = suite.dataset_for("cartoon")
        by_index = suite.dataset_for(2)
        np.testing.assert_array_equal(by_name.images, by_index.images)

    def test_merged_pool(self):
        suite = synthetic_pacs(seed=0, samples_per_class=3, image_size=8)
        pool = suite.merged([0, 1])
        assert len(pool) == 2 * 3 * 7
        with pytest.raises(ValueError):
            suite.merged([])


class TestOfficeHomeSuite:
    def test_structure(self):
        suite = synthetic_office_home(seed=0, samples_per_class=2, image_size=8)
        assert suite.num_domains == 4
        assert suite.num_classes == 65
        assert len(suite.datasets[0]) == 2 * 65


class TestIWildCamSuite:
    def test_domain_split_structure(self):
        suite = synthetic_iwildcam(
            seed=0, num_train_domains=6, num_val_domains=2,
            num_test_domains=3, num_classes=10, mean_samples_per_domain=30,
            image_size=8,
        )
        assert suite.num_domains == 11
        assert len(suite.train_domains) == 6
        assert len(suite.val_domains) == 2
        assert len(suite.test_domains) == 3
        all_roles = suite.train_domains + suite.val_domains + suite.test_domains
        assert sorted(all_roles) == list(range(11))

    def test_long_tail_and_absent_classes(self):
        suite = synthetic_iwildcam(
            seed=0, num_train_domains=8, num_val_domains=2, num_test_domains=2,
            num_classes=12, mean_samples_per_domain=40, image_size=8,
        )
        # Global counts long-tailed: head class much bigger than tail class.
        total = sum(
            (d.class_counts(12) for d in suite.datasets),
            start=np.zeros(12, dtype=np.int64),
        )
        assert total[0] > 3 * max(total[-1], 1)
        # At least one camera misses at least one species.
        assert any(
            np.any(d.class_counts(12) == 0) for d in suite.datasets
        )

    def test_camera_styles_differ(self):
        suite = synthetic_iwildcam(
            seed=0, num_train_domains=4, num_val_domains=1, num_test_domains=1,
            num_classes=8, mean_samples_per_domain=40, image_size=8,
        )
        means = [d.images.mean() for d in suite.datasets if len(d)]
        assert np.std(means) > 0.01

    def test_rejects_empty_split(self):
        with pytest.raises(ValueError):
            synthetic_iwildcam(num_val_domains=0)


class TestDomainSweepSuite:
    def test_domain_count_is_a_knob(self):
        for n in (2, 5, 9):
            suite = synthetic_domain_sweep(
                seed=0, num_domains=n, num_classes=4,
                samples_per_class=3, image_size=8,
            )
            assert suite.num_domains == n
            assert len(suite.datasets) == n
            assert suite.train_domains == list(range(n))
            for dataset in suite.datasets:
                assert len(dataset) == 4 * 3

    def test_classes_balanced_per_domain(self):
        suite = synthetic_domain_sweep(
            seed=0, num_domains=3, num_classes=5,
            samples_per_class=4, image_size=8,
        )
        for dataset in suite.datasets:
            np.testing.assert_array_equal(dataset.class_counts(5), [4] * 5)

    def test_domains_have_distinct_statistics(self):
        suite = synthetic_domain_sweep(
            seed=0, num_domains=4, num_classes=4,
            samples_per_class=8, image_size=8,
        )
        means = [d.images.mean(axis=(0, 2, 3)) for d in suite.datasets]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.05

    def test_reproducible(self):
        a = synthetic_domain_sweep(seed=3, num_domains=3, samples_per_class=2,
                                   image_size=8)
        b = synthetic_domain_sweep(seed=3, num_domains=3, samples_per_class=2,
                                   image_size=8)
        np.testing.assert_array_equal(a.datasets[0].images, b.datasets[0].images)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_domain_sweep(num_domains=1)


class TestSkewSuite:
    def test_label_skew_concentrates_class_histograms(self):
        """Larger label_skew -> peakier per-domain class histograms (the
        regime where fused per-class targets must be assembled across
        clients that each see only a class subset)."""
        def mean_top_share(label_skew):
            suite = synthetic_skew(
                seed=0, num_domains=4, num_classes=8,
                samples_per_class=10, image_size=8, label_skew=label_skew,
            )
            shares = []
            for dataset in suite.datasets:
                counts = dataset.class_counts(8)
                shares.append(counts.max() / counts.sum())
            return float(np.mean(shares))

        assert mean_top_share(20.0) > mean_top_share(0.05)

    def test_total_samples_conserved_per_domain(self):
        suite = synthetic_skew(
            seed=0, num_domains=3, num_classes=6,
            samples_per_class=5, image_size=8, label_skew=3.0,
        )
        for dataset in suite.datasets:
            assert len(dataset) == 6 * 5

    def test_reproducible(self):
        a = synthetic_skew(seed=7, num_domains=3, samples_per_class=2,
                           image_size=8)
        b = synthetic_skew(seed=7, num_domains=3, samples_per_class=2,
                           image_size=8)
        np.testing.assert_array_equal(a.datasets[1].images, b.datasets[1].images)
        np.testing.assert_array_equal(a.datasets[1].labels, b.datasets[1].labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_skew(num_domains=1)
        with pytest.raises(ValueError):
            synthetic_skew(label_skew=0.0)


# -- the historical per-sample generator: the reference, kept only here ----------


def reference_smooth_noise(height, width, rng, cutoff=3):
    ys = np.linspace(0.0, 2.0 * np.pi, height, endpoint=False)
    xs = np.linspace(0.0, 2.0 * np.pi, width, endpoint=False)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    field = np.zeros((height, width))
    for fy in range(cutoff):
        for fx in range(cutoff):
            if fy == 0 and fx == 0:
                continue
            amplitude = rng.normal() / (1.0 + fy + fx)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += amplitude * np.cos(fy * grid_y + fx * grid_x + phase)
    peak = np.max(np.abs(field))
    if peak > 0:
        field /= peak
    return field


def reference_sample(bank, class_id, count, rng):
    prototype = bank.prototypes[class_id]
    max_shift = max(bank.image_size // 8, 1)
    samples = np.empty((count, bank.image_size, bank.image_size))
    for index in range(count):
        shift_y = int(rng.integers(-max_shift, max_shift + 1))
        shift_x = int(rng.integers(-max_shift, max_shift + 1))
        shifted = np.roll(prototype, (shift_y, shift_x), axis=(0, 1))
        noise = reference_smooth_noise(bank.image_size, bank.image_size, rng)
        samples[index] = shifted + bank.jitter * noise
    return samples


def reference_render_images(content, style, rng):
    count, height, width = content.shape
    warped = np.sign(content) * np.abs(content) ** style.contrast
    color = np.asarray(style.color_weights)[None, :, None, None]
    gain = np.asarray(style.channel_gain)[None, :, None, None]
    bias = np.asarray(style.channel_bias)[None, :, None, None]
    images = warped[:, None, :, :] * color
    images = images * gain + bias
    images = images + style.texture_field(height, width)[None, None, :, :]
    if style.noise_std > 0:
        images = images + rng.normal(0.0, style.noise_std, size=images.shape)
    return images


def suite_sha256(suite):
    digest = hashlib.sha256()
    for dataset in suite.datasets:
        for array in (dataset.images, dataset.labels, dataset.domain_ids):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestSuiteBytesMatchThePerSampleGenerator:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: synthetic_pacs(0, samples_per_class=200),
            lambda: synthetic_pacs(3),
            lambda: synthetic_office_home(1),
            lambda: synthetic_iwildcam(2),
            lambda: synthetic_domain_sweep(0),
            lambda: synthetic_skew(0),
        ],
        ids=["pacs-bench", "pacs", "office_home", "iwildcam", "sweep", "skew"],
    )
    def test_shipped_equals_reference(self, build, monkeypatch):
        shipped = suite_sha256(build())
        # Prototypes call smooth_noise, domains call sample, then render.
        monkeypatch.setattr(repro.data.content, "smooth_noise", reference_smooth_noise)
        monkeypatch.setattr(ContentBank, "sample", reference_sample)
        monkeypatch.setattr(
            repro.data.synthetic, "render_images", reference_render_images
        )
        assert suite_sha256(build()) == shipped


class TestBatchedSamplerEqualsThePerSampleLoop:
    """Same maps *and* the same generator state afterwards: whatever is
    drawn next (the sensor noise, the next class) sees the same stream."""

    @given(
        num_classes=st.integers(2, 9),
        image_size=st.integers(4, 32),
        count=st.integers(0, 40),
        jitter=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample(self, num_classes, image_size, count, jitter, seed):
        bank = ContentBank(
            num_classes, image_size, np.random.default_rng(seed), jitter=jitter
        )
        class_id = seed % num_classes
        shipped_rng = np.random.default_rng([seed, 1])
        reference_rng = np.random.default_rng([seed, 1])
        shipped = bank.sample(class_id, count, shipped_rng)
        reference = reference_sample(bank, class_id, count, reference_rng)
        assert shipped.shape == (count, image_size, image_size)
        assert np.array_equal(shipped, reference)
        assert shipped_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_zero_count_draws_nothing(self, rng):
        bank = ContentBank(3, 8, rng)
        before = rng.bit_generator.state
        assert bank.sample(0, 0, rng).shape == (0, 8, 8)
        assert rng.bit_generator.state == before

    @given(
        height=st.integers(1, 20),
        width=st.integers(1, 20),
        cutoff=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_smooth_noise(self, height, width, cutoff, seed):
        shipped_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        shipped = smooth_noise(height, width, shipped_rng, cutoff=cutoff)
        reference = reference_smooth_noise(height, width, reference_rng, cutoff)
        assert np.array_equal(shipped, reference)
        assert shipped_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_smooth_noise_non_square_and_empty_spectrum(self):
        field = smooth_noise(8, 12, np.random.default_rng(5))
        reference = reference_smooth_noise(8, 12, np.random.default_rng(5))
        assert field.shape == (8, 12) and np.array_equal(field, reference)
        # cutoff=1 leaves no component: all-zero, and nothing divided by 0.
        with np.errstate(all="raise"):
            flat = smooth_noise(8, 12, np.random.default_rng(5), cutoff=1)
        assert flat.shape == (8, 12) and not flat.any()
