"""Tests for the domain-heterogeneity partitioner and LODO/LTDO splits,
including hypothesis properties over (lambda, N) settings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    lodo_splits,
    ltdo_splits,
    partition_clients,
    synthetic_pacs,
)

SUITE = synthetic_pacs(seed=0, samples_per_class=6, image_size=8)


class TestPartitionBasics:
    def test_conserves_every_sample(self, rng):
        partition = partition_clients(SUITE, [0, 1, 2], 10, 0.3, rng)
        total = sum(partition.client_sizes())
        expected = sum(len(SUITE.datasets[d]) for d in [0, 1, 2])
        assert total == expected

    def test_lambda_zero_is_domain_separated(self, rng):
        partition = partition_clients(SUITE, [0, 1], 6, 0.0, rng)
        for dataset, home in zip(partition.client_datasets, partition.home_domains):
            if len(dataset):
                domains = np.unique(dataset.domain_ids)
                assert len(domains) == 1
                assert domains[0] == [0, 1][home]

    def test_lambda_one_mixes_domains(self, rng):
        partition = partition_clients(SUITE, [0, 1, 2], 4, 1.0, rng)
        multi_domain = sum(
            len(np.unique(d.domain_ids)) > 1 for d in partition.client_datasets
        )
        assert multi_domain >= 3

    def test_home_domains_cover_all_train_domains(self, rng):
        partition = partition_clients(SUITE, [0, 1, 2], 9, 0.0, rng)
        assert set(partition.home_domains) == {0, 1, 2}

    def test_mixture_weights_rows_sum_to_one(self, rng):
        partition = partition_clients(SUITE, [0, 1, 2, 3], 7, 0.4, rng)
        np.testing.assert_allclose(partition.mixture_weights.sum(axis=1), 1.0)

    def test_heterogeneity_monotone_in_lambda(self):
        """Higher lambda -> more domain mixing per client on average."""
        def mean_domains_per_client(lam):
            rng = np.random.default_rng(0)
            partition = partition_clients(SUITE, [0, 1, 2], 12, lam, rng)
            return np.mean([
                len(np.unique(d.domain_ids))
                for d in partition.client_datasets if len(d)
            ])

        assert mean_domains_per_client(0.0) <= mean_domains_per_client(0.5)
        assert mean_domains_per_client(0.0) < mean_domains_per_client(1.0)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            partition_clients(SUITE, [0], 5, -0.1, rng)
        with pytest.raises(ValueError):
            partition_clients(SUITE, [0], 0, 0.5, rng)
        with pytest.raises(ValueError):
            partition_clients(SUITE, [], 5, 0.5, rng)

    def test_reproducible_under_seed(self):
        a = partition_clients(SUITE, [0, 1], 5, 0.3, np.random.default_rng(9))
        b = partition_clients(SUITE, [0, 1], 5, 0.3, np.random.default_rng(9))
        for da, db in zip(a.client_datasets, b.client_datasets):
            np.testing.assert_array_equal(da.images, db.images)


class TestPartitionProperties:
    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        n_clients=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, lam, n_clients, seed):
        """No samples created or destroyed, for any (lambda, N, seed)."""
        rng = np.random.default_rng(seed)
        partition = partition_clients(SUITE, [0, 1, 2], n_clients, lam, rng)
        assert sum(partition.client_sizes()) == sum(
            len(SUITE.datasets[d]) for d in [0, 1, 2]
        )

    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_label_sets_preserved(self, lam, seed):
        """The union of client label multisets equals the training pool's."""
        rng = np.random.default_rng(seed)
        partition = partition_clients(SUITE, [0, 1], 8, lam, rng)
        combined = np.sort(
            np.concatenate([d.labels for d in partition.client_datasets if len(d)])
        )
        expected = np.sort(
            np.concatenate([SUITE.datasets[d].labels for d in [0, 1]])
        )
        np.testing.assert_array_equal(combined, expected)


class TestSplits:
    def test_lodo_structure(self):
        splits = lodo_splits(4)
        assert len(splits) == 4
        for i, split in enumerate(splits):
            assert split["val"] == [i] and split["test"] == [i]
            assert sorted(split["train"] + split["val"]) == list(range(4))

    def test_ltdo_each_domain_once_per_role(self):
        splits = ltdo_splits(4)
        assert len(splits) == 4
        vals = [s["val"][0] for s in splits]
        tests = [s["test"][0] for s in splits]
        assert sorted(vals) == list(range(4))
        assert sorted(tests) == list(range(4))
        for split in splits:
            assert len(split["train"]) == 2
            assert split["val"][0] not in split["train"]
            assert split["test"][0] not in split["train"]
            assert split["val"][0] != split["test"][0]

    def test_minimum_domain_counts(self):
        with pytest.raises(ValueError):
            lodo_splits(1)
        with pytest.raises(ValueError):
            ltdo_splits(2)
