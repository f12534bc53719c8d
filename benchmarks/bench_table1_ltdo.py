"""Table I — LTDO comparison on PACS and Office-Home stand-ins.

Paper setting: two domains train, the other two serve as validation/test
alternately; N=100 clients, 20% sampled, lambda=0.1, 50 rounds.  Scaled
here (see ``common.py``; README "Architecture map"); the *shape* to check
is: Ours best AVG on both datasets, FedSR near chance, CCST competitive but
behind Ours.
"""

from __future__ import annotations

import numpy as np

from common import (
    bench_rounds,
    bench_seeds,
    emit,
    method_factories,
    METHOD_ORDER,
    samples_per_class,
)

from repro.data import synthetic_office_home, synthetic_pacs
from repro.eval import ExperimentSetting, run_ltdo_protocol
from repro.utils.tables import format_percent, format_table


def _setting(seed: int) -> ExperimentSetting:
    return ExperimentSetting(
        num_clients=20,
        clients_per_round=0.2,
        heterogeneity=0.1,
        num_rounds=bench_rounds(30),
        eval_every=bench_rounds(30),
        seed=seed,
    )


def _run_dataset(suite, title: str) -> str:
    factories = method_factories()
    domain_names = suite.domain_names
    rows = []
    for method in METHOD_ORDER:
        val_runs, test_runs = [], []
        for seed in bench_seeds():
            outcomes = run_ltdo_protocol(
                suite, factories[method], _setting(seed)
            )
            val_runs.append([outcomes[d].val_accuracy for d in domain_names])
            test_by_domain = {
                outcomes[d].test_domains[0]: outcomes[d].test_accuracy
                for d in domain_names
            }
            test_runs.append([test_by_domain[d] for d in domain_names])
        val_cells = list(np.mean(val_runs, axis=0))
        test_cells = list(np.mean(test_runs, axis=0))
        row = (
            [method]
            + [format_percent(v) for v in val_cells]
            + [format_percent(sum(val_cells) / len(val_cells))]
            + [format_percent(t) for t in test_cells]
            + [format_percent(sum(test_cells) / len(test_cells))]
        )
        rows.append(row)
    headers = (
        ["Method"]
        + [f"val:{d}" for d in domain_names]
        + ["val:AVG"]
        + [f"test:{d}" for d in domain_names]
        + ["test:AVG"]
    )
    return format_table(headers, rows, title=title)


def test_table1_pacs(benchmark):
    suite = synthetic_pacs(seed=0, samples_per_class=samples_per_class(40))
    table = benchmark.pedantic(
        lambda: _run_dataset(suite, "Table I (LTDO) — synthetic PACS"),
        rounds=1, iterations=1,
    )
    emit("table1_ltdo_pacs", table)


def test_table1_office_home(benchmark):
    suite = synthetic_office_home(seed=0, samples_per_class=samples_per_class(4))
    table = benchmark.pedantic(
        lambda: _run_dataset(suite, "Table I (LTDO) — synthetic Office-Home"),
        rounds=1, iterations=1,
    )
    emit("table1_ltdo_office_home", table)
