"""Table V — component ablation of PARDON (v1–v5).

Setting mirrors the paper's Table V run (the LTDO split whose validation
domain is Art and test domain Photo on PACS; here the synthetic analogue).
Shape to check: v5 (full) best; dropping contrastive learning (v3) costs
the most among single-component removals; dropping both clusterings with
generic augmentation positives (v4) is worst.

An extended sweep additionally ablates the median-vs-mean choice of Eq. 5
and the loss weights of Eq. 9.  Switches are ``repro.core.config.PardonConfig``
fields (README "Architecture map", ``repro.core`` row); weights are
objective overrides on the run's setting — γ_T is the ``triplet_style``
term and γ_reg the ``pair_l2`` term, as ``--objective`` would set them.
"""

from __future__ import annotations

from common import bench_rounds, emit, samples_per_class

from repro.core import PardonConfig, PardonStrategy
from repro.data import synthetic_pacs
from repro.eval import ExperimentSetting, run_split_experiment
from repro.utils.tables import format_percent, format_table

VARIANTS = [
    ("PARDON-v1", PardonConfig.v1, "no local clustering"),
    ("PARDON-v2", PardonConfig.v2, "no global clustering"),
    ("PARDON-v3", PardonConfig.v3, "no contrastive learning"),
    ("PARDON-v4", PardonConfig.v4, "no clustering + augmentation positives"),
    ("PARDON-v5", PardonConfig.v5, "full method"),
]


def _setting(seed=0, objective=None) -> ExperimentSetting:
    return ExperimentSetting(
        objective=objective,
        num_clients=20,
        clients_per_round=0.2,
        heterogeneity=0.1,
        num_rounds=bench_rounds(25),
        eval_every=bench_rounds(25),
        seed=seed,
    )


def _run_variants(suite) -> str:
    split = {"train": [2, 3], "val": [1], "test": [0]}  # train cartoon+sketch
    rows = []
    for name, config_factory, description in VARIANTS:
        outcome = run_split_experiment(
            suite, split, PardonStrategy(config_factory()), _setting()
        )
        rows.append(
            [
                name,
                description,
                format_percent(outcome.val_accuracy),
                format_percent(outcome.test_accuracy),
            ]
        )
    return format_table(
        ["Variant", "Components", "Validation Acc", "Test Acc"],
        rows,
        title="Table V — PARDON component ablation (synthetic PACS)",
    )


def _run_extended(suite) -> str:
    """Design-choice ablations beyond the paper's grid: ``PardonConfig``
    switches, or objective overrides of the Eq. 9 weights (README
    "Architecture map", ``repro.core`` row)."""
    split = {"train": [2, 3], "val": [1], "test": [0]}
    cases = [
        ("median (Eq. 5, default)", PardonConfig(), None),
        ("mean instead of median", PardonConfig(global_clustering=False), None),
        ("triplet_style=0 (γ_T=0)", PardonConfig(), "triplet_style=0"),
        ("triplet_style=3 (γ_T=3)", PardonConfig(), "triplet_style=3"),
        ("pair_l2=0 (γ_reg=0)", PardonConfig(), "pair_l2=0"),
        ("strict Eq.9 CE (original half only)",
         PardonConfig(ce_on_transferred=False), None),
        ("hinged triplet", PardonConfig(triplet_hinge=True), None),
    ]
    rows = []
    for name, config, objective in cases:
        outcome = run_split_experiment(
            suite, split, PardonStrategy(config), _setting(objective=objective)
        )
        rows.append(
            [name, format_percent(outcome.val_accuracy),
             format_percent(outcome.test_accuracy)]
        )
    return format_table(
        ["Design choice", "Validation Acc", "Test Acc"],
        rows,
        title="Table V (extended) — design-choice ablations",
    )


def test_table5_ablation(benchmark):
    suite = synthetic_pacs(seed=0, samples_per_class=samples_per_class(40))
    table = benchmark.pedantic(lambda: _run_variants(suite), rounds=1, iterations=1)
    emit("table5_ablation", table)


def test_table5_extended_ablation(benchmark):
    suite = synthetic_pacs(seed=0, samples_per_class=samples_per_class(40))
    table = benchmark.pedantic(lambda: _run_extended(suite), rounds=1, iterations=1)
    emit("table5_ablation_extended", table)
