"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a scale the
numpy substrate can run in minutes (one ``bench_<table|fig>*.py`` per
experiment — README "Architecture map").
Results are printed as ASCII tables AND written to ``benchmarks/results/``
(gitignored); when a session collected a bench module, the conftest dumps
them into the terminal at session end so they survive pytest's output
capture.  These are the *paper* benches; systems performance — rounds per
second, wire bytes, the layer profile — is measured only by
``benchmarks/perf`` (``BENCHMARK.json``).

Environment knobs:

* ``REPRO_BENCH_ROUNDS`` — override the communication-round count;
* ``REPRO_BENCH_SCALE`` — ``"fast"`` shrinks datasets/clients for smoke
  runs, ``"full"`` uses the default (paper-shaped) scale.
"""

from __future__ import annotations

import logging
import os
import warnings
from pathlib import Path
from typing import Callable

from repro.baselines import (
    CCSTStrategy,
    FedDGGAStrategy,
    FedGMAStrategy,
    FedSRStrategy,
    FPLStrategy,
)
from repro.core import PardonStrategy
from repro.fl.strategy import Strategy

logging.disable(logging.INFO)
warnings.filterwarnings("ignore", category=RuntimeWarning)

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's method line-up, in its table order.  "Ours" is PARDON.
METHOD_ORDER = ["FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "Ours"]


def method_factories() -> dict[str, Callable[[], Strategy]]:
    """Fresh-strategy factories for the paper's six compared methods."""
    return {
        "FedSR": FedSRStrategy,
        "FedGMA": FedGMAStrategy,
        "FPL": FPLStrategy,
        "FedDG-GA": FedDGGAStrategy,
        "CCST": CCSTStrategy,
        "Ours": PardonStrategy,
    }


def is_fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "full") == "fast"


def bench_rounds(default: int) -> int:
    """Communication rounds for a bench, honouring the env override."""
    value = os.environ.get("REPRO_BENCH_ROUNDS")
    if value:
        return max(1, int(value))
    if is_fast_mode():
        return max(2, default // 5)
    return default


def samples_per_class(default: int) -> int:
    return max(2, default // 4) if is_fast_mode() else default


def bench_seeds() -> list[int]:
    """Seeds to average over (tables are noisy at this scale)."""
    return [0] if is_fast_mode() else [0, 1]


def emit(name: str, text: str) -> None:
    """Print a result block and persist it for the terminal summary."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(banner)
