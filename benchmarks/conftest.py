"""Benchmark-session plumbing: dump result tables past pytest's capture."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

RESULTS_DIR = Path(__file__).parent / "results"
_BENCH_COLLECTED = pytest.StashKey[bool]()


def pytest_collection_finish(session):
    session.config.stash[_BENCH_COLLECTED] = any(
        item.path.name.startswith("bench_") for item in session.items
    )


def pytest_terminal_summary(terminalreporter, config):
    """Re-print every result table on the live terminal — only when the
    session collected a ``bench_*.py`` module, so a tier-1 run does not end
    with whatever stale tables the checkout holds.

    ``common.emit`` overwrites each table file by name, so partial runs
    (e.g. a single bench module) refresh only their own tables and leave
    the rest of ``benchmarks/results/`` intact.
    """
    if not config.stash.get(_BENCH_COLLECTED, False) or not RESULTS_DIR.exists():
        return
    files = sorted(RESULTS_DIR.glob("*.txt"))
    if not files:
        return
    terminalreporter.section("reproduction tables (also in benchmarks/results/)")
    for path in files:
        terminalreporter.write(path.read_text())
