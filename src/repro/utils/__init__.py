"""Shared utilities: seeded RNG trees, logging, and table rendering."""

from repro.utils.rng import SeedTree
from repro.utils.logging import get_logger
from repro.utils.tables import format_table

__all__ = ["SeedTree", "get_logger", "format_table"]
