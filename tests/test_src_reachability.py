"""Everything ``src/repro`` exports is something a run can reach.

Every name in the ``__all__`` of every non-``__init__`` module must be
*used* somewhere under ``src/repro``, ``benchmarks`` or ``examples`` (its
own module included): read as a name, accessed as an attribute, or imported
by a file that is more than a re-export.  Tests are not callers — a symbol
only they reach is dead weight in ``src/`` — so what is kept for them, or
is waiting for a caller, is listed in ``ALLOWED`` with its reason, and an
entry that has since acquired a use must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_TREES = ("src/repro", "benchmarks", "examples")
#: Files that only pass names along; importing a name here is not a use.
REEXPORTS = {"src/repro/eval/metrics.py"}

ITEM_3 = "waits for ROADMAP item 3 (a caller, or deletion)"
FIXTURE = "shared test fixture"

#: ``module: {name: reason}`` — exported names with no caller, on purpose.
ALLOWED = {
    "src/repro/eval/statistics.py": {
        "sweep_seeds": ITEM_3, "paired_win_rate": ITEM_3, "mean_std": ITEM_3,
    },
    "src/repro/privacy/dp.py": {"DPStyleStrategy": ITEM_3},
    "src/repro/nn/models.py": {"build_mlp_model": FIXTURE},
    "src/repro/nn/serialize.py": {
        "state_allclose": FIXTURE,
        # Their one caller was the deleted masking secure aggregator.
        "state_add": ITEM_3, "zeros_like_state": ITEM_3,
    },
    "src/repro/nn/ensemble.py": {"load_state_stack": FIXTURE},
    "src/repro/nn/layers.py": {
        "Dropout": FIXTURE + ": the one module without an ensemble "
        "converter, i.e. the live 'unsupported model -> loop' path",
    },
    "src/repro/fl/transport.py": {"transport_specs": FIXTURE},
}


def _is_reexport(relative: str) -> bool:
    return relative.endswith("__init__.py") or relative in REEXPORTS


def _scan():
    """(names used anywhere in the caller trees, {module: its __all__})."""
    used: set[str] = set()
    exported: dict[str, list[str]] = {}
    for tree_root in CALLER_TREES:
        for path in sorted((ROOT / tree_root).rglob("*.py")):
            relative = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not _is_reexport(relative):
                    used.update(alias.name for alias in node.names)
            if tree_root == "src/repro" and path.name != "__init__.py":
                for node in tree.body:
                    if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets
                    ):
                        exported[relative] = [
                            element.value for element in node.value.elts
                        ]
    return used, exported


def test_every_export_has_a_caller_or_a_reason():
    used, exported = _scan()
    unreached = {
        (module, name)
        for module, names in exported.items()
        for name in names
        if name not in used
    }
    allowed = {
        (module, name) for module, names in ALLOWED.items() for name in names
    }
    assert all(
        reason.strip() for names in ALLOWED.values() for reason in names.values()
    ), "every allowlist entry states its reason"
    assert len(allowed) <= 20, "the allowlist is a short list of exceptions"
    assert not unreached - allowed, (
        "exported by src/repro but reached by no entry point, benchmark or "
        f"example — delete it, or allowlist it with a reason: "
        f"{sorted(unreached - allowed)}"
    )
    assert not allowed - unreached, (
        "allowlisted but no longer unreached (gone, or it has a caller now) "
        f"— drop the entry: {sorted(allowed - unreached)}"
    )
