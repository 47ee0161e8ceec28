"""The test-owned oracles in reference.py stay independent of the code they check, and single."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _top_level_functions(path: Path) -> set[str]:
    """The names of the functions a module defines at top level, leading underscores stripped."""
    return {node.name.lstrip("_") for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_reference_imports_nothing_from_finvariant():
    for node in ast.walk(_tree(REFERENCE)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            names = [node.module]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in ("__import__", "import_module"), \
                f"line {node.lineno}: dynamic import"
            continue
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "finvariant", f"line {node.lineno}: imports {name}"


def test_no_test_module_redefines_a_reference_function():
    # an oracle is written once: a test module imports it from reference.py
    oracles = _top_level_functions(REFERENCE)
    for path in sorted(REFERENCE.parent.glob("*.py")):
        if path != REFERENCE:
            clash = _top_level_functions(path) & oracles
            assert not clash, f"{path.name} defines {sorted(clash)}, which reference.py has"
