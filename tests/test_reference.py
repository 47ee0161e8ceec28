"""The test-owned oracles in reference.py stay independent of the code they check."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")


def test_reference_imports_nothing_from_finvariant():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"), str(REFERENCE))
    for node in ast.walk(tree):
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
