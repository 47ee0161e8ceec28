"""The test-owned oracles in reference.py stay independent of the code they check, and single;
the integer layer of finvariant/files.py stays free of the rest of finvariant, and importing
finvariant/exactnum.py imports no other finvariant module."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")
FILES = Path(__file__).resolve().parents[1] / "src" / "finvariant" / "files.py"
EXACTNUM = FILES.with_name("exactnum.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _top_level_functions(path: Path) -> set[str]:
    """The names of the functions a module defines at top level, leading underscores stripped."""
    return {node.name.lstrip("_") for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _finvariant_imports(node: ast.AST) -> dict[str, str]:
    """local name -> 'module.name' of each name imported from finvariant inside node
    ('finvariant.x' or relative '.x' as 'x'); a dynamic import fails the test."""
    found = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            found.update((alias.asname or alias.name, alias.name) for alias in sub.names
                         if alias.name.split(".")[0] == "finvariant")
        elif isinstance(sub, ast.ImportFrom):
            if sub.level or (sub.module or "").split(".")[0] == "finvariant":
                module = (sub.module or "").removeprefix("finvariant").lstrip(".")
                found.update((alias.asname or alias.name, f"{module}.{alias.name}".lstrip("."))
                             for alias in sub.names)
        elif isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in ("__import__", "import_module"), \
                f"line {sub.lineno}: dynamic import"
    return found


def _reached(tree: ast.Module, roots: list[str]) -> set[str]:
    """The module-level names that the top-level definitions `roots` use,
    directly or through other top-level definitions."""
    defs: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    assert set(roots) <= set(defs), f"missing {sorted(set(roots) - set(defs))}"
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in defs:
                assert not _finvariant_imports(defs[name]), f"{name} imports from finvariant"
                todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return seen


def test_reference_imports_nothing_from_finvariant():
    assert _finvariant_imports(_tree(REFERENCE)) == {}


def test_files_integer_layer_reaches_only_euler_phi():
    # the reader that turns a file into integer blocks and the row writer run
    # without qseries, divcong or fassembly: a certificate can be replayed
    # from a file with nothing of finvariant above the bottom module, exactnum
    tree = _tree(FILES)
    imports = _finvariant_imports(tree)

    def reached(roots):
        return {imports[name] for name in _reached(tree, roots) if name in imports}

    assert reached(["read_blocks", "write_block", "read_xi_rows"]) == {"exactnum.euler_phi",
                                                                       "exactnum.DataError"}
    # the check sees a wrapper's reach
    assert "qseries.QSeries" in reached(["read_series"])


def test_exactnum_imports_no_finvariant_module_at_module_level():
    # qseries builds on exactnum, so CycNum's product reaches qseries' row
    # kernel by an import inside the call; none may run at import time
    tree = _tree(EXACTNUM)
    loaded = [node for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    loaded += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if not isinstance(node, ast.FunctionDef)]
    assert loaded and not any(_finvariant_imports(node) for node in loaded)
    # the check sees the import in the call
    assert "qseries._row_product" in _finvariant_imports(tree).values()


def test_no_test_module_redefines_a_reference_function():
    # an oracle is written once: a test module imports it from reference.py
    oracles = _top_level_functions(REFERENCE)
    for path in sorted(REFERENCE.parent.glob("*.py")):
        if path != REFERENCE:
            clash = _top_level_functions(path) & oracles
            assert not clash, f"{path.name} defines {sorted(clash)}, which reference.py has"
