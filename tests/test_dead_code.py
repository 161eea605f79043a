"""Every module-level function and constant of the package is read in the package or exported."""

import ast
import pathlib

import mrplab

SRC = pathlib.Path(mrplab.__file__).parent

# functions kept with neither a caller in the package nor an export, and why
ALLOWED = {
    "ensemble_csv_text": "the bench tracer spans it as the CSV renderer",
}


def _walk_package():
    """(module-level functions, module-level constants, names read) of the package;
    each definition as (module, name)."""
    functions, constants, used = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [(path.stem, t.id) for t in targets
                              if isinstance(t, ast.Name) and not t.id.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return functions, constants, used


def _dead(defined, used):
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in mrplab.__all__ and name not in ALLOWED
    ]


def test_every_module_function_is_called_or_exported():
    functions, _, used = _walk_package()
    assert _dead(functions, used) == []


def test_every_module_constant_is_read_or_exported():
    _, constants, used = _walk_package()
    assert constants  # the walk sees the constants it checks
    assert _dead(constants, used) == []
