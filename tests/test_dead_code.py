"""Every module-level function of the package has a caller in the package or is exported."""

import ast
import pathlib

import mrplab

SRC = pathlib.Path(mrplab.__file__).parent

# functions kept with neither a caller in the package nor an export, and why
ALLOWED = {
    "ensemble_csv_text": "the bench tracer spans it as the CSV renderer",
}


def test_every_module_function_is_called_or_exported():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in mrplab.__all__ and name not in ALLOWED
    ]
    assert dead == []
