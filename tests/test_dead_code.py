"""Every module-level function and constant, and every method and property of a
class, of the package is read in the package or exported."""

import ast
import pathlib

import mrplab

SRC = pathlib.Path(mrplab.__file__).parent

# functions and methods kept with neither a caller in the package nor an export, and why
ALLOWED = {
    "ensemble_csv_text": "the bench tracer spans it as the CSV renderer",
    "BoxQuery.permuted": "criterion 4 of test_acceptance.py permutes boxes with it",
    "VerificationReport.to_json": "the report pins compare its text",
    "UniformStream.uniform": "the rng tests draw scalars with it",
    "UniformStream.uniforms": "the rng tests draw arrays with it",
}


def _walk_package():
    """(module-level functions, module-level constants, methods and properties,
    names read) of the package; each definition as (module, name), a method's
    name as Class.method."""
    functions, constants, methods, used = [], [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                methods += [(path.stem, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("__")]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [(path.stem, t.id) for t in targets
                              if isinstance(t, ast.Name) and not t.id.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return functions, constants, methods, used


def _dead(defined, used):
    return [
        f"{module}.{name}"
        for module, name in defined
        if name.rpartition(".")[2] not in used and name not in mrplab.__all__ and name not in ALLOWED
    ]


def test_every_module_function_is_called_or_exported():
    functions, _, _, used = _walk_package()
    assert _dead(functions, used) == []


def test_every_module_constant_is_read_or_exported():
    _, constants, _, used = _walk_package()
    assert constants  # the walk sees the constants it checks
    assert _dead(constants, used) == []


def test_every_method_and_property_is_read():
    _, _, methods, used = _walk_package()
    assert ("kernels", "KernelSpec.param_dim") in methods  # properties are walked too
    assert _dead(methods, used) == []
