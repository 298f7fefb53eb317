"""Module boundaries inside the dslab package, checked with ast.

A name that starts with an underscore belongs to the module that defines it:
no other dslab module imports it, or reads it as an attribute of something
it imported from dslab.  Machinery two modules share gets a public name in
the module that owns it.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "dslab").rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(path: pathlib.Path) -> list:
    """(line, name) of every underscore name path takes from another dslab module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "dslab":
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dslab":
                    bound.add(alias.asname or "dslab")
                    found.extend((node.lineno, part) for part in alias.name.split(".") if _private(part))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_takes_another_modules_private_names(path):
    assert foreign_private_names(path) == []


def test_the_check_sees_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import spectral_core, __version__\n"
        "from .ds_solver import _DensityKernel, evolve\n"
        "from ._rng import hash_u64\n"
        "import numpy as np\n"
        "x = spectral_core._private + np._internal + evolve.__doc__\n",
        encoding="utf-8",
    )
    assert foreign_private_names(probe) == [(2, "_DensityKernel"), (5, "spectral_core._private")]
