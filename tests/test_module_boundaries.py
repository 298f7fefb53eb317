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


# Stored runs: evolve keeps every sampled state, and field_at and .fields
# read them.  Every instrument streams instead; the two readers left stay
# only because benchmarks/layers.py times them, and go when it stops.
STORED_RUN_NAMES = {"evolve", "field_at", "fields"}
STORED_RUN_READERS = {
    "dslab.smoothing_diagnostics": {"nonlinear_part"},
    "dslab.attractor_lab": {"run_ensemble"},
}


def _module_name(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def stored_run_reads(source: str, module: str) -> list:
    """(line, enclosing function, name) of every use of evolve, field_at or
    .fields in the source of module outside the functions allowed to read a
    stored run; ds_solver, which defines them, may use them anywhere."""
    if module == "dslab.ds_solver":
        return []
    allowed = STORED_RUN_READERS.get(module, set())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else function
        if isinstance(node, ast.Name) and node.id == "evolve":
            name = node.id
        elif isinstance(node, ast.Attribute) and node.attr in STORED_RUN_NAMES:
            name = node.attr
        else:
            name = None
        if name is not None and function not in allowed:
            found.append((node.lineno, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_the_kept_readers_use_a_stored_run(path):
    assert stored_run_reads(path.read_text(encoding="utf-8"), _module_name(path)) == []


def test_every_kept_reader_still_exists():
    # a reader that is deleted is also struck from STORED_RUN_READERS
    for module, functions in STORED_RUN_READERS.items():
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert functions <= defined


def test_the_stored_run_check_sees_calls_and_attributes():
    source = (
        "from .ds_solver import evolve\n"
        "def run(u0, cfg):\n"
        "    traj = evolve(u0, cfg)\n"
        "    return traj.fields[0], traj.field_at(0.1)\n"
        "step = ds_solver.evolve\n"
    )
    assert stored_run_reads(source, "dslab.smoothing_diagnostics") == [
        (3, "run", "evolve"), (4, "run", "fields"), (4, "run", "field_at"), (5, None, "evolve"),
    ]
    assert stored_run_reads(source.replace("def run", "def nonlinear_part"), "dslab.smoothing_diagnostics") == [
        (5, None, "evolve"),
    ]
