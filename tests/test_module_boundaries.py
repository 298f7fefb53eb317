"""Module boundaries inside the dslab package, checked with ast.

A name that starts with an underscore belongs to the module that defines it:
no other dslab module imports it, or reads it as an attribute of something
it imported from dslab.  Machinery two modules share gets a public name in
the module that owns it.

Every top-level definition in the package is run by the dslab command line
or read by the benchmark harness, or is named, with its reason, in
UNREACHED_ALLOWED; every defaulted parameter of a reached function is passed
by some call, or is named in DEFAULT_ALLOWED, so no option is one that
nothing sets.  The library carries no assert statement, since python -O
strips them, and runs on one thread: it imports no thread or process pool.
"""
import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
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


# The roots of the reachability scan: every name the command line and the
# benchmark harness use is run.
ROOTS = [SRC / "dslab" / "cli.py"] + [
    REPO / "benchmarks" / f"{name}.py" for name in ("layers", "workloads", "run")
]

# Top-level definitions that neither the command line nor the benchmark
# harness reaches, each with the reason it stays.
UNREACHED_ALLOWED = {
    "strang_step": "the one-step kernel handle the reversibility tests drive",
    "nonlinear_potential": "the potential map the K(|u|^2) tests drive",
    "lebesgue_norm": "a reference the attractor and spectral tests compare against",
    "trilinear_ratio": "the dense Knapp reference the separable engine is checked against",
    "norm_2Z": "acceptance criterion 8, the TT* identity",
    "ttstar_pair": "acceptance criterion 8, the TT* identity",
}


def used_names(tree: ast.AST) -> set:
    """Identifiers tree reads as a Name or an Attribute; a word in a string,
    a docstring or an import statement is not a use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def top_level_definitions(paths) -> dict:
    """{name: (path, node)} of every function, class and assigned name at the
    top level of paths, __all__ apart.  Uses are matched by identifier, so a
    name defined twice is refused: the scan could not tell the two apart."""
    found = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name == "__all__":
                    continue
                if name in found:
                    raise ValueError(f"{name} is defined in both {found[name][0]} and {path}")
                found[name] = (path, node)
    return found


def unreached(definitions: dict, roots) -> set:
    """Names in definitions that no root file uses, directly or through the
    body of a definition that is used."""
    pending = set().union(*(used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in roots))
    reached = set()
    while pending:
        name = pending.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            pending |= used_names(definitions[name][1])
    return set(definitions) - reached


def allow_list_faults(definitions: dict, dead: set, allowed: dict) -> list:
    """Unreached definitions the allow-list does not name, and allow-list
    entries that are reached or no longer defined."""
    faults = [
        f"{name} ({definitions[name][0].name}) is unreached" for name in sorted(dead - set(allowed))
    ]
    for name in sorted(allowed):
        if name not in definitions:
            faults.append(f"allowed {name} is no longer defined")
        elif name not in dead:
            faults.append(f"allowed {name} is reached")
    return faults


def test_every_definition_is_reached_or_allowed():
    assert all(UNREACHED_ALLOWED.values())
    definitions = top_level_definitions(MODULES)
    assert allow_list_faults(definitions, unreached(definitions, ROOTS), UNREACHED_ALLOWED) == []


def test_the_reachability_check_sees_uses_and_stale_entries(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "LIMIT = 3\n"
        "def used():\n"
        "    return helper() + LIMIT\n"
        "def helper():\n"
        "    return 1\n"
        "def named_only_in_words():\n"
        "    pass\n"
        "class Kept:\n"
        "    pass\n"
        "__all__ = ['named_only_in_words']\n",
        encoding="utf-8",
    )
    root = tmp_path / "root.py"
    root.write_text(
        "from lib import used, named_only_in_words\n"
        "'named_only_in_words is cited here, in a string'\n"
        "x = used()\n",
        encoding="utf-8",
    )
    definitions = top_level_definitions([lib])
    dead = unreached(definitions, [root])
    assert dead == {"named_only_in_words", "Kept"}
    assert allow_list_faults(definitions, dead, {"Kept": "why"}) == [
        "named_only_in_words (lib.py) is unreached",
    ]
    stale = dict.fromkeys(["Kept", "named_only_in_words", "helper", "gone"], "why")
    assert allow_list_faults(definitions, dead, stale) == [
        "allowed gone is no longer defined", "allowed helper is reached",
    ]


# Defaulted parameters that no call in the command line, the benchmark
# harness or a reached definition passes, each with the reason it stays.
DEFAULT_ALLOWED = {
    "_warning_line.line": "warnings.formatwarning's signature: the warnings module passes it",
}


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def passed_parameters(trees) -> dict:
    """{callee name: (keywords, positional count, star, double star)} merged
    over every call in trees: the keywords any call passes, the most
    positional arguments any call passes, and whether any call passes *args
    or **kwargs."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            keywords, positional, star, double = found.get(name, (set(), 0, False, False))
            found[name] = (
                keywords | {k.arg for k in node.keywords if k.arg is not None},
                max(positional, sum(not isinstance(a, ast.Starred) for a in node.args)),
                star or any(isinstance(a, ast.Starred) for a in node.args),
                double or any(k.arg is None for k in node.keywords),
            )
    return found


def unpassed_defaults(definitions: dict, reached: set, roots) -> set:
    """'function.parameter' of every defaulted parameter of a reached
    top-level function that no call in roots or in a reached definition
    passes, by keyword, by position or through * or **."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in roots]
    passed = passed_parameters(trees + [definitions[name][1] for name in reached])
    found = set()
    for name in reached:
        node = definitions[name][1]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        keywords, positional, star, double = passed.get(name, (set(), 0, False, False))
        args = node.args
        ordered = args.posonlyargs + args.args
        defaulted = [(i, a.arg) for i, a in enumerate(ordered) if i >= len(ordered) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for index, param in defaulted:
            by_position = index is not None and (star or positional > index)
            if not (double or by_position or param in keywords):
                found.add(f"{name}.{param}")
    return found


def test_every_default_is_passed_or_allowed():
    assert all(DEFAULT_ALLOWED.values())
    definitions = top_level_definitions(MODULES)
    reached = set(definitions) - unreached(definitions, ROOTS)
    found = unpassed_defaults(definitions, reached, ROOTS)
    assert sorted(found - set(DEFAULT_ALLOWED)) == []
    assert sorted(set(DEFAULT_ALLOWED) - found) == []  # no stale entry


def test_the_default_check_sees_every_way_to_pass(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def by_keyword(x, y=1):\n"
        "    return x\n"
        "def by_position(x, y=1, z=2):\n"
        "    return x\n"
        "def by_star(x, y=1, *, z=2):\n"
        "    return x\n"
        "def by_double(x, y=1, *, z=2):\n"
        "    return x\n"
        "def never(x, y=1, *, z=2):\n"
        "    return by_keyword(x, y=x) + by_position(x, 0) + by_double(**{'x': x})\n"
        "def unreached(x, y=1):\n"
        "    return x\n",
        encoding="utf-8",
    )
    root = tmp_path / "root.py"
    root.write_text("never(1)\nby_star(*[1, 2], z=3)\n'by_keyword(1, z=2) is only words'\n", encoding="utf-8")
    definitions = top_level_definitions([lib])
    reached = set(definitions) - unreached(definitions, [root])
    assert reached == {"by_keyword", "by_position", "by_star", "by_double", "never"}
    assert unpassed_defaults(definitions, reached, [root]) == {
        "by_position.z", "never.y", "never.z",
    }


def assert_lines(source: str) -> list:
    """Line of every assert statement in source, in order."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_assert_in_the_library(path):
    # python -O strips asserts, so no library invariant may rest on one
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_the_assert_check_sees_asserts():
    assert assert_lines("def f(x):\n    assert x > 0\n    return x\nassert f(1)\n") == [2, 4]


# Every command runs on one thread: both pools measured slower than serial,
# or at best level with it, so none is imported again.
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def concurrency_imports(source: str) -> list:
    """(line, module) of every import of a thread or process pool module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, n) for n in names if n.split(".")[0] in CONCURRENCY_MODULES)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_thread_or_process_pool_in_the_library(path):
    assert concurrency_imports(path.read_text(encoding="utf-8")) == []


def test_the_concurrency_check_sees_every_import_form():
    source = (
        "import numpy as np\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures\n"
        "import os, threading\n"
        "from multiprocessing import Pool\n"
        "from . import threads\n"
    )
    assert concurrency_imports(source) == [
        (2, "concurrent.futures"), (3, "concurrent.futures"), (4, "threading"), (5, "multiprocessing"),
    ]
