"""The library surface that the benchmark harness uses, checked without running it.

The unit suites never run benchmarks/layers.py, so deleting a function it
calls, or a keyword it passes, would only show when the benchmark runs.
These tests read layers.py and workloads.py with ast: every name taken from
an imported dslab module must exist, and every call of such a name must
pass only keywords its signature accepts.  The workload configs, and the
README's ini examples, must also pass the command line's config checks, and
every workload must reproduce its committed reference outputs.
"""
import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import re
import sys

import pytest

import dslab.cli
from dslab.cli import main

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
HARNESS_FILES = ["layers.py", "workloads.py"]


def _resolve(module: str, name: str):
    """from module import name: a submodule if there is one, else the attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def dslab_imports(tree: ast.AST) -> dict:
    """{local name: object} for everything a file imports from dslab."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dslab":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["dslab"] = importlib.import_module("dslab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dslab":
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
    return bound


def library_references(path: pathlib.Path) -> tuple[set, list]:
    """Names a harness file takes from dslab, and (name, callee, keywords) per call.

    A name is module.attr for an attribute of an imported dslab module, or the
    imported name itself.  A missing attribute fails here, naming the file
    and line.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = dslab_imports(tree)
    names = {name for name, obj in bound.items() if not inspect.ismodule(obj)}
    calls = []

    def lookup(node):
        if isinstance(node, ast.Name) and node.id in bound:
            return node.id, bound[node.id]
        if isinstance(node, ast.Attribute):
            owner = lookup(node.value)
            if owner and inspect.ismodule(owner[1]):
                module = owner[1]
                label = f"{module.__name__}.{node.attr}"
                assert hasattr(module, node.attr), f"{path.name}:{node.lineno} uses missing {label}"
                return label, getattr(module, node.attr)
        return None

    for node in ast.walk(tree):
        found = lookup(node) if isinstance(node, ast.Attribute) else None
        if found:
            names.add(found[0])
        if isinstance(node, ast.Call):
            found = lookup(node.func)
            if found:
                keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
                calls.append((found[0], found[1], keywords, node.lineno))
    return names, calls


@pytest.mark.parametrize("name", HARNESS_FILES)
def test_harness_uses_only_existing_names_and_keywords(name):
    _, calls = library_references(BENCHMARKS / name)
    bad = []
    for label, callee, keywords, line in calls:
        if not callable(callee):
            bad.append(f"{name}:{line} calls {label}, which is not callable")
            continue
        params = inspect.signature(callee).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        bad.extend(
            f"{name}:{line} passes {kw}= to {label}" for kw in keywords if kw not in params
        )
    assert not bad, "\n".join(bad)


def test_the_reader_sees_module_attributes_and_keywords():
    names, calls = library_references(BENCHMARKS / "layers.py")
    assert "dslab.smoothing_diagnostics.nonlinear_part" in names
    assert "dslab.xsb_analysis.spacetime.xsb_norm" in names
    keywords = {label: kws for label, _, kws, _ in calls}
    assert "sample_every" in keywords["dslab.ds_solver.SolverConfig"]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class _ConfigAccepted(Exception):
    pass


WORKLOADS = _workloads()
# the library calls that start each command's work, all after its config
# checks, named where they are defined
_WORK = [
    "dslab.ds_solver.sample_stream",
    "dslab.smoothing_diagnostics.refinement_study",
    "dslab.xsb_analysis.knapp.knapp_grid",
    "dslab.xsb_analysis.knapp.knapp_sweep",
    "dslab.xsb_analysis.blocks.sample_block_specs",
    "dslab.xsb_analysis.blocks.check_block_bounds",
    "dslab.attractor_lab.absorbing_experiment",
    "dslab.attractor_lab.compactness_probe",
]


def _passes_config_checks(command: str, text: str, tmp_path, monkeypatch, *flags) -> None:
    """Run main on the config text with every _WORK call replaced, and
    require that it gets past the config checks to the first of them."""

    def accepted(*args, **kwargs):
        raise _ConfigAccepted

    for target in _WORK:
        monkeypatch.setattr(target, accepted)
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), *flags]
    with pytest.raises(_ConfigAccepted):
        main(argv)


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_pass_the_config_checks(workload, smoke, tmp_path, monkeypatch):
    wl = WORKLOADS.WORKLOADS[workload]
    text = WORKLOADS.config_text(wl.smoke_config if smoke else wl.config)
    _passes_config_checks(
        wl.command, text, tmp_path, monkeypatch, "--seed", "0", "--threads", str(wl.threads)
    )


def _readme_examples() -> list:
    """(command, text) of every ```ini block in README.md; the command is the
    block's one section other than [run]."""
    text = (BENCHMARKS.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```ini\n(.*?)```", text, flags=re.S):
        (command,) = set(re.findall(r"^\[(\w+)\]", block, flags=re.M)) - {"run"}
        examples.append((command, block))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_an_example_per_command():
    assert sorted(command for command, _ in README_EXAMPLES) == sorted(dslab.cli._COMMANDS)


@pytest.mark.parametrize(
    "command,text", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES]
)
def test_readme_configs_pass_the_config_checks(command, text, tmp_path, monkeypatch):
    _passes_config_checks(command, text, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    # each workload takes about a second, so drift in the solver's, the
    # ensemble's, the block engine's or the Knapp engine's outputs fails
    # here and not only in the benchmark
    wl = WORKLOADS.WORKLOADS[name]
    seed = wl.dslab_seed(WORKLOADS.DEFAULT_SEED)
    with open(WORKLOADS.reference_path(wl), encoding="utf-8") as fh:
        # a seed-free reference (null) applies to any seed; any other
        # reference seed must match, else check_outputs skips the comparison
        assert json.load(fh)["seed"] == (None if wl.seed_free else seed)
    path = tmp_path / f"{name}.ini"
    path.write_text(WORKLOADS.config_text(wl.config), encoding="utf-8")
    out = tmp_path / "out"
    argv = [wl.command, "--config", str(path), "--out", str(out)]
    assert main([*argv, "--seed", str(seed), "--threads", str(wl.threads)]) == 0
    assert WORKLOADS.check_outputs(wl, False, seed, str(out)) == []
