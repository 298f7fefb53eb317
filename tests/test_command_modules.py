"""Each command loads only the dslab modules it runs, before its clock starts.

A fresh interpreter runs the command line once per command and reports the
dslab modules loaded when the command function is entered and when main
returns.  A new top-level import in cli.py, a package re-export or an
import that a command makes for itself would add a module to some command's
set, or load it under the manifest's wall_clock_seconds; the failure names
the module and the command.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# what every command loads: the package, the command line, its seed hash
# and the grid
CORE = {"dslab", "dslab.cli", "dslab._rng", "dslab.spectral_core"}
SOLVER = {"dslab.ds_solver", "dslab.smoothing_diagnostics"}
COMMAND_MODULES = {
    "simulate": SOLVER,
    "smoothing": SOLVER,
    "attractor": SOLVER | {"dslab.attractor_lab"},
    "knapp": {"dslab.xsb_analysis", "dslab.xsb_analysis.knapp", "dslab.xsb_analysis.spacetime"},
    "blocks": {"dslab.xsb_analysis", "dslab.xsb_analysis.blocks", "dslab.xsb_analysis.multipliers"},
}

# small runs of each command: a forced simulate (make_forcing), a refinement
# study, both attractor experiments, a Knapp ladder and one block
CONFIGS = {
    "simulate": (
        "[simulate]\nmodes = 16\namplitude = 0.1\ndt = 0.01\nt_end = 0.05\n"
        "delta = 0.1\nforcing_amplitude = 0.05\n"
    ),
    "smoothing": (
        "[smoothing]\nmodes = 16, 32, 64\ns = 1.4\na = 0.3\namplitude = 0.01\n"
        "t_probe = 0.1\ndt = 0.05\n"
    ),
    "attractor": (
        "[attractor]\nmodes = 16\nmember_count = 2\ndelta = 0.4\nforcing_amplitude = 0.1\n"
        "horizon = 0.2\ndt = 0.01\nsample_every = 10\nprobes = 0.1, 0.2\n"
    ),
    "knapp": "[knapp]\nn_values = 4, 8, 16, 32\ntime_samples = 16\n",
    "blocks": "[blocks]\ncases = plus_plus_plus\nper_case = 1\nrestarts = 1\niters = 5\n",
}
RUNS = [
    ("simulate", ""),
    ("smoothing", ""),
    ("attractor", "experiment = absorbing\n"),
    ("attractor", "experiment = compactness\n"),
    ("knapp", ""),
    ("blocks", ""),
]

LOADED = "sorted(m for m in sys.modules if m == 'dslab' or m.startswith('dslab.'))"

# runs main on argv and prints its exit code with the dslab modules loaded
# when cmd_<command> is first entered and when main returns
RUN_SCRIPT = f"""
import json, sys
from dslab.cli import main

command, at_entry = sys.argv[1], []

def profile(frame, event, arg):
    if event == "call" and not at_entry and frame.f_code.co_name == "cmd_" + command:
        at_entry.append({LOADED})

sys.setprofile(profile)
code = main(sys.argv[1:])
sys.setprofile(None)
print(json.dumps({{"code": code, "entry": at_entry[0] if at_entry else None, "exit": {LOADED}}}))
"""


def _python(*args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def module_faults(command: str, at_entry: set, at_exit: set) -> list:
    """Every way the modules a command loaded differ from CORE plus its
    COMMAND_MODULES, and every dslab module first imported after the
    command function was entered; each names the module and the command."""
    expected = CORE | COMMAND_MODULES[command]
    faults = [f"'{command}' loads {m}, which it does not run" for m in sorted(at_exit - expected)]
    faults += [f"'{command}' does not load {m}" for m in sorted(expected - at_exit)]
    faults += [
        f"'{command}' first imports {m} after cmd_{command} is entered, under its clock"
        for m in sorted(at_exit - at_entry)
    ]
    return faults


def test_importing_the_command_line_loads_only_what_every_command_uses():
    loaded = json.loads(_python("-c", f"import json, sys, dslab.cli; print(json.dumps({LOADED}))"))
    assert set(loaded) == CORE


@pytest.mark.parametrize(
    "command,extra", RUNS, ids=[c + ("-" + e.split("= ")[1].strip() if e else "") for c, e in RUNS]
)
def test_command_loads_only_its_modules_before_its_clock(command, extra, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIGS[command] + extra, encoding="utf-8")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    report = json.loads(_python("-c", RUN_SCRIPT, *argv))
    assert report["code"] == 0
    assert report["entry"] is not None, f"cmd_{command} was never entered"
    faults = module_faults(command, set(report["entry"]), set(report["exit"]))
    assert not faults, "\n".join(faults)


def test_the_module_check_names_module_and_command():
    entry = CORE | {"dslab.ds_solver"}
    exit_ = entry | {"dslab.smoothing_diagnostics", "dslab.attractor_lab"}
    assert module_faults("simulate", entry, exit_) == [
        "'simulate' loads dslab.attractor_lab, which it does not run",
        "'simulate' first imports dslab.attractor_lab after cmd_simulate is entered, under its clock",
        "'simulate' first imports dslab.smoothing_diagnostics after cmd_simulate is entered, under its clock",
    ]
    assert module_faults("knapp", CORE, CORE) == [
        "'knapp' does not load dslab.xsb_analysis",
        "'knapp' does not load dslab.xsb_analysis.knapp",
        "'knapp' does not load dslab.xsb_analysis.spacetime",
    ]
