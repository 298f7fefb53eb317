"""Workload definitions and output checks for the dslab benchmark.

Each workload is one ``dslab <command>`` on a config generated here.  Why
each one exists, which layer it loads and which it bypasses on purpose, is
in README.md next to this file.

The checks run on every timed invocation and never get skipped:

* the manifest names the right command and seed, and its step count and
  row counts match what the config implies;
* every CSV cell and every summary/detail number is finite;
* ``blocks``: every support is > 0 and every estimate is <= C* x bound;
* the CSVs of repeated invocations in one run are byte-identical (same
  inputs, so the program must reproduce them exactly);
* when a reference for the invocation's seed is committed under
  ``reference/``, every number agrees with it up to float roundoff.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

# Relative tolerance for the reference comparison: float roundoff only.
# A change that moves outputs by more than this changes program results and
# must say so (and regenerate the references with run.py --write-reference).
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

# The CLI's own default root seed ([run] seed when absent).
DEFAULT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # dslab subcommand
    config: dict  # {section: {key: value}} for the full-size run
    smoke_config: dict  # seconds-long variant used by the smoke test
    threads: int  # --threads passed to dslab (capped at nproc)
    work_unit: str  # what manifest step_count counts
    # dslab root seed used whatever --seed says; None passes --seed through
    fixed_seed: Optional[int] = None
    # outputs do not depend on the seed, so the reference applies to any seed
    seed_free: bool = False

    def dslab_seed(self, seed: int) -> int:
        return self.fixed_seed if self.fixed_seed is not None else seed

    def section(self, smoke: bool) -> dict:
        """The command's own config section, full-size or smoke."""
        (values,) = (self.smoke_config if smoke else self.config).values()
        return values


def config_text(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="simulate",
            command="simulate",
            config={
                "simulate": {
                    "modes": 256,
                    "amplitude": 0.05,
                    "s": 1.0,
                    "dt": 0.01,
                    "t_end": 1.5,
                    "delta": 0.1,
                    "forcing_amplitude": 0.05,
                    "sample_every": 100,
                }
            },
            smoke_config={
                "simulate": {
                    "modes": 32,
                    "amplitude": 0.05,
                    "dt": 0.01,
                    "t_end": 0.2,
                    "delta": 0.1,
                    "forcing_amplitude": 0.05,
                    "sample_every": 10,
                }
            },
            threads=1,
            work_unit="steps",
        ),
        Workload(
            name="ensemble",
            command="attractor",
            config={
                "attractor": {
                    "experiment": "absorbing",
                    "modes": 64,
                    "member_count": 8,
                    "delta": 0.2,
                    "forcing_amplitude": 0.5,
                    "horizon": 5.0,
                    "dt": 0.01,
                    "sample_every": 2,
                    "probes": "1.25, 2.5, 5.0",
                }
            },
            smoke_config={
                "attractor": {
                    "experiment": "absorbing",
                    "modes": 32,
                    "member_count": 2,
                    "delta": 0.2,
                    "forcing_amplitude": 0.5,
                    "horizon": 3.0,
                    "dt": 0.01,
                    "sample_every": 2,
                    "probes": "1.0, 3.0",
                }
            },
            threads=2,
            work_unit="member-steps",
        ),
        Workload(
            name="blocks",
            command="blocks",
            config={"blocks": {"cases": "plus_plus_plus, high_parallel, coherent, generic", "per_case": 1}},
            smoke_config={"blocks": {"cases": "generic", "per_case": 1, "restarts": 2, "iters": 10}},
            threads=1,
            work_unit="blocks",
            # The sampler's cost is heavy-tailed across root seeds (1 s to
            # 18 s per invocation over seeds 0-11, coefficient of variation
            # about 1), far wider than any bound, so every blocks run samples
            # with the CLI's default seed.
            fixed_seed=DEFAULT_SEED,
        ),
        Workload(
            name="knapp",
            command="knapp",
            config={"knapp": {"n_values": "8, 16, 32, 64", "grid_n": 64, "time_samples": 32}},
            smoke_config={"knapp": {"n_values": "4, 8, 16, 32", "grid_n": 32, "time_samples": 8}},
            threads=1,
            work_unit="ladder points",
            seed_free=True,
        ),
    )
}


# ---------------------------------------------------------------- checks


def _expected_counts(wl: Workload, section: dict) -> tuple[int, int]:
    """(step_count, rows of the main CSV) implied by the config."""

    def samples(n_steps: int, every: int) -> int:
        return 1 + sum(1 for k in range(1, n_steps + 1) if k % every == 0 or k == n_steps)

    if wl.command == "simulate":
        n = round(float(section["t_end"]) / float(section["dt"]))
        return n, samples(n, int(section["sample_every"]))
    if wl.command == "attractor":
        n = round(float(section["horizon"]) / float(section["dt"]))
        return int(section["member_count"]) * n, samples(n, int(section["sample_every"]))
    if wl.command == "blocks":
        cases = [c for c in str(section["cases"]).split(",") if c.strip()]
        rows = len(cases) * int(section["per_case"])
        return rows, rows
    if wl.command == "knapp":
        rows = len([n for n in str(section["n_values"]).split(",") if n.strip()])
        return rows, rows
    raise ValueError(f"no expected counts for {wl.command}")


def read_csv(path: str) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [_parse_row(line.split(",")) for line in lines[1:]]
    return header, rows


def _parse_row(cells: list) -> list:
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def _numbers(value):
    """Every number nested in a JSON value; None counts as a missing number."""
    if isinstance(value, bool):
        return
    if value is None or isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)


def _finite(value) -> bool:
    return all(x is not None and math.isfinite(x) for x in _numbers(value))


def load_outputs(out_dir: str) -> dict:
    """manifest plus every output named in it, parsed."""
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    files = {}
    for entry in manifest["outputs"]:
        path = os.path.join(out_dir, entry["path"])
        if entry["path"].endswith(".csv"):
            files[entry["path"]] = read_csv(path)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                files[entry["path"]] = json.load(fh)
    return {"manifest": manifest, "files": files}


def check_outputs(wl: Workload, smoke: bool, seed: int, out_dir: str) -> list:
    """Return a list of problems with one invocation's outputs (empty = pass).

    References hold full-size outputs, so smoke runs skip that comparison.
    """
    section = wl.section(smoke)
    try:
        loaded = load_outputs(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]
    manifest, files = loaded["manifest"], loaded["files"]
    problems = []
    if manifest.get("command") != wl.command:
        problems.append(f"manifest command {manifest.get('command')!r} != {wl.command!r}")
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')!r} != {seed}")
    steps, rows = _expected_counts(wl, section)
    if manifest.get("step_count") != steps:
        problems.append(f"step_count {manifest.get('step_count')} != {steps}")
    if not manifest.get("wall_clock_seconds", 0) > 0:
        problems.append("wall_clock_seconds is not positive")
    if not _finite(manifest.get("details", {})):
        problems.append("manifest details hold a non-finite number")
    for entry in manifest["outputs"]:
        content = files[entry["path"]]
        if entry["path"].endswith(".csv"):
            header, body = content
            if len(body) != entry["rows"]:
                problems.append(f"{entry['path']}: {len(body)} rows, manifest says {entry['rows']}")
            if len(body) != rows:
                problems.append(f"{entry['path']}: {len(body)} rows, config implies {rows}")
            if any(len(r) != len(header) for r in body):
                problems.append(f"{entry['path']}: ragged rows")
            if not _finite([x for r in body for x in r if not isinstance(x, str)]):
                problems.append(f"{entry['path']}: non-finite value")
        elif not isinstance(content, dict) or not _finite(content):
            problems.append(f"{entry['path']}: not an object of finite numbers")
    if wl.command == "blocks" and not problems:
        problems.extend(_check_blocks(files["blocks.csv"], manifest["details"]["c_star"]))
    if not problems and not smoke:
        problems.extend(compare_reference(wl, seed, loaded))
    return problems


def _check_blocks(csv, c_star: float) -> list:
    header, body = csv
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for k, row in enumerate(body):
        if not row[col["support"]] > 0:
            problems.append(f"blocks row {k}: empty support")
        if row[col["estimate"]] > c_star * row[col["bound"]] * (1.0 + 1e-12):
            problems.append(f"blocks row {k}: estimate exceeds C* x bound")
    return problems


# ------------------------------------------------------------- reference


def reference_path(wl: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{wl.name}.json")


def reference_payload(wl: Workload, seed: int, loaded: dict) -> dict:
    return {
        "workload": wl.name,
        "seed": None if wl.seed_free else seed,
        "config": {key: str(value) for key, value in wl.section(False).items()},
        "details": loaded["manifest"]["details"],
        "files": loaded["files"],
    }


def compare_reference(wl: Workload, seed: int, loaded: dict) -> list:
    path = reference_path(wl)
    if not os.path.isfile(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["seed"] is not None and ref["seed"] != seed:
        return []
    # JSON round trip so tuples and lists compare alike
    got = json.loads(json.dumps(reference_payload(wl, seed, loaded)))
    return [f"reference mismatch: {d}" for d in _diff(ref, got, wl.name)[:5]]


def _diff(want, got, where: str) -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in _diff(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in _diff(a, b, f"{where}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool) and isinstance(got, (int, float)):
        if abs(want - got) <= REFERENCE_RTOL * max(abs(want), abs(got)) + REFERENCE_ATOL:
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if want == got else [f"{where}: {got!r} != reference {want!r}"]
