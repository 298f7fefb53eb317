"""Batch front end: config-driven runs with manifests and CSV outputs.

Subcommands mirror the library layers: simulate (one damped/conservative
run), smoothing (grid-refinement study of the Duhamel remainder), knapp
(box-ladder norm sweep), blocks (sampled dyadic block-norm checks), and
attractor (ensemble absorbing/compactness experiments).  A config holds
[run] and the command's own section and nothing else, and every key in them
must be one that is read, so a misspelt key is refused instead of silently
falling back to its default; commands check this before their first solve,
so a typo fails at once.  Commands return their tables and write
nothing: main alone writes the CSVs, then summary.json, then exactly one
manifest.json recording the effective config, the root seed, a content hash
of the inputs, and step/wall-clock counts.  Each file is written under a
temporary name and renamed into place once the command has succeeded, so a
failed run leaves no outputs in --out.  Runs with the same content hash
produce byte-identical CSVs.  Exit codes: 0 on success, 2 for configuration
errors, 3 when the integrator, a recorded simulate row or the
energy-balance audit hits non-finite values.

At import the module loads only what every command uses: spectral_core,
_rng and the standard library.  main imports the modules the chosen command
runs (_COMMANDS) once [run] is checked and before it starts the clock, so a
process compiles no module its command does not call, and the manifest's
wall_clock_seconds times no import.
"""
from __future__ import annotations

import argparse
import configparser
import importlib
import json
import math
import os
import sys
import time
import warnings
from typing import Optional

import numpy as np

# CPython's built-in SHA-256 gives hashlib's digest without mapping OpenSSL's
# libcrypto, which importing hashlib does (3.6 MB RSS) for one digest per run
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from ._rng import hash_u64
from .spectral_core import DEFAULT_DOMAIN_LENGTH, GridSpec, sobolev_norm

__all__ = ["ConfigError", "main", "parse_config", "serialize_config"]


class ConfigError(Exception):
    """Anything wrong with the config file or its values; exits with code 2."""


def parse_config(text: str) -> dict:
    """Parse flat key = value sections into {section: {key: value}} strings."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def serialize_config(sections: dict) -> str:
    """Canonical text form; serialize(parse(text)) is idempotent."""
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


_REQUIRED = object()


class _Reader:
    """Typed reads from one config section; remembers every key it was asked for."""

    def __init__(self, section: str, values: dict):
        self.section = section
        self.values = values
        self.read = set()

    def __call__(self, key: str, cast, default=_REQUIRED):
        self.read.add(key)
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.section}] is missing required key '{key}'")
            return default
        raw = self.values[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"[{self.section}] {key}: cannot parse '{raw}' as {cast.__name__}"
            ) from exc

    def check_all_read(self) -> None:
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise ConfigError(f"[{self.section}] has unknown keys: {', '.join(unread)}")


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _int_list(raw: str) -> list:
    return [int(part) for part in raw.split(",") if part.strip()]


def _float_list(raw: str) -> list:
    return [float(part) for part in raw.split(",") if part.strip()]


def _derive_seed(root: int, salt: int) -> int:
    """Child seed for a named role, so one root seed drives the whole run."""
    return int(hash_u64(root, np.int64(salt), np.int64(0)))


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)] + [",".join(_format_cell(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(out_dir: str, name: str, text: str) -> None:
    """Write one output under a temporary name, then rename it into place."""
    path = os.path.join(out_dir, name)
    with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def _content_hash(command: str, sections: dict) -> str:
    digest = sha256()
    digest.update(f"dslab {__version__}\ncommand {command}\n".encode("utf-8"))
    digest.update(serialize_config(sections).encode("utf-8"))
    return digest.hexdigest()


def _count(get: _Reader, key: str, default: Optional[int]) -> Optional[int]:
    """An int key that counts something and so must be at least 1; an
    optional count (default None) that is not set stays None."""
    value = get(key, int, default)
    if value is not None and value < 1:
        raise ConfigError(f"[{get.section}] {key} must be >= 1, got {value}")
    return value


def _exponent(get: _Reader, key: str, value: float) -> float:
    """value of the datum or forcing exponent key, which RoughDataSpec needs
    finite and above 1/2; otherwise refused, naming the key."""
    if not 0.5 < value < math.inf:
        raise ConfigError(f"[{get.section}] {key} must be finite and exceed 1/2, got {value}")
    return value


def _forcing(get: _Reader, seed: int):
    """Read the section's drive keys and return build(grid): the drive f
    on grid, or None when forcing_amplitude is <= 0.

    Both keys are read whatever the amplitude, so a smoothness set beside a
    zero amplitude is not refused as unknown.  Commands call build after
    get.check_all_read(), so an unknown key is refused before any field is
    built.  build refuses a NaN or infinite amplitude and, when it builds,
    an exponent RoughDataSpec would refuse, each naming its key.
    """
    from .smoothing_diagnostics import make_forcing

    amplitude = get("forcing_amplitude", float, 0.0)
    smoothness = get("forcing_smoothness", float, 3.0)

    def build(grid: GridSpec):
        if not math.isfinite(amplitude):
            raise ConfigError(f"[{get.section}] forcing_amplitude must be finite, got {amplitude}")
        if amplitude <= 0:
            return None
        smooth = _exponent(get, "forcing_smoothness", smoothness)
        return make_forcing(grid, amplitude, _derive_seed(seed, 1), smooth)

    return build


# Each command reads every key of its section unconditionally, refuses unread
# keys (get.check_all_read) before it builds its first field, and returns
# (grid info, {file name: (header, rows)}, summary or None, details, steps).
# Its imports only bind names: main has loaded its modules before the clock.


def cmd_simulate(get: _Reader, seed: int):
    from .ds_solver import SolverConfig, sample_steps, sample_stream
    from .smoothing_diagnostics import RoughDataSpec, make_rough_data

    modes = get("modes", int, 64)
    length = get("domain_length", float, DEFAULT_DOMAIN_LENGTH)
    grid = GridSpec(modes, length)
    s = get("s", float, 1.0)
    amplitude = get("amplitude", float)
    solver = dict(
        c1=get("c1", float, 1.0),
        c2=get("c2", float, 1.0),
        dt=get("dt", float),
        t_end=get("t_end", float),
        delta=get("delta", float, 0.0),
        dealias=get("dealias", _bool, True),
        sample_every=get("sample_every", int, 1),
    )
    forcing = _forcing(get, seed)
    get.check_all_read()
    spec = RoughDataSpec(_exponent(get, "s", s), amplitude, seed)
    cfg = SolverConfig(forcing=forcing(grid), **solver)
    # keeps neither the datum nor any sampled field
    stream = sample_stream(make_rough_data(spec, grid), cfg)
    recorder = stream.recorder()
    # an overflow here ends in the stream's IntegrationAbort or in the row
    # check below, each one line, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _, t, u_hat in stream:
            recorder.record(t, u_hat)
    series = recorder.series()
    columns = (series.times, series.mass, series.h1_norm, series.energy)
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        bad = series.times[np.argmin(finite)]
        raise FloatingPointError(f"non-finite recorded values at t = {bad:.6g}")
    rows = list(zip(*columns))
    tables = {"simulate.csv": (["t", "mass", "h1", "energy"], rows)}
    grid_info = {"modes": modes, "domain_length": length}
    return grid_info, tables, None, {}, sample_steps(cfg)[-1]


def cmd_smoothing(get: _Reader, seed: int):
    from .ds_solver import SolverConfig, sample_steps
    from .smoothing_diagnostics import RoughDataSpec, refinement_study

    resolutions = get("modes", _int_list, [64, 128, 256])
    s = get("s", float, 0.6)
    a = get("a", float, 0.3)
    cfg = SolverConfig(
        c1=get("c1", float, 1.0),
        c2=get("c2", float, 1.0),
        dt=get("dt", float, 0.01),
        t_end=get("t_probe", float, 2.0),
    )
    amplitude = get("amplitude", float)
    length = get("domain_length", float, None)
    get.check_all_read()
    spec = RoughDataSpec(_exponent(get, "s", s), amplitude, seed)
    if not math.isfinite(a):
        raise ConfigError(f"[smoothing] a must be finite, got {a}")
    per_grid = sample_steps(cfg)[-1]
    cfg.sample_every = max(1, per_grid)  # the study reads one state per grid: one advance
    exploratory = not a < min(0.5, s - 0.5)
    if exploratory:
        warnings.warn(
            f"a = {a} is at or above min(1/2, s - 1/2) for s = {s}; "
            "proceeding with the result flagged exploratory"
        )
    study = refinement_study(spec, resolutions, s, a, cfg, domain_length=length)
    rows = [
        (r["M"], r["norm_linear"], r["norm_nonlinear"], r["norm_nonlinear_gauged"])
        for r in study["rows"]
    ]
    tables = {"smoothing.csv": (["modes", "linear", "nonlinear", "nonlinear_gauged"], rows)}
    details = {
        "linear_slope": study["linear_slope"],
        "nonlinear_slope": study["nonlinear_slope"],
        "gauged_slope": study["gauged_slope"],
        "exploratory": exploratory,
    }
    grid_info = {"modes": resolutions, "s": s, "a": a}
    return grid_info, tables, None, details, len(resolutions) * per_grid


def cmd_knapp(get: _Reader, seed: int):
    from .xsb_analysis.knapp import check_ladder, knapp_grid, knapp_sweep

    n_values = get("n_values", _float_list, [8.0, 16.0, 32.0, 64.0])
    grid_n = _count(get, "grid_n", None)
    time_samples = get("time_samples", int, 32)
    params = dict(
        s=get("s", float, 0.6),
        a=get("a", float, 0.3),
        b=get("b", float, 0.51),
        c1=get("c1", float, 1.0),
        c2=get("c2", float, 1.0),
    )
    get.check_all_read()
    check_ladder(n_values, **params)  # before max(n_values) can overflow
    if grid_n is None:
        grid_n = int(max(n_values))
    grid = knapp_grid(grid_n, time_samples=time_samples)
    sweep = knapp_sweep(n_values, grid=grid, **params)
    rows = list(zip(sweep.n_values, sweep.u_norms, sweep.v_norms, sweep.ratios))
    tables = {"knapp.csv": (["n", "u_norm", "v_norm", "ratio"], rows)}
    details = {
        "ratio_slope": sweep.slope,
        "u_slope": sweep.u_slope,
        "v_slope": sweep.v_slope,
    }
    grid_info = {
        "grid_n": grid_n,
        "modes": grid.spatial.modes_per_axis,
        "time_samples": time_samples,
    }
    return grid_info, tables, None, details, len(rows)


def cmd_blocks(get: _Reader, seed: int):
    from .xsb_analysis.blocks import BlockLattice, CASES, check_block_bounds, sample_block_specs

    cases = [
        part.strip() for part in get("cases", str, ",".join(CASES)).split(",") if part.strip()
    ]
    if not cases or not set(cases) <= set(CASES):
        raise ConfigError(
            f"[blocks] cases must be one or more of {', '.join(CASES)}, "
            f"got '{', '.join(cases)}'"
        )
    per_case = _count(get, "per_case", 2)
    lattice = BlockLattice(
        xi_step=get("xi_step", float, 0.5),
        tau_step=get("tau_step", float, 0.5),
        max_support=_count(get, "max_support", 400_000),
    )
    restarts = _count(get, "restarts", 6)
    iters = _count(get, "iters", 60)
    get.check_all_read()
    specs = []
    for k, case in enumerate(cases):
        specs.extend(
            sample_block_specs(case, per_case, seed=_derive_seed(seed, 2 + k), lattice=lattice)
        )
    result = check_block_bounds(
        specs, lattice=lattice, restarts=restarts, iters=iters, seed=seed
    )
    rows = []
    for entry in result["rows"]:
        spec = entry["spec"]
        rows.append(
            (
                entry["case"],
                spec.n1, spec.n2, spec.n3,
                spec.l1, spec.l2, spec.l3,
                spec.h,
                entry["support"],
                entry["estimate"],
                entry["bound"],
                entry["ratio"],
            )
        )
    header = ["case", "n1", "n2", "n3", "l1", "l2", "l3", "h", "support", "estimate", "bound", "ratio"]
    details = {"c_star": result["c_star"], "c_fit": result["c_fit"]}
    grid_info = {"xi_step": lattice.xi_step, "tau_step": lattice.tau_step}
    return grid_info, {"blocks.csv": (header, rows)}, None, details, len(rows)


def _attractor_ensemble(get: _Reader, seed: int):
    """The section's EnsembleConfig.  Every key is read, and unknown ones
    are refused, before the reference datum or the forcing is built."""
    from .attractor_lab import EnsembleConfig
    from .smoothing_diagnostics import RoughDataSpec, make_rough_data

    modes = get("modes", int, 64)
    length = get("domain_length", float, 2.0 * np.pi)
    grid = GridSpec(modes, length)
    member_s = get("member_s", float, 1.0)
    count = _count(get, "member_count", 8)
    h1_min = get("h1_min", float, 0.5)
    h1_max = get("h1_max", float, 5.0)
    run = dict(
        c1=get("c1", float, 1.0),
        c2=get("c2", float, 1.0),
        delta=get("delta", float, 0.0),
        horizon=get("horizon", float, 40.0),
        dt=get("dt", float, 0.01),
        sample_every=get("sample_every", int, 10),
        probe_times=get("probes", _float_list, [10.0, 20.0, 40.0]),
        a=get("a", float, 0.4),
    )
    forcing = _forcing(get, seed)
    get.check_all_read()
    member_s = _exponent(get, "member_s", member_s)
    # the datum law fixes the H^1 norm per unit amplitude, so target norms
    # translate into amplitudes through one reference field
    unit = sobolev_norm(make_rough_data(RoughDataSpec(member_s, 1.0, 0), grid), 1.0)
    targets = np.geomspace(h1_min, h1_max, count) if count > 1 else np.array([h1_min])
    members = [
        RoughDataSpec(member_s, float(t / unit), _derive_seed(seed, 10 + j))
        for j, t in enumerate(targets)
    ]
    return EnsembleConfig(grid=grid, members=members, forcing=forcing(grid), **run)


def _balance_residual(value: Optional[float]) -> Optional[float]:
    """summary.json's max_balance_residual: null, with a warning, when the
    run was not audited."""
    if value is None:
        warnings.warn(
            "the samples are too few or further apart than 10 * dt to audit "
            "the energy balance; max_balance_residual is null"
        )
    return value


def cmd_attractor(get: _Reader, seed: int):
    from .attractor_lab import absorbing_experiment, compactness_probe
    from .ds_solver import sample_steps

    experiment = get("experiment", str, "absorbing")
    ens = _attractor_ensemble(get, seed)
    forcing_l2 = sobolev_norm(ens.forcing, 0.0) if ens.forcing is not None else 0.0
    base = {"a": ens.a, "delta": ens.delta, "forcing_l2": forcing_l2}
    if experiment == "absorbing":
        report = absorbing_experiment(ens)
        header = ["t"] + [f"h1_{j}" for j in range(len(ens.members))]
        rows = [
            (t, *(series[i] for series in report.h1_series))
            for i, t in enumerate(report.sample_times)
        ]
        summary = dict(
            base,
            fit_amplitude=report.fit_amplitude,
            fit_rate=report.fit_rate,
            fit_radius=report.fit_radius,
            member_radius=list(report.member_radius),
            entry_times=list(report.entry_times),
            absorbed=report.absorbed,
            fit_failures=list(report.fit_failures),
            max_balance_residual=_balance_residual(report.max_residual),
        )
    elif experiment == "compactness":
        table = compactness_probe(ens)
        header = ["member", "remainder_h1a", "free_h1a"]
        rows = [
            (j, table["remainder_h1a"][j], table["free_h1a"][j])
            for j in range(len(ens.members))
        ]
        summary = dict(
            base,
            shift_h1a=table["shift_h1a"],
            # null at a probe time with no pairs: one member has no distance
            pairwise_h1_median={
                str(t): float(np.median(d)) if d.size else None
                for t, d in table["pairwise_h1"].items()
            },
            max_balance_residual=_balance_residual(table["max_balance_residual"]),
        )
    else:
        raise ConfigError(
            f"[attractor] experiment must be 'absorbing' or 'compactness', got '{experiment}'"
        )
    grid_info = {
        "modes": ens.grid.modes_per_axis,
        "domain_length": ens.grid.domain_length,
        "members": len(ens.members),
    }
    steps = len(ens.members) * sample_steps(ens.solver_config())[-1]
    tables = {"attractor.csv": (header, rows)}
    return grid_info, tables, summary, {"experiment": experiment}, steps


# each command and the dslab modules it runs, which main imports for it
_SOLVER = ("ds_solver", "smoothing_diagnostics")
_COMMANDS = {
    "simulate": (cmd_simulate, _SOLVER),
    "smoothing": (cmd_smoothing, _SOLVER),
    "knapp": (cmd_knapp, ("xsb_analysis.knapp", "xsb_analysis.spacetime")),
    "blocks": (cmd_blocks, ("xsb_analysis.blocks", "xsb_analysis.multipliers")),
    "attractor": (cmd_attractor, _SOLVER + ("attractor_lab",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the INI config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="root seed; overrides the config")
        cmd.add_argument(
            "--threads", type=int, default=None,
            help=(
                "accepted and ignored: every command runs on one thread "
                "(ROADMAP item 3 deletes the flag)"
            ),
        )
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one 'warning: <message>' line: where in dslab it was
    raised says nothing about the config that caused it."""
    return f"warning: {message}\n"


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        sections = load_config(args.config)
        foreign = sorted(set(sections) - {"run", args.command})
        if foreign:
            raise ConfigError(
                f"'{args.command}' reads only [run] and [{args.command}], "
                f"not: {', '.join(f'[{name}]' for name in foreign)}"
            )
        run = sections.setdefault("run", {})
        if args.seed is not None:
            run["seed"] = str(args.seed)
        run_get = _Reader("run", run)
        seed = run_get("seed", int, 0)
        run["seed"] = str(seed)
        run_get.check_all_read()
        get = _Reader(args.command, sections.get(args.command, {}))
        command, modules = _COMMANDS[args.command]
        for name in modules:  # before the clock: the manifest times no import
            importlib.import_module(f".{name}", __package__)
        os.makedirs(args.out, exist_ok=True)
        started = time.perf_counter()
        grid_info, tables, summary, details, steps = command(get, seed)
        # the commands check before solving; this catches one that forgot to
        get.check_all_read()
        outputs = []
        for name, (header, rows) in tables.items():
            _write(args.out, name, _csv_text(header, rows))
            outputs.append({"path": name, "rows": len(rows)})
        if summary is not None:
            _write(args.out, "summary.json", _json_text(summary))
            outputs.append({"path": "summary.json", "rows": 1})
        manifest = {
            "tool": "dslab",
            "version": __version__,
            "command": args.command,
            "seed": seed,
            "grid": grid_info,
            "config": sections,
            "content_hash": _content_hash(args.command, sections),
            "outputs": outputs,
            "details": details,
            "step_count": steps,
            "wall_clock_seconds": time.perf_counter() - started,
        }
        _write(args.out, "manifest.json", _json_text(manifest))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # ds_solver's IntegrationAbort among them
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
