"""Batch front end: config-driven runs with manifests and CSV outputs.

Subcommands mirror the library layers: simulate (one damped/conservative
run), smoothing (grid-refinement study of the Duhamel remainder), knapp
(box-ladder norm sweep), blocks (sampled dyadic block-norm checks), and
attractor (ensemble absorbing/compactness experiments).  Every run writes
exactly one manifest.json into --out recording the effective config, the
root seed, a content hash of the inputs, and step/wall-clock counts; runs
with the same content hash produce byte-identical CSVs.  Exit codes: 0 on
success, 2 for configuration errors, 3 when the integrator hits non-finite
values.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import sys
import time
import warnings
from typing import Optional

import numpy as np

from . import __version__
from ._rng import hash_u64
from .spectral_core import DEFAULT_DOMAIN_LENGTH, GridSpec, sobolev_norm
from .ds_solver import IntegrationAbort, SolverConfig, evolve
from .smoothing_diagnostics import RoughDataSpec, make_rough_data, refinement_study
from .xsb_analysis import knapp_grid, knapp_sweep
from .xsb_analysis.blocks import BlockLattice, CASES, check_block_bounds, sample_block_specs
from .attractor_lab import (
    EnsembleConfig,
    absorbing_experiment,
    compactness_probe,
    make_forcing,
)

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


def _get(sections: dict, section: str, key: str, cast, default=_REQUIRED):
    values = sections.get(section, {})
    if key not in values:
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    raw = values[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse '{raw}' as {cast.__name__}"
        ) from exc


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


def _write_csv(path: str, header: list, rows: list) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")
    return len(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _content_hash(command: str, sections: dict) -> str:
    digest = hashlib.sha256()
    digest.update(f"dslab {__version__}\ncommand {command}\n".encode("utf-8"))
    digest.update(serialize_config(sections).encode("utf-8"))
    return digest.hexdigest()


def _write_manifest(
    out_dir: str,
    command: str,
    sections: dict,
    seed: int,
    grid: dict,
    outputs: list,
    details: dict,
    steps: int,
    elapsed: float,
) -> None:
    payload = {
        "tool": "dslab",
        "version": __version__,
        "command": command,
        "seed": seed,
        "grid": grid,
        "config": sections,
        "content_hash": _content_hash(command, sections),
        "outputs": outputs,
        "details": details,
        "step_count": steps,
        "wall_clock_seconds": elapsed,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _forcing(sections: dict, section: str, grid: GridSpec, seed: int):
    """The section's drive f, or None when forcing_amplitude is not positive."""
    amplitude = _get(sections, section, "forcing_amplitude", float, 0.0)
    if not amplitude > 0:
        return None
    smoothness = _get(sections, section, "forcing_smoothness", float, 3.0)
    return make_forcing(grid, amplitude, _derive_seed(seed, 1), smoothness)


def cmd_simulate(sections: dict, out_dir: str, seed: int, threads: int):
    modes = _get(sections, "simulate", "modes", int, 64)
    length = _get(sections, "simulate", "domain_length", float, DEFAULT_DOMAIN_LENGTH)
    grid = GridSpec(modes, length)
    datum = make_rough_data(
        RoughDataSpec(
            _get(sections, "simulate", "s", float, 1.0),
            _get(sections, "simulate", "amplitude", float),
            seed,
        ),
        grid,
    )
    cfg = SolverConfig(
        c1=_get(sections, "simulate", "c1", float, 1.0),
        c2=_get(sections, "simulate", "c2", float, 1.0),
        dt=_get(sections, "simulate", "dt", float),
        t_end=_get(sections, "simulate", "t_end", float),
        delta=_get(sections, "simulate", "delta", float, 0.0),
        forcing=_forcing(sections, "simulate", grid, seed),
        dealias=_get(sections, "simulate", "dealias", _bool, True),
        sample_every=_get(sections, "simulate", "sample_every", int, 1),
    )
    traj = evolve(datum, cfg)
    rows = [
        (t, m, h, e)
        for t, m, h, e in zip(traj.times, traj.mass, traj.h1_norm, traj.energy)
    ]
    count = _write_csv(
        os.path.join(out_dir, "simulate.csv"), ["t", "mass", "h1", "energy"], rows
    )
    grid_info = {"modes": modes, "domain_length": length}
    outputs = [{"path": "simulate.csv", "rows": count}]
    return grid_info, outputs, {}, int(round(cfg.t_end / cfg.dt))


def cmd_smoothing(sections: dict, out_dir: str, seed: int, threads: int):
    resolutions = _get(sections, "smoothing", "modes", _int_list, [64, 128, 256])
    s = _get(sections, "smoothing", "s", float, 0.6)
    a = _get(sections, "smoothing", "a", float, 0.3)
    t_probe = _get(sections, "smoothing", "t_probe", float, 2.0)
    cfg = SolverConfig(
        c1=_get(sections, "smoothing", "c1", float, 1.0),
        c2=_get(sections, "smoothing", "c2", float, 1.0),
        dt=_get(sections, "smoothing", "dt", float, 0.01),
        t_end=t_probe,
        sample_every=_get(sections, "smoothing", "sample_every", int, 10),
    )
    spec = RoughDataSpec(s, _get(sections, "smoothing", "amplitude", float), seed)
    exploratory = not a < min(0.5, s - 0.5)
    if exploratory:
        warnings.warn(
            f"a = {a} is at or above min(1/2, s - 1/2) for s = {s}; "
            "proceeding with the result flagged exploratory",
            stacklevel=2,
        )
    study = refinement_study(
        spec,
        resolutions,
        t_probe,
        s,
        a,
        cfg,
        domain_length=_get(sections, "smoothing", "domain_length", float, None),
    )
    rows = [
        (r["M"], r["norm_linear"], r["norm_nonlinear"], r["norm_nonlinear_gauged"])
        for r in study["rows"]
    ]
    count = _write_csv(
        os.path.join(out_dir, "smoothing.csv"),
        ["modes", "linear", "nonlinear", "nonlinear_gauged"],
        rows,
    )
    details = {
        "linear_slope": study["linear_slope"],
        "nonlinear_slope": study["nonlinear_slope"],
        "gauged_slope": study["gauged_slope"],
        "exploratory": exploratory,
    }
    grid_info = {"modes": resolutions, "s": s, "a": a}
    outputs = [{"path": "smoothing.csv", "rows": count}]
    return grid_info, outputs, details, len(resolutions) * int(round(t_probe / cfg.dt))


def cmd_knapp(sections: dict, out_dir: str, seed: int, threads: int):
    n_values = _get(sections, "knapp", "n_values", _float_list, [8.0, 16.0, 32.0, 64.0])
    grid_n = _get(sections, "knapp", "grid_n", int, int(max(n_values)))
    time_samples = _get(sections, "knapp", "time_samples", int, 32)
    grid = knapp_grid(grid_n, time_samples=time_samples)
    sweep = knapp_sweep(
        n_values,
        s=_get(sections, "knapp", "s", float, 0.6),
        a=_get(sections, "knapp", "a", float, 0.3),
        b=_get(sections, "knapp", "b", float, 0.51),
        c1=_get(sections, "knapp", "c1", float, 1.0),
        c2=_get(sections, "knapp", "c2", float, 1.0),
        grid=grid,
    )
    rows = list(zip(sweep.n_values, sweep.u_norms, sweep.v_norms, sweep.ratios))
    count = _write_csv(
        os.path.join(out_dir, "knapp.csv"), ["n", "u_norm", "v_norm", "ratio"], rows
    )
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
    outputs = [{"path": "knapp.csv", "rows": count}]
    return grid_info, outputs, details, len(rows)


def cmd_blocks(sections: dict, out_dir: str, seed: int, threads: int):
    cases = [
        part.strip()
        for part in _get(sections, "blocks", "cases", str, ",".join(CASES)).split(",")
        if part.strip()
    ]
    per_case = _get(sections, "blocks", "per_case", int, 2)
    lattice = BlockLattice(
        xi_step=_get(sections, "blocks", "xi_step", float, 0.5),
        tau_step=_get(sections, "blocks", "tau_step", float, 0.5),
        max_support=_get(sections, "blocks", "max_support", int, 400_000),
    )
    specs = []
    for k, case in enumerate(cases):
        specs.extend(
            sample_block_specs(case, per_case, seed=_derive_seed(seed, 2 + k), lattice=lattice)
        )
    result = check_block_bounds(
        specs,
        lattice=lattice,
        restarts=_get(sections, "blocks", "restarts", int, 6),
        iters=_get(sections, "blocks", "iters", int, 60),
        seed=seed,
        workers=threads,
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
    count = _write_csv(
        os.path.join(out_dir, "blocks.csv"),
        ["case", "n1", "n2", "n3", "l1", "l2", "l3", "h", "support", "estimate", "bound", "ratio"],
        rows,
    )
    details = {"c_star": result["c_star"], "c_fit": result["c_fit"]}
    grid_info = {"xi_step": lattice.xi_step, "tau_step": lattice.tau_step}
    outputs = [{"path": "blocks.csv", "rows": count}]
    return grid_info, outputs, details, len(rows)


def _attractor_ensemble(sections: dict, seed: int) -> EnsembleConfig:
    modes = _get(sections, "attractor", "modes", int, 64)
    length = _get(sections, "attractor", "domain_length", float, 2.0 * np.pi)
    grid = GridSpec(modes, length)
    member_s = _get(sections, "attractor", "member_s", float, 1.0)
    count = _get(sections, "attractor", "member_count", int, 8)
    h1_min = _get(sections, "attractor", "h1_min", float, 0.5)
    h1_max = _get(sections, "attractor", "h1_max", float, 5.0)
    # the datum law fixes the H^1 norm per unit amplitude, so target norms
    # translate into amplitudes through one reference field
    unit = sobolev_norm(make_rough_data(RoughDataSpec(member_s, 1.0, 0), grid), 1.0)
    targets = np.geomspace(h1_min, h1_max, count) if count > 1 else np.array([h1_min])
    members = [
        RoughDataSpec(member_s, float(t / unit), _derive_seed(seed, 10 + j))
        for j, t in enumerate(targets)
    ]
    return EnsembleConfig(
        grid=grid,
        members=members,
        c1=_get(sections, "attractor", "c1", float, 1.0),
        c2=_get(sections, "attractor", "c2", float, 1.0),
        delta=_get(sections, "attractor", "delta", float, 0.0),
        forcing=_forcing(sections, "attractor", grid, seed),
        horizon=_get(sections, "attractor", "horizon", float, 40.0),
        dt=_get(sections, "attractor", "dt", float, 0.01),
        sample_every=_get(sections, "attractor", "sample_every", int, 10),
        probe_times=_get(sections, "attractor", "probes", _float_list, [10.0, 20.0, 40.0]),
        a=_get(sections, "attractor", "a", float, 0.4),
    )


def cmd_attractor(sections: dict, out_dir: str, seed: int, threads: int):
    ens = _attractor_ensemble(sections, seed)
    experiment = _get(sections, "attractor", "experiment", str, "absorbing")
    forcing_l2 = sobolev_norm(ens.forcing, 0.0) if ens.forcing is not None else 0.0
    base = {"a": ens.a, "delta": ens.delta, "forcing_l2": forcing_l2}
    if experiment == "absorbing":
        report = absorbing_experiment(ens, workers=threads)
        header = ["t"] + [f"h1_{j}" for j in range(len(ens.members))]
        rows = [
            (t, *(series[i] for series in report.h1_series))
            for i, t in enumerate(report.sample_times)
        ]
        count = _write_csv(os.path.join(out_dir, "attractor.csv"), header, rows)
        summary = dict(
            base,
            fit_amplitude=report.fit_amplitude,
            fit_rate=report.fit_rate,
            fit_radius=report.fit_radius,
            member_radius=list(report.member_radius),
            entry_times=list(report.entry_times),
            absorbed=report.absorbed,
            fit_failures=list(report.fit_failures),
            max_balance_residual=report.max_residual,
        )
    elif experiment == "compactness":
        table = compactness_probe(ens, workers=threads)
        rows = [
            (j, table["remainder_h1a"][j], table["free_h1a"][j])
            for j in range(len(ens.members))
        ]
        count = _write_csv(
            os.path.join(out_dir, "attractor.csv"),
            ["member", "remainder_h1a", "free_h1a"],
            rows,
        )
        summary = dict(
            base,
            shift_h1a=table["shift_h1a"],
            pairwise_h1_median={
                str(t): float(np.median(d)) for t, d in table["pairwise_h1"].items()
            },
        )
    else:
        raise ConfigError(
            f"[attractor] experiment must be 'absorbing' or 'compactness', got '{experiment}'"
        )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    grid_info = {
        "modes": ens.grid.modes_per_axis,
        "domain_length": ens.grid.domain_length,
        "members": len(ens.members),
    }
    outputs = [
        {"path": "attractor.csv", "rows": count},
        {"path": "summary.json", "rows": 1},
    ]
    steps = len(ens.members) * int(round(ens.horizon / ens.dt))
    return grid_info, outputs, {"experiment": experiment}, steps


_COMMANDS = {
    "simulate": cmd_simulate,
    "smoothing": cmd_smoothing,
    "knapp": cmd_knapp,
    "blocks": cmd_blocks,
    "attractor": cmd_attractor,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the INI config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="root seed; overrides the config")
        cmd.add_argument("--threads", type=int, default=None, help="worker cap for concurrent parts")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sections = load_config(args.config)
        run = sections.setdefault("run", {})
        if args.seed is not None:
            run["seed"] = str(args.seed)
        seed = _get(sections, "run", "seed", int, 0)
        run["seed"] = str(seed)
        threads = args.threads
        if threads is None:
            threads = _get(sections, "run", "threads", int, 1)
        if threads < 1:
            raise ConfigError(f"threads must be positive, got {threads}")
        os.makedirs(args.out, exist_ok=True)
        started = time.perf_counter()
        grid_info, outputs, details, steps = _COMMANDS[args.command](
            sections, args.out, seed, threads
        )
        _write_manifest(
            args.out,
            args.command,
            sections,
            seed,
            grid_info,
            outputs,
            details,
            steps,
            time.perf_counter() - started,
        )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
