"""Traced run: spans and counts for each dslab layer, from the benchmark's side.

Nothing here changes the program.  Spans wrap calls into each layer's
public functions; counts come from wrappers around ``numpy.fft``'s
transforms and around ``xsb_analysis.blocks.block_multiplier``.  Those
wrappers exist only inside ``counting`` below: the traced run installs
them, restores the originals on exit, and timed runs never see them.

The run does three things:

1. one untraced subprocess invocation of the workload (its manifest's
   wall_clock_seconds is the reference for the tracing overhead);
2. the same invocation in-process with the counting wrappers installed,
   inside one span (``trace.overhead_ratio`` = traced / untraced);
3. probes of every layer, whatever the workload, so every per-layer metric
   is reported on every traced run.

Metric names, and the end-to-end metric each one should move, are listed in
README.md.  Timings are medians of the spans of repeated calls; the counts
(FFT calls, probe calls, support points, bytes) repeat exactly.
"""
from __future__ import annotations

import contextlib
import functools
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dslab  # noqa: E402
from dslab import ds_solver, spectral_core  # noqa: E402
from dslab import attractor_lab, cli, smoothing_diagnostics  # noqa: E402
from dslab.xsb_analysis import blocks, knapp, multipliers, spacetime  # noqa: E402

FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn")
FFT_SIZES = (64, 128, 256, 512)
ORIGINALS = {name: getattr(np.fft, name) for name in FFT_NAMES}
ORIGINALS["block_multiplier"] = blocks.block_multiplier


def pool_workers() -> int:
    """Workers for the two-worker pool probes, capped at the CPUs available."""
    return min(2, len(os.sched_getaffinity(0)))


def wrappers_restored() -> bool:
    current = {name: getattr(np.fft, name) for name in FFT_NAMES}
    current["block_multiplier"] = blocks.block_multiplier
    return all(current[name] is fn for name, fn in ORIGINALS.items())


class Tracer:
    """In-memory spans (name, parent, start, end) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def repeat(self, name: str, fn, reps: int):
        """Call fn reps times, one span each; (median seconds, last result)."""
        times = []
        for _ in range(reps):
            with self.span(name) as record:
                result = fn()
            times.append(record["end"] - record["start"])
        return statistics.median(times), result

    def payload(self) -> dict:
        """Spans with duration and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        spans = [
            dict(r, duration=r["end"] - r["start"], self_time=r["end"] - r["start"] - child_time[k])
            for k, r in enumerate(self.spans)
        ]
        return {"spans": spans, "counts": dict(self.counts)}


@contextlib.contextmanager
def counting(tracer: Tracer, module, names, key: str):
    """Count calls of module.<name> for each name; originals restored on exit."""
    originals = {name: getattr(module, name) for name in names}

    def wrap(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    for name, fn in originals.items():
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def fft_counting(tracer: Tracer, key: str):
    return counting(tracer, np.fft, FFT_NAMES, key)


def _counted(tracer: Tracer, key: str, fn) -> int:
    before = tracer.counts.get(key, 0)
    with fft_counting(tracer, key):
        fn()
    return tracer.counts.get(key, 0) - before


# ------------------------------------------------------------------ probes


class Probes:
    """Layer probes; reps and step counts shrink in smoke mode, sizes do not."""

    def __init__(self, tracer: Tracer, smoke: bool):
        self.t = tracer
        self.smoke = smoke
        self.metrics = {}
        self.rng = np.random.default_rng(0)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def reps(self, full: int) -> int:
        return 1 if self.smoke else full

    # physics shared with the simulate workload
    def _solver_case(self, m: int, steps: int, sample_every: int):
        grid = spectral_core.GridSpec(m)
        u0 = smoothing_diagnostics.make_rough_data(
            smoothing_diagnostics.RoughDataSpec(1.0, 0.05, 1), grid
        )
        cfg = ds_solver.SolverConfig(
            c1=1.0, c2=1.0, dt=0.01, t_end=steps * 0.01, delta=0.1,
            forcing=attractor_lab.make_forcing(grid, 0.05, 2),
            sample_every=sample_every,
        )
        return u0, cfg

    def spectral_and_solver(self) -> None:
        fft_ms = {}
        for m in FFT_SIZES:
            x = self.rng.standard_normal((m, m)) + 1j * self.rng.standard_normal((m, m))
            reps = self.reps(max(5, 3_000_000 // (m * m)))
            fft_ms[m] = 1e3 * self.t.repeat(f"numpy.fft2.m{m}", lambda: np.fft.fft2(x), reps)[0]
            self.put(f"spectral_core.fft2_ms.m{m}", fft_ms[m], "ms")

        grid = spectral_core.GridSpec(256)
        u0, cfg = self._solver_case(256, 2, 1)
        phys = spectral_core.to_physical(u0)
        calls = {
            "to_fourier": lambda: spectral_core.to_fourier(phys),
            "to_physical": lambda: spectral_core.to_physical(u0),
            "apply_K": lambda: spectral_core.apply_K(phys),
            "sobolev_norm": lambda: spectral_core.sobolev_norm(u0, 1.0),
            "free_evolve": lambda: spectral_core.free_evolve(u0, 0.5, 0.1),
        }
        for name, fn in calls.items():
            ms = 1e3 * self.t.repeat(f"spectral_core.{name}", fn, self.reps(10))[0]
            self.put(f"spectral_core.{name}_ms.m256", ms, "ms")
        ms = 1e3 * self.t.repeat(
            "ds_solver.energy_functional",
            lambda: ds_solver.energy_functional(u0, cfg.forcing, 1.0, 1.0),
            self.reps(10),
        )[0]
        self.put("ds_solver.energy_functional_ms.m256", ms, "ms")
        ms = 1e3 * self.t.repeat(
            "smoothing_diagnostics.make_rough_data",
            lambda: smoothing_diagnostics.make_rough_data(
                smoothing_diagnostics.RoughDataSpec(1.0, 0.05, 1), grid
            ),
            self.reps(10),
        )[0]
        self.put("smoothing_diagnostics.make_rough_data_ms.m256", ms, "ms")
        traj = ds_solver.evolve(u0, cfg)
        ms = 1e3 * self.t.repeat(
            "smoothing_diagnostics.nonlinear_part",
            lambda: smoothing_diagnostics.nonlinear_part(traj, traj.fields[0], 0.02),
            self.reps(10),
        )[0]
        self.put("smoothing_diagnostics.remainder_ms.m256", ms, "ms")

        # a step: evolve with only the end sample, per step
        steps = {64: 100, 128: 40, 256: 20, 512: 8}
        for m in FFT_SIZES:
            n = 2 if self.smoke else steps[m]
            u0, cfg = self._solver_case(m, n, n)
            seconds = self.t.repeat(f"ds_solver.evolve.sparse.m{m}", lambda: ds_solver.evolve(u0, cfg), self.reps(3))[0]
            self.put(f"ds_solver.step_ms.m{m}", 1e3 * seconds / n, "ms")
            self.put(f"ds_solver.step_fft_equiv.m{m}", 1e3 * seconds / n / fft_ms[m], "ratio")

        # per recorded sample: sample_every=1 against the end sample only
        for m, n in ((64, 50), (256, 20)):
            n = 4 if self.smoke else n
            u0, sparse = self._solver_case(m, n, n)
            _, dense = self._solver_case(m, n, 1)
            t_sparse = self.t.repeat(f"ds_solver.evolve.sparse.m{m}", lambda: ds_solver.evolve(u0, sparse), self.reps(3))[0]
            t_dense, traj = self.t.repeat(f"ds_solver.evolve.dense.m{m}", lambda: ds_solver.evolve(u0, dense), self.reps(3))
            extra = len(traj.times) - 2
            self.put(f"ds_solver.sample_ms.m{m}", 1e3 * (t_dense - t_sparse) / extra, "ms")
            arrays = [f.values for f in traj.fields] + [traj.times, traj.mass, traj.h1_norm, traj.energy]
            self.put(f"ds_solver.sample_bytes.m{m}", sum(a.nbytes for a in arrays) / len(traj.times), "bytes")

        # exact FFT counts: differences of two runs cancel the fixed part
        u0, c10 = self._solver_case(64, 10, 10)
        _, c20 = self._solver_case(64, 20, 20)
        _, d10 = self._solver_case(64, 10, 1)
        key = "fft_calls"
        n10 = _counted(self.t, key, lambda: ds_solver.evolve(u0, c10))
        n20 = _counted(self.t, key, lambda: ds_solver.evolve(u0, c20))
        dense10 = _counted(self.t, key, lambda: ds_solver.evolve(u0, d10))
        self.put("ds_solver.fft_calls_per_step", (n20 - n10) / 10, "count")
        self.put("ds_solver.fft_calls_per_sample", (dense10 - n10) / (11 - 2), "count")

    def ensemble(self) -> None:
        grid = spectral_core.GridSpec(64, 2.0 * np.pi)
        spec = smoothing_diagnostics.RoughDataSpec
        unit = spectral_core.sobolev_norm(smoothing_diagnostics.make_rough_data(spec(1.0, 1.0, 0), grid), 1.0)
        ens = attractor_lab.EnsembleConfig(
            grid=grid,
            members=[spec(1.0, float(h / unit), 10 + j) for j, h in enumerate(np.geomspace(0.5, 5.0, 8))],
            c1=1.0, c2=1.0, delta=0.2,
            forcing=attractor_lab.make_forcing(grid, 0.5, 1),
            horizon=0.1 if self.smoke else 1.0,
            dt=0.01, sample_every=2, probe_times=(0.1,),
        )
        times = {}
        for workers in (1, pool_workers()):
            times[workers], trajs = self.t.repeat(
                f"attractor_lab.run_ensemble.w{workers}",
                lambda: attractor_lab.run_ensemble(ens, workers=workers),
                self.reps(3),
            )
        w2 = times[pool_workers()]
        self.put("attractor_lab.run_ensemble_s.w1", times[1], "s")
        self.put("attractor_lab.run_ensemble_s.w2", w2, "s")
        self.put("attractor_lab.pool_speedup", times[1] / w2, "ratio")
        cfg = ens.solver_config()
        ms = 1e3 * self.t.repeat(
            "attractor_lab.energy_balance_residual",
            lambda: attractor_lab.energy_balance_residual(trajs[0], cfg),
            self.reps(3),
        )[0]
        self.put("attractor_lab.balance_audit_ms", ms, "ms")

    def blocks(self) -> None:
        lattice = blocks.BlockLattice()
        cases = (blocks.GENERIC,) if self.smoke else blocks.CASES
        specs = []
        with self.t.span("blocks.sample_block_specs") as record:
            with counting(self.t, blocks, ("block_multiplier",), "block_multiplier_calls"):
                for k, case in enumerate(cases):
                    specs.extend(blocks.sample_block_specs(case, 1, seed=k, lattice=lattice))
        probes = self.t.counts["block_multiplier_calls"]
        self.put("blocks.sample_s_per_spec", (record["end"] - record["start"]) / len(specs), "s")
        self.put("blocks.probe_hit_ratio", len(specs) / probes, "ratio")

        enum_s = labels_s = 0.0
        support = 0
        als = {1: 0.0, pool_workers(): 0.0}
        restarts, iters = (2, 10) if self.smoke else (6, 60)
        for k, spec in enumerate(specs):
            seconds, m = self.t.repeat("blocks.block_multiplier", lambda: blocks.block_multiplier(spec, lattice), 1)
            enum_s += seconds
            support += m.size
            labels_s += self.t.repeat(
                "multipliers.Gamma3Multiplier",
                lambda: multipliers.Gamma3Multiplier(m.points1, m.points2, m.points3, m.values),
                1,
            )[0]
            for workers in als:
                als[workers] += self.t.repeat(
                    f"multipliers.estimate_3Z_norm.w{workers}",
                    lambda: multipliers.estimate_3Z_norm(m, restarts=restarts, iters=iters, seed=k, workers=workers),
                    1,
                )[0]
        self.put("blocks.enumerate_ms_per_spec", 1e3 * enum_s / len(specs), "ms")
        self.put("blocks.support_points", support, "count")
        self.put("multipliers.labels_ms_per_spec", 1e3 * labels_s / len(specs), "ms")
        self.put("multipliers.als_ms_per_spec", 1e3 * als[1] / len(specs), "ms")
        self.put("multipliers.als_pool_speedup", als[1] / als[pool_workers()], "ratio")

    def knapp(self) -> None:
        grid = knapp.knapp_grid(64)
        s, a, b = 0.6, 0.3, 0.51
        seconds, (u, v, w) = self.t.repeat(
            "knapp.knapp_triple", lambda: knapp.knapp_triple(knapp.KnappConfig(64, s, a, b), grid), 1
        )
        self.put("knapp.triple_ms", 1e3 * seconds, "ms")
        ms = 1e3 * self.t.repeat("spacetime.xsb_norm", lambda: spacetime.xsb_norm(u, s, b), self.reps(3))[0]
        self.put("spacetime.xsb_norm_ms", ms, "ms")
        seconds, out = self.t.repeat(
            "knapp.trilinear_output_spectrum.n64",
            lambda: knapp.trilinear_output_spectrum(u, v, w, 1.0, 1.0),
            1,
        )
        self.put("knapp.output_spectrum_s.n64", seconds, "s")
        ms = 1e3 * self.t.repeat("knapp.output_ratio", lambda: knapp.output_ratio(out, s, a, b), self.reps(3))[0]
        self.put("knapp.output_ratio_ms", ms, "ms")
        del out
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with self.t.span("knapp.trilinear_output_spectrum.tracemalloc"):
                out = knapp.trilinear_output_spectrum(u, v, w, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        self.put("knapp.peak_alloc_mb", peak / 2**20, "MB")
        del out, u, v, w
        u, v, w = knapp.knapp_triple(knapp.KnappConfig(8, s, a, b), grid)
        seconds = self.t.repeat(
            "knapp.trilinear_output_spectrum.n8",
            lambda: knapp.trilinear_output_spectrum(u, v, w, 1.0, 1.0),
            1,
        )[0]
        self.put("knapp.output_spectrum_s.n8", seconds, "s")

    def cli(self, config_path: str, env: dict) -> None:
        code = "import time; t = time.perf_counter(); import dslab.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(self.reps(5)):
            with self.t.span("cli.import.subprocess"):
                out = subprocess.run(
                    [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
                )
            times.append(float(out.stdout.strip().splitlines()[-1]))
        self.put("cli.import_s", statistics.median(times), "s")
        ms = 1e3 * self.t.repeat("cli.load_config", lambda: cli.load_config(config_path), self.reps(200))[0]
        self.put("cli.config_ms", ms, "ms")


# --------------------------------------------------------------- the run


def traced_run(runner) -> tuple[list, dict, dict]:
    """Untraced and traced invocation of the workload, then every probe."""
    if not os.path.abspath(dslab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"dslab imported from {dslab.__file__}, not from {SRC}")
    tracer = Tracer()
    runner.warm_up()
    records = [runner.invoke()]

    out = runner.out_dir()
    with tracer.span(f"cli.main.{runner.wl.command}") as record:
        with fft_counting(tracer, "workload.fft_calls"):
            with counting(tracer, blocks, ("block_multiplier",), "workload.block_multiplier_calls"):
                exit_code = cli.main(runner.cli_args(out))
    traced = {"wall_s": record["end"] - record["start"], "exit_code": exit_code, "traced": True}
    traced["problems"] = [f"exit code {exit_code}"] if exit_code != 0 else runner.finish(out)["problems"]
    records.append(traced)

    probes = Probes(tracer, runner.smoke)
    with tracer.span("probes.spectral_core+ds_solver+smoothing_diagnostics"):
        probes.spectral_and_solver()
    with tracer.span("probes.attractor_lab"):
        probes.ensemble()
    with tracer.span("probes.blocks+multipliers"):
        probes.blocks()
    with tracer.span("probes.knapp+spacetime"):
        probes.knapp()
    with tracer.span("probes.cli"):
        probes.cli(runner.config_path, runner.env)
    if not wrappers_restored():
        traced["problems"].append("counting wrappers were not restored")

    metrics = dict(sorted(probes.metrics.items()))
    if not records[0]["problems"]:
        metrics["trace.overhead_ratio"] = {"value": traced["wall_s"] / records[0]["inner_s"], "unit": "ratio"}
    return records, metrics, {"trace_record": tracer.payload()}
