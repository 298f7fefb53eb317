"""Exit codes, manifests, and byte-level determinism of the command line."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dslab.cli
from dslab import smoothing_diagnostics
from dslab.cli import ConfigError, main, parse_config, serialize_config
from dslab.ds_solver import evolve, sample_stream

SIM_CONFIG = """
[run]
seed = 7

[simulate]
modes = 32
domain_length = 6.283185307179586
s = 1.0
amplitude = 0.3
dt = 0.01
t_end = 1.0
sample_every = 10
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def output_files(out_dir):
    return sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []


def read_manifest(out_dir):
    files = sorted(p.name for p in out_dir.iterdir() if p.name == "manifest.json")
    assert files == ["manifest.json"]
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def refuse_call(*args, **kwargs):
    raise AssertionError("called before the config was checked")


class TestConfigText:
    def test_parse_sections_and_values(self):
        cfg = parse_config("[a]\nx = 1\ny = two words\n\n[b]\nz = 3.5\n")
        assert cfg == {"a": {"x": "1", "y": "two words"}, "b": {"z": "3.5"}}

    def test_serialize_parse_idempotent(self):
        text = "[a]\n# comment\nx = 1\n\n[b]\nz = 3.5\n"
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice
        assert parse_config(once) == parse_config(text)

    def test_malformed_config_raises(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("key_without_section = 1\n")

    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ini")
        code = main(["simulate", "--config", missing, "--out", str(tmp_path / "o")])
        assert code == 2
        assert missing in capsys.readouterr().err


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        csv1 = (out1 / "simulate.csv").read_bytes()
        assert csv1 == (out2 / "simulate.csv").read_bytes()
        m1, m2 = read_manifest(out1), read_manifest(out2)
        assert m1["content_hash"] == m2["content_hash"]

    def test_content_hash_is_the_sha256_of_the_inputs(self):
        # the digest comes from CPython's built-in module, not hashlib, and
        # must keep hashlib's bytes so that manifests keep their hashes
        sections = parse_config(SIM_CONFIG)
        text = f"dslab {dslab.__version__}\ncommand simulate\n" + serialize_config(sections)
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert dslab.cli._content_hash("simulate", sections) == expected

    def test_run_does_not_load_openssl(self, tmp_path):
        # a fresh interpreter, since pytest itself may have imported hashlib
        cfg = write_config(tmp_path, SIM_CONFIG)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        script = (
            "import sys\nfrom dslab.cli import main\n"
            f"code = main({argv!r})\nprint(code, '_hashlib' in sys.modules)\n"
        )
        src = str(pathlib.Path(dslab.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.stdout.split() == ["0", "False"], run.stderr

    def test_workload_grid_rss_above_a_bare_import(self, tmp_path):
        # ru_maxrss sees what tracemalloc cannot: allocator layout and the
        # pages numpy touches.  The benchmark's simulate grid and drive
        # (M = 256, damped, forced) measured 12.2 to 12.4 MB above a bare
        # import of the command line and the modules simulate runs; 16.0 to
        # 16.2 MB while the step returned a fresh field, the recorder had its
        # own density kernel and the gauge phase its own buffer.  The
        # baseline imports those modules because the command line alone no
        # longer does: above it, the run also counts its code (about 1.1 MB)
        text = (
            "[simulate]\nmodes = 256\namplitude = 0.05\ns = 1.0\ndt = 0.01\nt_end = 0.2\n"
            "delta = 0.1\nforcing_amplitude = 0.05\nsample_every = 100\n"
        )
        cfg = write_config(tmp_path, text)
        src = str(pathlib.Path(dslab.cli.__file__).parents[1])
        # one BLAS thread, as the benchmark pins it: thread buffers count too
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

        # each run is started by a small launcher: a child forked from this
        # process would report at least this process's own peak RSS
        launcher = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )

        def peak_mb(*args) -> float:
            argv = [sys.executable, "-c", launcher, *args]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            code, kib = done.stdout.split()
            assert code == "0", done.stderr
            return int(kib) / 1024.0  # ru_maxrss is in KiB on Linux

        run = peak_mb("-m", "dslab.cli", "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        bare = peak_mb("-c", "import dslab.cli, dslab.ds_solver, dslab.smoothing_diagnostics")
        assert run - bare < 13.0

    def test_workload_grid_peaks_below_eleven_fields(self, tmp_path, traced_peak):
        # the benchmark's simulate grid and drive (M = 256, damped, forced);
        # the peak does not depend on the step count.  It is about 10.3
        # fields, 6 of them the step kernel's; it was 13.8 while the step
        # returned a fresh field and the recorder had its own density kernel
        text = (
            "[simulate]\nmodes = 256\namplitude = 0.05\ns = 1.0\ndt = 0.01\nt_end = 0.2\n"
            "delta = 0.1\nforcing_amplitude = 0.05\nsample_every = 100\n"
        )
        argv = ["simulate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")]
        _, peak, code = traced_peak(lambda: main(argv))
        field = 256 * 256 * np.dtype(np.complex128).itemsize
        assert code == 0 and peak < 11 * field

    def test_manifest_declares_row_count_and_steps(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert output_files(out) == ["manifest.json", "simulate.csv"]
        manifest = read_manifest(out)
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["step_count"] == 100
        (entry,) = manifest["outputs"]
        lines = (out / entry["path"]).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,mass,h1,energy"
        assert len(lines) - 1 == entry["rows"] == 11
        # '.' decimal markers, no locale artifacts
        assert "," not in lines[1].replace(",", "", 3)

    def test_csv_cells_are_evolves_series_bit_for_bit(self, tmp_path, monkeypatch):
        # forced and dealiased: the forcing term sits outside the 2/3 mask
        text = SIM_CONFIG + "delta = 0.1\nforcing_amplitude = 0.2\ndealias = true\n"
        runs = []

        def seen(u0, cfg):
            runs.append((u0, cfg))
            return sample_stream(u0, cfg)

        monkeypatch.setattr("dslab.ds_solver.sample_stream", seen)
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        ((u0, cfg),) = runs
        assert cfg.forcing is not None and cfg.dealias
        traj = evolve(u0, cfg)
        lines = (out / "simulate.csv").read_text(encoding="utf-8").splitlines()[1:]
        cells = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        expected = np.array([traj.times, traj.mass, traj.h1_norm, traj.energy]).T
        assert cells.shape == expected.shape and np.array_equal(cells, expected)

    def test_peak_memory_does_not_grow_with_the_sample_count(self, tmp_path, traced_peak):
        # M = 64, 101 samples against 2: keeping every sampled field would
        # add 101 x 64 KiB
        def peak(every: int) -> int:
            text = (
                "[simulate]\nmodes = 64\namplitude = 0.1\ndt = 0.01\nt_end = 1\n"
                f"delta = 0.1\nforcing_amplitude = 0.05\nsample_every = {every}\n"
            )
            cfg = write_config(tmp_path, text, name=f"every{every}.ini")
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / str(every))]
            _, peak_bytes, code = traced_peak(lambda: main(argv))
            assert code == 0
            return peak_bytes

        sparse = peak(100)  # first, so it also carries any one-time cost
        dense = peak(1)
        field = 64 * 64 * np.dtype(np.complex128).itemsize
        assert dense < sparse + 8 * field

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        m1, m2 = read_manifest(out1), read_manifest(out2)
        assert m2["seed"] == 99
        assert m1["content_hash"] != m2["content_hash"]
        assert (out1 / "simulate.csv").read_bytes() != (out2 / "simulate.csv").read_bytes()

    def test_zero_datum_runs_with_zero_diagnostics(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[simulate]\nmodes = 16\namplitude = 0.0\ndt = 0.05\nt_end = 0.5\n",
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "simulate.csv").read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            _, mass, h1, energy = row.split(",")
            assert float(mass) == 0.0 and float(h1) == 0.0 and float(energy) == 0.0

    @pytest.mark.parametrize(
        "amplitude,message",
        [
            # a finite state whose energy overflows: every row used to be
            # written with inf and the run exited 0
            ("1e100", "non-finite recorded values at t = 0\n"),
            ("1e150", "non-finite recorded values at t = 0\n"),
            # the state itself overflows: the stream's IntegrationAbort
            ("1e200", "non-finite values at step 1 (t = 0.1)\n"),
        ],
        ids=["1e100", "1e150", "1e200"],
    )
    def test_non_finite_state_exits_three(self, amplitude, message, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            f"[simulate]\nmodes = 16\namplitude = {amplitude}\ndt = 0.1\nt_end = 0.5\n",
        )
        with warnings.catch_warnings():
            # the abort is the one report: 1e200 used to print six numpy warnings first
            warnings.simplefilter("error")
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        # both reach main's FloatingPointError clause, as one line
        assert capsys.readouterr().err == f"numerical abort: {message}"
        assert output_files(tmp_path / "o") == []

    @pytest.mark.parametrize(
        "constants", ["c1 = nan", "c1 = inf", "c2 = nan\ndelta = 0.1", "c2 = -inf"]
    )
    def test_non_finite_constant_exits_two_before_stepping(
        self, constants, tmp_path, capsys, monkeypatch
    ):
        # these used to step and abort with exit 3 at step 1 or 2
        monkeypatch.setattr("dslab.ds_solver.sample_stream", refuse_call)
        text = f"[simulate]\nmodes = 16\namplitude = 0.1\ndt = 0.01\nt_end = 0.1\n{constants}\n"
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert f"{constants[:2]} must be finite" in capsys.readouterr().err
        assert output_files(out) == []

    def test_bad_value_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "[simulate]\nmodes = 16\namplitude = lots\ndt = 0.01\nt_end = 1\n"
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "amplitude" in capsys.readouterr().err


class TestConfigKeys:
    def test_unknown_command_key_exits_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG + "delat = 0.1\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "delat" in capsys.readouterr().err
        assert output_files(out) == []

    # each command with the library calls that do its work, all after the
    # key check, named where they are defined
    SOLVERS = {
        "simulate": (
            "[simulate]\namplitude = 0.1\ndt = 0.01\nt_end = 1\n",
            ["dslab.ds_solver.sample_stream"],
        ),
        "smoothing": (
            "[smoothing]\namplitude = 0.1\n",
            ["dslab.smoothing_diagnostics.refinement_study"],
        ),
        "knapp": (
            "[knapp]\n",
            ["dslab.xsb_analysis.knapp.knapp_grid", "dslab.xsb_analysis.knapp.knapp_sweep"],
        ),
        "blocks": (
            "[blocks]\n",
            ["dslab.xsb_analysis.blocks.sample_block_specs", "dslab.xsb_analysis.blocks.check_block_bounds"],
        ),
        "attractor": (
            "[attractor]\nmodes = 16\ndelta = 0.1\n",
            ["dslab.attractor_lab.absorbing_experiment", "dslab.attractor_lab.compactness_probe"],
        ),
    }

    @pytest.mark.parametrize("command", sorted(SOLVERS))
    def test_command_refuses_unknown_key_before_solving(
        self, command, tmp_path, capsys, monkeypatch
    ):
        section, solvers = self.SOLVERS[command]

        for target in solvers:
            monkeypatch.setattr(target, refuse_call)
        cfg = write_config(tmp_path, section + "delat = 0.1\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys: delat" in capsys.readouterr().err

    def test_unknown_run_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG.replace("seed = 7", "seed = 7\nsede = 8"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sede" in capsys.readouterr().err

    def test_foreign_section_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG + "\n[knapp]\nn_values = 4,8,16,32\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "[knapp]" in capsys.readouterr().err

    def test_keys_read_whatever_other_values_say(self, tmp_path):
        # forcing_smoothness counts as read without a drive
        cfg = write_config(tmp_path, SIM_CONFIG + "forcing_amplitude = 0\nforcing_smoothness = 2\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert output_files(out) == ["manifest.json", "simulate.csv"]

    def test_run_threads_key_exits_two(self, tmp_path, capsys):
        # every command runs on one thread, so [run] holds only seed
        cfg = write_config(tmp_path, SIM_CONFIG.replace("seed = 7", "seed = 7\nthreads = 2"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "[run] has unknown keys: threads" in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize(
        "command,keys",
        [
            ("simulate", "amplitude = nan"),
            ("simulate", "amplitude = inf"),
            ("simulate", "amplitude = 0.1\nforcing_amplitude = nan\ndelta = 0.1"),
            ("simulate", "amplitude = 0.1\nforcing_amplitude = inf\ndelta = 0.1"),
            ("attractor", "member_count = 2\nh1_min = nan\ndelta = 0.2\nhorizon = 0.1\nprobes = 0.1"),
            ("attractor", "member_count = 2\nforcing_amplitude = inf\ndelta = 0.2\nhorizon = 0.1\nprobes = 0.1"),
        ],
    )
    def test_non_finite_amplitude_exits_two(self, command, keys, tmp_path, capsys):
        # NaN forcing used to run unforced with exit 0, the others to abort
        # with exit 3 at step 0; a forcing amplitude is refused by its key
        run_length = "t_end = 0.1\n" if command == "simulate" else ""
        text = f"[{command}]\nmodes = 16\ndt = 0.01\nsample_every = 1\n{run_length}{keys}\n"
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        if "forcing_amplitude" in keys:
            message = f"[{command}] forcing_amplitude must be finite, got "
        else:
            message = "amplitude must be finite and nonnegative"
        assert message in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize(
        "command,keys,named",
        [
            ("simulate", "s = {}", "s"),
            ("simulate", "delta = 0.1\nforcing_amplitude = 0.1\nforcing_smoothness = {}", "forcing_smoothness"),
            ("attractor", "member_s = {}", "member_s"),
            ("attractor", "forcing_amplitude = 0.1\nforcing_smoothness = {}", "forcing_smoothness"),
        ],
    )
    @pytest.mark.parametrize("value", ["inf", "0.3"])
    def test_data_exponent_outside_its_range_exits_two(
        self, command, keys, named, value, tmp_path, capsys
    ):
        # an infinite exponent left the zero mode alone ([simulate] s = inf
        # ran a single-mode datum to exit 0), and RoughDataSpec's refusal
        # named an 's' that [attractor] does not hold
        run_length = (
            "amplitude = 0.1\nt_end = 0.1\n"
            if command == "simulate"
            else "member_count = 2\ndelta = 0.2\nhorizon = 0.1\nprobes = 0.1\n"
        )
        text = f"[{command}]\nmodes = 16\ndt = 0.01\n{run_length}{keys.format(value)}\n"
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        message = f"error: [{command}] {named} must be finite and exceed 1/2, got {value}\n"
        assert capsys.readouterr().err == message
        assert output_files(out) == []

    @pytest.mark.parametrize(
        "command,keys",
        [
            ("simulate", "amplitude = 0.1\nt_end = 0.1\ns = 0.3"),
            ("simulate", "amplitude = 0.1\nt_end = 0.1\ndelta = 0.1\nforcing_amplitude = 0.1\nforcing_smoothness = 0.2"),
            ("attractor", "member_s = 0.3"),
            ("attractor", "delta = 0.2\nforcing_amplitude = 0.1\nforcing_smoothness = 0.2"),
        ],
    )
    def test_unknown_key_is_refused_before_any_field_is_built(
        self, command, keys, tmp_path, capsys, monkeypatch
    ):
        # the attractor's reference datum used to be built, and its exponent
        # refused, before the unknown key was looked for
        monkeypatch.setattr("dslab.smoothing_diagnostics.make_rough_data", refuse_call)
        monkeypatch.setattr("dslab.smoothing_diagnostics.make_forcing", refuse_call)
        text = f"[{command}]\nmodes = 16\ndt = 0.01\n{keys}\nbogus_key = 1\n"
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [{command}] has unknown keys: bogus_key\n"
        assert output_files(out) == []

    @pytest.mark.parametrize(
        "command,keys,named",
        [
            ("simulate", "dt = 0.01\nt_end = 0.1\ndomain_length = inf", "domain_length"),
            ("simulate", "dt = 0.01\nt_end = 0.1\ndomain_length = 1e400", "domain_length"),
            ("simulate", "dt = 0.01\nt_end = 0.1\nmodes = 1", "modes_per_axis"),
            (
                "attractor",
                "member_count = 2\ndelta = 0.2\nhorizon = 0.1\nprobes = 0.1\ndomain_length = inf",
                "domain_length",
            ),
            ("smoothing", "modes = 16, 32, 64\ns = 1.4\nt_probe = 0.1\ndomain_length = inf", "domain_length"),
        ],
        ids=["simulate-inf", "simulate-1e400", "simulate-one-mode", "attractor-inf", "smoothing-inf"],
    )
    def test_grid_outside_its_range_exits_two(self, command, keys, named, tmp_path, capsys):
        # an infinite side used to build the grid and abort with exit 3 at
        # the first step, and one mode per axis to run to exit 0
        text = f"[{command}]\namplitude = 0.1\n{keys}\n"
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert output_files(out) == []


class TestSmoothing:
    def test_exploratory_range_warns_but_succeeds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 16,32,64\ns = 0.6\na = 0.45\namplitude = 0.01\n"
            "t_probe = 0.5\ndt = 0.05\ndomain_length = 6.283185307179586\n",
        )
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="exploratory"):
            assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["details"]["exploratory"] is True
        (entry,) = manifest["outputs"]
        lines = (out / entry["path"]).read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == entry["rows"] == 3

    def test_warning_prints_as_one_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 16,32,64\ns = 0.6\na = 0.45\namplitude = 0.01\n"
            "t_probe = 0.5\ndt = 0.05\n",
        )
        src = str(pathlib.Path(dslab.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["-m", "dslab.cli", "smoothing", "--config", cfg, "--out", str(tmp_path / "o")]
        run = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stderr.startswith("warning: a = 0.45 is at or above")
        assert len(run.stderr.splitlines()) == 1
        assert "cli.py" not in run.stderr

    def test_covered_range_is_not_flagged(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 16,32,64\ns = 1.4\na = 0.3\namplitude = 0.01\n"
            "t_probe = 0.5\ndt = 0.05\ndomain_length = 6.283185307179586\n",
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 0
        assert read_manifest(out)["details"]["exploratory"] is False

    def test_zero_amplitude_writes_no_slopes(self, tmp_path):
        # every norm is zero, so no column has a log-log fit; a slope of 0.0
        # would read as perfect grid convergence
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 16,32,64\ns = 1.4\na = 0.3\namplitude = 0\n"
            "t_probe = 0.5\ndt = 0.05\ndomain_length = 6.283185307179586\n",
        )
        out = tmp_path / "o"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 0
        details = read_manifest(out)["details"]
        for key in ("linear_slope", "nonlinear_slope", "gauged_slope"):
            assert details[key] is None

    def test_sample_every_is_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        # the study reads one state per grid at t_probe, so there is no
        # sample spacing to set: the key is unknown, not silently ignored
        monkeypatch.setattr("dslab.smoothing_diagnostics.refinement_study", refuse_call)
        cfg = write_config(tmp_path, "[smoothing]\namplitude = 0.01\nsample_every = 10\n")
        out = tmp_path / "o"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown keys: sample_every" in capsys.readouterr().err
        assert output_files(out) == []

    def test_one_advance_per_grid(self, tmp_path, monkeypatch):
        # the manifest counts every step; the study takes them in one advance
        seen = []
        original = smoothing_diagnostics.refinement_study

        def spy(spec, resolutions, s, a, cfg, **kwargs):
            seen.append(cfg.sample_every)
            return original(spec, resolutions, s, a, cfg, **kwargs)

        monkeypatch.setattr("dslab.smoothing_diagnostics.refinement_study", spy)
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 16,32,64\ns = 1.4\na = 0.3\namplitude = 0.01\n"
            "t_probe = 0.5\ndt = 0.025\ndomain_length = 6.283185307179586\n",
        )
        out = tmp_path / "o"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 0
        assert seen == [20]
        assert read_manifest(out)["step_count"] == 3 * 20

    def test_off_grid_probe_time_exits_two_before_the_first_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dslab.smoothing_diagnostics.refinement_study", refuse_call)
        cfg = write_config(
            tmp_path, "[smoothing]\nmodes = 16,32,64\ns = 1.4\namplitude = 0.01\nt_probe = 0.51\ndt = 0.025\n"
        )
        out = tmp_path / "o"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 2
        assert "t_end must be an integer multiple of dt" in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize(
        "keys,message",
        [
            ("a = nan", "[smoothing] a must be finite, got nan"),
            ("a = inf", "[smoothing] a must be finite, got inf"),
            ("s = inf", "[smoothing] s must be finite and exceed 1/2, got inf"),
        ],
    )
    def test_non_finite_exponent_exits_two_before_the_first_grid(
        self, keys, message, tmp_path, capsys, monkeypatch
    ):
        # each ran to exit 0 with an all-nan smoothing.csv and null slopes
        monkeypatch.setattr("dslab.smoothing_diagnostics.refinement_study", refuse_call)
        cfg = write_config(
            tmp_path, f"[smoothing]\nmodes = 16,32,64\namplitude = 0.01\nt_probe = 0.5\n{keys}\n"
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the exploratory warning
            assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert output_files(out) == []

    def test_repeated_modes_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[smoothing]\nmodes = 32,32,32\ns = 1.4\na = 0.3\namplitude = 0.01\n"
            "t_probe = 0.5\ndt = 0.05\ndomain_length = 6.283185307179586\n",
        )
        out = tmp_path / "o"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()


class TestKnapp:
    def test_sweep_writes_ratio_table(self, tmp_path):
        cfg = write_config(
            tmp_path, "[knapp]\nn_values = 4,8,16,32\ntime_samples = 16\na = 0.3\n"
        )
        out = tmp_path / "o"
        assert main(["knapp", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert set(manifest["details"]) == {"ratio_slope", "u_slope", "v_slope"}
        (entry,) = manifest["outputs"]
        lines = (out / entry["path"]).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,u_norm,v_norm,ratio"
        assert len(lines) - 1 == entry["rows"] == 4

    def test_unrepresentable_box_names_the_inequality(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[knapp]\nn_values = 8,16,32,64\ngrid_n = 8\n")
        assert main(["knapp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "1/N" in err and "dxi" in err

    @pytest.mark.parametrize("value", ["0", "-8"])
    def test_grid_n_below_one_exits_two_naming_it(self, value, tmp_path, capsys, monkeypatch):
        # 0 used to be refused as modes_per_axis, after the ladder check
        monkeypatch.setattr("dslab.xsb_analysis.knapp.knapp_grid", refuse_call)
        cfg = write_config(tmp_path, f"[knapp]\ngrid_n = {value}\n")
        out = tmp_path / "o"
        assert main(["knapp", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [knapp] grid_n must be >= 1, got {value}\n"
        assert output_files(out) == []

    def test_repeated_n_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[knapp]\nn_values = 8,8,8,8\n")
        out = tmp_path / "o"
        assert main(["knapp", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("n_values = 8, 16, 32, inf", "N values must be finite"),
            ("n_values = nan, 16, 32, 64", "N values must be finite"),
            ("s = nan", "s must be finite"),
            ("a = inf", "a must be finite"),
            ("b = -inf", "b must be finite"),
            ("c1 = inf", "c1 must be finite"),
            ("c2 = nan", "c2 must be finite"),
        ],
    )
    def test_non_finite_input_exits_two_before_any_transform(
        self, line, message, tmp_path, capsys, monkeypatch
    ):
        # an infinite N overflowed with a traceback (exit 1), a non-finite
        # exponent ran the whole sweep before the slope fit failed, and a
        # NaN c2 failed only after the transforms
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse_call)
        cfg = write_config(tmp_path, f"[knapp]\n{line}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["knapp", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize("coupling", ["1e150", "1e200", "1e308"])
    def test_overflowing_ladder_is_a_numerical_abort(self, coupling, tmp_path, capsys):
        # finite inputs whose ratio (1e150) or output spectrum (1e308)
        # overflows are a numerical fault, not a config error; 1e308 used to
        # print three numpy warnings and abort without naming the N
        cfg = write_config(tmp_path, f"[knapp]\nc1 = {coupling}\nc2 = {coupling}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["knapp", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: N = 8: ")
        assert len(err.splitlines()) == 1
        assert output_files(out) == []

    def test_table_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the output block is a matrix product, so BLAS runs it; the ladder
        # of the benchmark's knapp workload (M = 512) must not move with the
        # thread count BLAS is given
        cfg = write_config(tmp_path, "[knapp]\nn_values = 8, 16, 32, 64\ngrid_n = 64\n")
        src = str(pathlib.Path(dslab.cli.__file__).parents[1])
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"o{threads}"
            argv = ["-m", "dslab.cli", "knapp", "--config", cfg, "--out", str(out)]
            subprocess.run([sys.executable, *argv], env=env, check=True)
            tables.append((out / "knapp.csv").read_bytes())
        assert tables[0] == tables[1]


class TestAttractor:
    ATTR = (
        "[run]\nseed = 3\n\n[attractor]\nmodes = 32\nmember_count = 2\n"
        "delta = 0.4\nforcing_amplitude = 0.1\nhorizon = 6.0\ndt = 0.01\n"
        "sample_every = 10\nprobes = 3,6\nh1_min = 0.5\nh1_max = 1.5\n"
    )

    def test_absorbing_outputs_and_thread_invariance(self, tmp_path):
        cfg = write_config(tmp_path, self.ATTR)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["attractor", "--config", cfg, "--out", str(out1)]) == 0
        assert main(
            ["attractor", "--config", cfg, "--out", str(out2), "--threads", "2"]
        ) == 0
        assert (out1 / "attractor.csv").read_bytes() == (out2 / "attractor.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        manifest = read_manifest(out1)
        csv_entry, json_entry = manifest["outputs"]
        lines = (out1 / csv_entry["path"]).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,h1_0,h1_1"
        assert len(lines) - 1 == csv_entry["rows"] == 61
        summary = json.loads((out1 / json_entry["path"]).read_text(encoding="utf-8"))
        assert {"a", "delta", "forcing_l2", "fit_radius", "absorbed"} <= set(summary)
        assert manifest["step_count"] == 2 * 600  # members x steps to horizon 6.0

    def test_compactness_experiment(self, tmp_path):
        cfg = write_config(tmp_path, self.ATTR + "experiment = compactness\n")
        out = tmp_path / "o"
        assert main(["attractor", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert set(summary["pairwise_h1_median"]) == {"3.0", "6.0"}
        lines = (out / "attractor.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "member,remainder_h1a,free_h1a"
        assert len(lines) - 1 == 2

    def test_one_member_compactness_writes_null_pairwise_medians(self, tmp_path):
        # one member has no pairs: the median was NaN, which is not JSON,
        # and the run printed two numpy warnings
        text = self.ATTR.replace("member_count = 2", "member_count = 1")
        cfg = write_config(tmp_path, text + "experiment = compactness\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["attractor", "--config", cfg, "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"summary.json holds {name}")

        text = (out / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=refuse)
        assert summary["pairwise_h1_median"] == {"3.0": None, "6.0": None}

    @pytest.mark.parametrize("experiment", ["absorbing", "compactness"])
    def test_unaudited_run_writes_null_residual_and_warns(self, tmp_path, experiment):
        # samples every 0.2 > 10 * dt: too sparse for the balance audit
        text = self.ATTR.replace("sample_every = 10", "sample_every = 20")
        cfg = write_config(tmp_path, text + f"experiment = {experiment}\n")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="max_balance_residual is null"):
            assert main(["attractor", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["max_balance_residual"] is None

    @pytest.mark.parametrize("experiment", ["absorbing", "compactness"])
    def test_non_finite_balance_residual_exits_three(self, tmp_path, capsys, experiment):
        # the energy of an H^1 ~ 1e80 member overflows: a numerical abort,
        # not a config error
        text = (
            "[attractor]\nmodes = 16\nmember_count = 1\nh1_min = 1e80\nh1_max = 1e81\n"
            "delta = 0.2\nhorizon = 0.1\ndt = 0.01\nsample_every = 1\nprobes = 0.1\n"
            f"experiment = {experiment}\n"
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the overflow is the point
            assert main(["attractor", "--config", write_config(tmp_path, text), "--out", str(out)]) == 3
        assert "numerical abort: residual series must be finite" in capsys.readouterr().err
        assert output_files(out) == []

    def test_audited_compactness_run_reports_its_residual(self, tmp_path):
        cfg = write_config(tmp_path, self.ATTR + "experiment = compactness\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["attractor", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert 0.0 < summary["max_balance_residual"] < 1e-2

    def test_abort_names_the_failing_member(self, tmp_path, capsys):
        text = self.ATTR.replace("h1_max = 1.5", "h1_max = 1e200")
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the overflow on the way down is the point
            code = main(["attractor", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "in member 1" in capsys.readouterr().err
        assert output_files(tmp_path / "o") == []

    def test_off_schedule_probes_exit_two_only_where_probed(self, tmp_path, capsys):
        # samples every 0.1; the compactness probe reads the states at the
        # probe times, the absorbing fit does not
        text = self.ATTR.replace("probes = 3,6", "probes = 3.05,6")
        out = tmp_path / "compact"
        cfg = write_config(tmp_path, text + "experiment = compactness\n", "c.ini")
        assert main(["attractor", "--config", cfg, "--out", str(out)]) == 2
        assert "nearest: 3" in capsys.readouterr().err
        assert output_files(out) == []
        cfg = write_config(tmp_path, text + "experiment = absorbing\n", "a.ini")
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "absorb")]) == 0

    def test_zero_delta_exits_two_with_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.ATTR.replace("delta = 0.4", "delta = 0.0"))
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dissipative mode requires delta > 0" in capsys.readouterr().err

    def test_unknown_experiment_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.ATTR + "experiment = sideways\n")
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sideways" in capsys.readouterr().err

    def test_zero_member_count_exits_two_before_solving(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dslab.smoothing_diagnostics.make_rough_data", refuse_call)
        cfg = write_config(tmp_path, self.ATTR.replace("member_count = 2", "member_count = 0"))
        out = tmp_path / "o"
        assert main(["attractor", "--config", cfg, "--out", str(out)]) == 2
        assert "member_count must be >= 1, got 0" in capsys.readouterr().err
        assert output_files(out) == []


class TestBlocks:
    def test_sampled_sweep_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nseed = 5\n\n[blocks]\ncases = plus_plus_plus,coherent\n"
            "per_case = 1\nrestarts = 1\niters = 10\n",
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["blocks", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["blocks", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()
        manifest = read_manifest(out1)
        assert {"c_star", "c_fit"} <= set(manifest["details"])
        (entry,) = manifest["outputs"]
        lines = (out1 / entry["path"]).read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == entry["rows"] == 2
        assert lines[1].startswith("plus_plus_plus,") and lines[2].startswith("coherent,")

    def test_workload_sweep_peak_memory(self, tmp_path, traced_peak):
        # the blocks benchmark workload: its largest block, 43 440 rows,
        # makes a 4.3 MiB multiplier, and its ALS gathers add about 2.8 MiB
        cfg = write_config(
            tmp_path,
            "[blocks]\ncases = plus_plus_plus, high_parallel, coherent, generic\n"
            "per_case = 1\n",
        )
        argv = ["blocks", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "0"]
        np.random.default_rng  # the sampler's first call imports numpy.random, 0.8 MiB
        _, peak, code = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= 7.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("key", ["per_case", "restarts", "iters"])
    def test_zero_count_exits_two_before_sampling(self, key, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dslab.xsb_analysis.blocks.sample_block_specs", refuse_call)
        cfg = write_config(tmp_path, f"[blocks]\ncases = generic\n{key} = 0\n")
        out = tmp_path / "o"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 2
        assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize("cases", ["generic, no_such_case", ","])
    def test_unknown_case_exits_two_before_sampling(self, cases, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dslab.xsb_analysis.blocks.sample_block_specs", refuse_call)
        cfg = write_config(tmp_path, f"[blocks]\ncases = {cases}\nper_case = 1\n")
        out = tmp_path / "o"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 2
        assert f"got '{cases.strip(',')}'" in capsys.readouterr().err
        assert output_files(out) == []

    @pytest.mark.parametrize("key,value", [("xi_step", "nan"), ("tau_step", "inf")])
    def test_non_finite_lattice_step_exits_two_naming_it(self, key, value, tmp_path, capsys, monkeypatch):
        # these used to fail with "cannot convert float NaN to integer", and
        # inf also with a RuntimeWarning
        monkeypatch.setattr("dslab.xsb_analysis.blocks.sample_block_specs", refuse_call)
        cfg = write_config(tmp_path, f"[blocks]\ncases = generic\n{key} = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["blocks", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be positive and finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_support_below_one_exits_two_before_sampling(
        self, value, tmp_path, capsys, monkeypatch
    ):
        # -5 used to probe 200 candidates, then name the cap min(-5, 60000)
        monkeypatch.setattr("dslab.xsb_analysis.blocks.sample_block_specs", refuse_call)
        cfg = write_config(tmp_path, f"[blocks]\ncases = generic\nmax_support = {value}\n")
        out = tmp_path / "o"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [blocks] max_support must be >= 1, got {value}\n"
        assert output_files(out) == []

    def test_too_small_max_support_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[blocks]\ncases = generic\nper_case = 1\nmax_support = 10\n")
        assert main(["blocks", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "max_support" in capsys.readouterr().err
