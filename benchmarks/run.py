"""dslab benchmark: end-to-end runs of the CLI and a traced per-layer run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload simulate --seed 3 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table each
    python3 benchmarks/run.py --workload all --trace 1  # every per-layer metric

With ``--trace 0`` the benchmark runs ``dslab <command>`` as a subprocess,
one invocation after another (closed loop, one at a time) until the next
one would overrun ``--seconds``, checks every invocation's outputs (see
workloads.py) and reports medians over the invocations that passed:

    wall_s       subprocess wall time
    setup_s      wall_s minus the manifest's wall_clock_seconds (interpreter
                 start, imports, config parsing, manifest write, exit)
    work_per_s   manifest step_count / wall_clock_seconds
    peak_rss_mb  the child's ru_maxrss from os.wait4

With ``--trace 1`` it runs layers.py instead: one untraced and one traced
invocation of the workload plus probes of every layer, and reports the
per-layer metrics.  Failed invocations are counted in ``failed`` (the
error rate is failed / attempted); a failed check makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the machine description and every invocation, goes to
``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Pinned before anything imports numpy, here (traced run) or in a child:
# the only concurrency left is each workload's own --threads.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(HERE, ".work")
INVOCATION_TIMEOUT_S = 150.0

from workloads import DEFAULT_SEED, WORKLOADS, check_outputs, config_text  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_sha() -> str:
    """HEAD of the checkout read from .git directly; none outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "pinned_env": PINNED_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """One workload at one seed: its config on disk and checked invocations."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.wl = workload
        self.smoke = smoke
        self.seed = seed
        self.dslab_seed = workload.dslab_seed(seed)
        self.threads = min(workload.threads, nproc())
        self.work = os.path.join(WORK_DIR, f"{workload.name}-seed{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config_path = os.path.join(self.work, f"{workload.name}.ini")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload.smoke_config if smoke else workload.config))
        self.env = child_env()
        self.first_outputs = None
        self.count = 0

    def cli_args(self, out_dir: str) -> list:
        return [
            self.wl.command,
            "--config", self.config_path,
            "--out", out_dir,
            "--seed", str(self.dslab_seed),
            "--threads", str(self.threads),
        ]

    def warm_up(self) -> None:
        """Import once untimed, so byte-compiling the sources is not timed."""
        subprocess.run(
            [sys.executable, "-c", "import dslab.cli"],
            env=self.env, cwd=ROOT, check=True, timeout=INVOCATION_TIMEOUT_S,
        )

    def out_dir(self) -> str:
        self.count += 1
        return os.path.join(self.work, f"out{self.count}")

    def invoke(self) -> dict:
        """Run dslab once as a subprocess; time it and check its outputs."""
        out = self.out_dir()
        argv = [sys.executable, "-m", "dslab.cli"] + self.cli_args(out)
        err_path = out + ".stderr"
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-400:].decode("utf-8", "replace")
            record["problems"] = [f"exit code {proc.returncode}: {tail}"]
        else:
            record.update(self.finish(out))
        shutil.rmtree(out, ignore_errors=True)
        return record

    def finish(self, out: str) -> dict:
        """Checks plus manifest timings for an invocation that exited 0."""
        problems = check_outputs(self.wl, self.smoke, self.dslab_seed, out)
        result = {"problems": problems}
        if problems:
            return result
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        outputs = {}
        for entry in manifest["outputs"]:
            with open(os.path.join(out, entry["path"]), "rb") as fh:
                outputs[entry["path"]] = fh.read()
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            problems.append("outputs differ from the first invocation's on the same inputs")
        result["inner_s"] = manifest["wall_clock_seconds"]
        result["steps"] = manifest["step_count"]
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_run(runner: Runner, seconds: float) -> tuple[list, dict]:
    """Closed loop of invocations until the next one would overrun seconds."""
    runner.warm_up()
    records = []
    started = time.perf_counter()
    while True:
        records.append(runner.invoke())
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in records)
        if elapsed + typical > seconds:
            break
    passed = [r for r in records if not r["problems"]]
    samples = {
        "wall_s": [r["wall_s"] for r in passed],
        "setup_s": [r["wall_s"] - r["inner_s"] for r in passed],
        "work_per_s": [r["steps"] / r["inner_s"] for r in passed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if samples[name]:
            q1, q3 = quartiles(samples[name])
            metrics[name] = {
                "value": statistics.median(samples[name]),
                "unit": unit,
                "n": len(samples[name]),
                "q1": q1,
                "q3": q3,
            }
    return records, metrics


def run_workload(wl, args) -> dict:
    runner = Runner(wl, args.seed, args.smoke)
    try:
        if args.trace:
            import layers

            records, metrics, extra = layers.traced_run(runner)
        else:
            records, metrics = timed_run(runner, args.seconds)
            extra = {}
    finally:
        runner.close()
    failed = sum(1 for r in records if r["problems"])
    return {
        "workload": wl.name,
        "seed": args.seed,
        "dslab_seed": runner.dslab_seed,
        "threads": runner.threads,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "work_unit": wl.work_unit,
        "attempted": len(records),
        "failed": failed,
        "invocations": records,
        "metrics": metrics,
        **extra,
    }


def print_report(result: dict) -> None:
    print(
        f"# {result['workload']}: seed {result['seed']} (dslab seed {result['dslab_seed']}), "
        f"--threads {result['threads']}, trace {result['trace']}"
        + (", smoke" if result["smoke"] else "")
    )
    for name, m in result["metrics"].items():
        spread = f"  median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "n" in m else ""
        unit = m["unit"] + (f" ({result['work_unit']}/s)" if name == "work_per_s" else "")
        print(f"{name:<44} {m['value']:>14.6g} {unit}{spread}")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"{'error_rate':<44} {rate:>14.6g} ({result['failed']} failed of {result['attempted']})")
    for k, r in enumerate(result["invocations"]):
        for problem in r["problems"]:
            print(f"  invocation {k}: {problem}")


def write_result(tag: str, payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def write_reference(wl) -> int:
    """Record the default-seed outputs as the reference for later checks."""
    from workloads import load_outputs, reference_path, reference_payload

    runner = Runner(wl, DEFAULT_SEED, smoke=False)
    try:
        out = runner.out_dir()
        proc = subprocess.run(
            [sys.executable, "-m", "dslab.cli"] + runner.cli_args(out),
            env=runner.env, cwd=ROOT, timeout=INVOCATION_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return proc.returncode
        payload = reference_payload(wl, runner.dslab_seed, load_outputs(out))
    finally:
        runner.close()
    os.makedirs(os.path.dirname(reference_path(wl)), exist_ok=True)
    with open(reference_path(wl), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(reference_path(wl), ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs; numbers are not comparable")
    parser.add_argument("--write-reference", action="store_true", help="regenerate reference/ outputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dslab", "cli.py")):
        print(f"error: no dslab sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        return max(write_reference(WORKLOADS[name]) for name in names)

    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    results = [run_workload(WORKLOADS[name], args) for name in names]
    for result in results:
        print_report(result)
        write_result(f"{result['workload']}-seed{args.seed}-trace{args.trace}", dict(result, env=env))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
        for r in results
        for name, m in r["metrics"].items()
    }
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
