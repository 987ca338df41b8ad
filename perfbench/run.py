"""Benchmark of the latticeepr command line on configs/lithium.ini.

Run from the repository root:

    python3 perfbench/run.py --workload dist_lithium --seed 1 --seconds 12 --trace 0

One operation is one in-process `latticeepr.cli.main` call on a copy of
`configs/lithium.ini` with the workload's overrides.  After the imports,
`load_config` and a discarded cold first call, operations repeat until the
next one would end past `--seconds` (at least `MIN_OPS` of them), in a
closed loop with one caller.  Every operation's artifacts pass the
workload's correctness gate (`gates.py`) or count as failed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced operations and prints the per-layer
metrics from the traced ones (`spans.py`).  The last line of stdout is the
result object; the line before it records the environment.  A copy of
both, with every operation's timings and the traced spans, is written to
`.perfbench/<workload>-seed<seed>-trace<t>.json`.

The workloads are deterministic: `--seed` is passed to the program's own
`--seed` option, which no code path reads yet.  BLAS thread settings are
left at their defaults and recorded with every result.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import gates
from spans import COMPUTED_COUNTS, Tracer, layer_totals, untraced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_OPS = 3          # measured operations per untraced run, whatever --seconds says
SETUP_PROBES = 2     # extra set-ups in fresh processes; setup_s is the median of 1 + this
PROBE_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """The program or its inputs are missing or do not work."""


@dataclass(frozen=True)
class Workload:
    overrides: dict            # (section, key) -> value, applied to configs/lithium.ini
    argv: tuple                # subcommand and its arguments
    check: Callable            # gate: (out_dir, reference) -> list of mismatches


# Why each workload was chosen is recorded in BENCHMARK.json; which layer
# metric should move which end-to-end metric is in predictions.json.
WORKLOADS = {
    "dist_lithium": Workload({}, ("dist",), gates.check_dist),
    "spectrum_n40": Workload(
        {("model", "site_count"): "40"}, ("spectrum", "--sweep", "vdd 0:2.5:2"), gates.check_spectrum
    ),
    "protocol_n40": Workload({("model", "site_count"): "40"}, ("protocol",), gates.check_protocol),
}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import latticeepr from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "latticeepr" / "cli.py").is_file():
        raise SetupError(f"no latticeepr package under {src}")
    sys.path.insert(0, str(src))
    from latticeepr import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"imported latticeepr from {cli.__file__}, not {src}")
    return cli


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Op:
    start: float
    end: float
    cpu_s: float
    problems: list
    traced: bool = False
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """One workload's program, config copy and output directory."""

    def __init__(self, name: str, seed: int, workdir: Path, reference: dict):
        self.workload = WORKLOADS[name]
        self.reference = reference
        self.workdir = workdir
        self.out = workdir / "out"
        config_path = self._write_config()
        self.options = ["--config", str(config_path), "--out", str(self.out), "--seed", str(seed)]
        self.cli = import_program()
        self.cli.load_config(config_path)  # timed as part of set-up; main() loads it again

    def _write_config(self) -> Path:
        source = ROOT / "configs" / "lithium.ini"
        if not source.is_file():
            raise SetupError(f"missing {source}")
        parser = configparser.ConfigParser()
        parser.read(source)
        for (section, key), value in self.workload.overrides.items():
            parser[section][key] = value
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "lithium.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        return path

    def op(self) -> Op:
        """One subcommand call, timed, then gated (outside the timed span).
        The output directory starts empty, so the gate sees only what this
        call wrote."""
        shutil.rmtree(self.out, ignore_errors=True)
        captured = io.StringIO()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main([*self.options, *self.workload.argv])
        except Exception:  # a crash fails this operation, not the run
            code = "crash"
            captured.write(traceback.format_exc())
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        if code != 0:
            problems = [f"exit code {code}: {captured.getvalue().strip()[-500:]}"]
        else:
            try:
                problems = self.workload.check(self.out, self.reference)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
        return Op(start, end, cpu, problems)

    def artifact_bytes(self) -> dict[str, int]:
        """Size of each artifact but the run manifest, whose length varies
        with the wall time it records."""
        if not self.out.is_dir():
            return {}
        return {
            p.name: p.stat().st_size
            for p in sorted(self.out.iterdir())
            if p.is_file() and p.name != "run_manifest.json"
        }


# ---------------------------------------------------------------------------
# Environment


def _openblas(lib_dir: Path) -> list[dict]:
    """Version string and live thread count of each OpenBLAS in `lib_dir`,
    read through ctypes from the copy the process has loaded."""
    found = []
    for path in sorted(lib_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        entry = {"library": path.name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["threads"] = getter()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    blas = {}
    for module in (numpy, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        libs = _openblas(Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs")
        blas[module.__name__] = {"name": info.get("name"), "version": info.get("version"), "loaded": libs}
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Runs


def set_up(name: str, seed: int, workdir: Path) -> tuple[Runner, float, Op]:
    """Imports, load_config and the discarded cold first call, timed."""
    start = time.perf_counter()
    reference = load_reference()
    if name not in reference:
        raise SetupError(f"reference.json has no values for {name}")
    runner = Runner(name, seed, workdir, reference[name])
    cold = runner.op()
    return runner, time.perf_counter() - start, cold


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process (imports are cold there too)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float, trace: bool) -> list[Op]:
    """Closed loop of operations; with `trace`, every other one is traced."""
    tracer = Tracer() if trace else None
    ops: list[Op] = []
    begin = time.perf_counter()
    while True:
        n_traced = sum(op.traced for op in ops)
        enough = n_traced >= 1 if trace else len(ops) >= MIN_OPS
        if enough and time.perf_counter() - begin + statistics.median(o.wall_s for o in ops) > seconds:
            break
        if tracer and n_traced < len(ops) - n_traced:
            tracer.install()
            try:
                op = runner.op()
            finally:
                tracer.uninstall()
            spans = tracer.collect()
            op.traced = True
            op.layers = layer_metrics(runner, op, spans)
            op.spans = [asdict(span) for span in spans]
        else:
            op = runner.op()
        ops.append(op)
    return ops


def layer_metrics(runner: Runner, op: Op, spans) -> dict:
    totals = layer_totals(spans)
    totals["untraced_s"] = untraced(spans, op.start, op.end)
    totals["distributions.momentum_mass"] = totals.get("distributions.thermal_momentum_joint.mass")
    totals["artifacts"] = runner.artifact_bytes()
    totals["cli.bytes_written"] = sum(totals["artifacts"].values())
    return totals


def median_of(ops: list[Op], key: str):
    """An observed value, so that counts stay exact; 0 where the layer never ran."""
    values = [op.layers[key] for op in ops if op.layers.get(key) is not None]
    return statistics.median_low(values) if values else 0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        runner, setup_s, cold = set_up(name, seed, workdir)
        ops = measure(runner, seconds, trace)
        rss = peak_rss_mb()
        setups = [setup_s] + ([] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [cold] + ops
    failed = sum(bool(op.problems) for op in every)
    if trace:
        traced = [op for op in ops if op.traced]
        plain = [op for op in ops if not op.traced]
        values = {
            m["name"]: median_of(traced, m["name"]) for m in spec["per_layer"]
        }
        values["tracing_overhead_s"] = (
            statistics.median(op.wall_s for op in traced) - statistics.median(op.wall_s for op in plain)
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "cpu_s": statistics.median(op.cpu_s for op in ops),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
            "ok_frac": (len(every) - failed) / len(every),
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "argv": list(WORKLOADS[name].argv),
        "env": environment(),
        "setups_s": setups,
        "computed_counts": list(COMPUTED_COUNTS),
        "ops": [
            {"wall_s": op.wall_s, "cpu_s": op.cpu_s, "traced": op.traced, "problems": op.problems,
             "layers": op.layers, "spans": op.spans}
            for op in every
        ],
        "result": result,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            workdir = WORK / f"probe-{args.workload}-{os.getpid()}"
            try:
                setup_s = set_up(args.workload, args.seed, workdir)[1]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(setup_s)
            return 0
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
