#!/usr/bin/env python3
"""Time the stages of a stock transfer in-process and write a BENCH record.

Imports ``pnsslink`` from ``--checkout``'s ``src/`` (default: this
checkout) and the receiver ODE oracle from its ``tests/``, then times, on
``configs/qubit.json`` at the scenario's default grid:

    cli_send, cli_transfer, cli_sweep
                         ``pnsslink.cli.main`` end to end, the sweep with
                         41 initial_state.p_m1 samples
    cli_transfer_report  ``pnsslink transfer`` writing report.json only, on
                         configs/qutrit.json at phi2 = 0.7 rad (the off-phase
                         qutrit path that reads end values alone)
    config_parse         load_config of the scenario file
    exposure             sender.pump_exposure
    sender_amplitudes    sender.amplitudes_beta
    photon_observables   photonics.photon_observables
    pulse_solve          the receiving pulse's solve (also its iterations)
    pulse_solve_center   the free-center solve of acceptance check 08 (the
                         stock physics with g raised 25 %, ``free: center``,
                         tol 1e-6), with its iterations
    absorb               receiver.pulse_areas + receiver.gamma_analytic
    report_json          pipeline.write_report_json
    csv_sender, csv_photonics, csv_receiver, csv_sweep
                         each CSV writer (the sweep's: a 41-point
                         initial_state.p_m1 sweep)
    sweep_per_sample     (run_sweep of 100 001 initial_state.p_m1 samples - of
                         1 sample) / 100 000
    sweep_large          ``pnsslink sweep`` of 100 000 initial_state.p_m1
                         samples in a fresh interpreter: the wall time of the
                         command (imports excluded) and the process's peak
                         RSS, the median of 3 interpreters
    oracle_sender_per_step, oracle_receiver_per_step
                         each ODE oracle's time per RK4 step
    import_cold, import_cached
                         ``import pnsslink.cli`` in a fresh ``spawn``
                         interpreter that has numpy loaded, from a copy of
                         the package: compiled from source with bytecode
                         writing off (cold), or read from bytecode that an
                         earlier interpreter wrote under a scratch
                         ``sys.pycache_prefix`` (cached); the median of
                         REPEATS interpreters each
    tier1_suite          the checkout's tier-1 pytest run, once, in a
                         subprocess: wall time and pytest's summary line

Each stage runs once to warm up and then REPEATS times; its entry holds
the median wall time, the grid points and the repeat count.  The CLI ops
and the CSV writers also record ``minflt_median`` and ``cold_median_s``:
the minor page faults (``ru_minflt``) and the wall time of one call of
the stage in a fresh interpreter, each the median over REPEATS
interpreters.  A CLI op there is the whole op, as a ``pnsslink`` process
runs it after its imports (parser, kernel tables and first allocations
included); a CSV writer is its first call after a transfer (or the
sweep) has been solved.  The record adds the
commit, the Python and numpy versions, the host's CPU model,
``src_lines``, the line count of the checkout's ``src/pnsslink/*.py``, and
``src_tokens``, the count of their ``tokenize`` tokens less comments,
blank-line ``NL``s, the encoding and the end marker (so neither comments
nor layout count).

With ``--json FILE --record NAME`` the record is stored under NAME in
FILE (other records are kept), so one file can hold a ``parent`` and a
``change`` record taken on the same host:

    python scripts/bench.py --checkout ../parent --json BENCH_11.json --record parent
    python scripts/bench.py --json BENCH_11.json --record change
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = Path("configs") / "qubit.json"
SWEEP_NUM = 41
# Samples of the sweep_per_sample stage's long sweep.  Its difference with a
# one-sample sweep spans 100 000 samples, ~0.1 s of per-sample work, so the
# timing noise of the two sweeps (a few ms each) is small beside it.  Over
# 1 000 samples, ~0.3 ms of it, four records of nearly the same code read
# 0.14 to 0.58 us per sample.
SWEEP_PER_SAMPLE_NUM = 100_001
# Control phase of the report-only off-phase qutrit transfer.
OFFPHASE_PHI2_RAD = 0.7
# Timed calls per stage, after one warm-up.
REPEATS = 7
# Samples and fresh interpreters of the sweep_large stage.
SWEEP_LARGE_NUM = 100_000
SWEEP_LARGE_REPEATS = 3
# One sweep_large run: argv is the checkout, the output directory and the
# sample count; prints the command's wall time and the peak RSS as JSON.
_SWEEP_LARGE = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from pnsslink.cli import main
argv = ["sweep", "--config", sys.argv[1] + "/configs/qubit.json", "--out", sys.argv[2],
        "--axis", "initial_state.p_m1", "--start", "0", "--stop", "1", "--num", sys.argv[3]]
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
wall = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": peak_kb / 1024}))
"""


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(fn) -> dict:
    """Median wall time of ``fn()`` over REPEATS calls after one warm-up."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(times), "repeats": REPEATS}


def _commit(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _src_lines(checkout: Path) -> int:
    files = (checkout / "src" / "pnsslink").glob("*.py")
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)


_LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}


def _src_tokens(checkout: Path) -> int:
    count = 0
    for path in (checkout / "src" / "pnsslink").glob("*.py"):
        with path.open("rb") as file:
            count += sum(tok.type not in _LAYOUT_TOKENS for tok in tokenize.tokenize(file.readline))
    return count


def _import(checkout: Path):
    """Import pnsslink (and the test oracles) from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    import pnsslink

    if not Path(pnsslink.__file__).resolve().is_relative_to(checkout / "src"):
        raise ImportError(f"pnsslink imported from {pnsslink.__file__}, not from {checkout}")


def _setup(checkout: Path):
    """The stock scenario's config, link, transfer result and sweep output."""
    from pnsslink import pipeline
    from pnsslink.config import load_config

    config = load_config(checkout / SCENARIO)
    result = pipeline.run_transfer(config)
    link = result.link
    sweep, _ = pipeline.run_sweep(config, "initial_state.p_m1", np.linspace(0.0, 1.0, SWEEP_NUM))
    return config, link, result, sweep


def _cli_ops(checkout: Path, out: Path) -> dict:
    """The CLI ops, as callables writing under ``out`` (scenario files too)."""
    from pnsslink.cli import main as cli_main

    doc = json.loads((checkout / "configs" / "qutrit.json").read_text(encoding="utf-8"))
    doc["params"]["phi2_rad"] = OFFPHASE_PHI2_RAD
    doc.setdefault("outputs", {})["which"] = ["report"]
    report_only = out / "qutrit-offphase-report.json"
    report_only.write_text(json.dumps(doc), encoding="utf-8")

    def cli(name: str, *argv: str, config: Path = checkout / SCENARIO):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--config", str(config), "--out", str(out / name)])
        if code != 0:
            raise RuntimeError(f"pnsslink {argv[0]} exited {code}")

    sweep_argv = ("sweep", "--axis", "initial_state.p_m1", "--start", "0", "--stop", "1",
                  "--num", str(SWEEP_NUM))
    return {
        "cli_send": lambda: cli("send", "send"),
        "cli_transfer": lambda: cli("transfer", "transfer"),
        "cli_sweep": lambda: cli("sweep", *sweep_argv),
        "cli_transfer_report": lambda: cli("transfer_report", "transfer", config=report_only),
    }


def _check_08_config(checkout: Path):
    """Acceptance check 08's scenario: a free-center solve at g raised 25 %."""
    from pnsslink.config import parse_config

    doc = json.loads((checkout / SCENARIO).read_text(encoding="utf-8"))
    doc["params"]["g_mhz"] = 1.25 * doc["params"]["g_mhz"]
    doc["pulse2"]["free"] = "center"
    doc["pulse2"]["tol"] = 1e-6
    return parse_config(doc)


def tier1_suite(checkout: Path) -> dict:
    """Wall time and summary line of one tier-1 pytest run of ``checkout``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "repeats": 1}


def sweep_large(checkout: Path) -> dict:
    """Median wall time and peak RSS of SWEEP_LARGE_NUM-sample sweeps, each in a fresh interpreter."""
    runs = []
    for _ in range(SWEEP_LARGE_REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "-c", _SWEEP_LARGE, str(checkout), tmp, str(SWEEP_LARGE_NUM)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        run = json.loads(proc.stdout.splitlines()[-1])
        if run["code"] != 0:
            raise RuntimeError(f"pnsslink sweep exited {run['code']}")
        runs.append(run)
    return {
        "median_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "samples": SWEEP_LARGE_NUM,
        "repeats": SWEEP_LARGE_REPEATS,
    }


def _writers(setup, out: Path) -> dict:
    """The CSV writers of ``setup`` (see _setup), as callables writing under ``out``."""
    from pnsslink import pipeline

    config, _, result, sweep = setup
    return {
        "csv_sender": lambda: pipeline.write_sender_csv(result.send, out / "sender.csv"),
        "csv_photonics": lambda: pipeline.write_photonics_csv(result.send, out / "photonics.csv"),
        "csv_receiver": lambda: pipeline.write_receiver_csv(result, out / "receiver.csv"),
        "csv_sweep": lambda: pipeline.write_sweep_csv(sweep, config, out / "sweep.csv"),
    }


def _fresh_call(checkout: Path, name: str) -> tuple[int, float]:
    """Minor page faults and wall time of one call of stage ``name``, in a fresh interpreter.

    A CSV writer's inputs are solved before the count starts.
    """
    _import(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        if name.startswith("cli_"):
            fn = _cli_ops(checkout, Path(tmp))[name]
        else:
            fn = _writers(_setup(checkout), Path(tmp))[name]
        f0, t0 = _minflt(), time.perf_counter()
        fn()
        return _minflt() - f0, time.perf_counter() - t0


def fresh_call(checkout: Path, name: str) -> dict:
    """Medians of _fresh_call over REPEATS fresh interpreters."""
    spawn = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(REPEATS):
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            runs.append(pool.submit(_fresh_call, checkout, name).result())
    return {
        "minflt_median": statistics.median(faults for faults, _ in runs),
        "cold_median_s": statistics.median(wall for _, wall in runs),
    }


def _import_cli(src: Path, pycache_prefix: str | None, write_bytecode: bool) -> float:
    """Wall time of ``import pnsslink.cli`` from ``src`` in this fresh interpreter.

    numpy is loaded (this module imports it).  With ``pycache_prefix`` every
    module's bytecode is looked up under it only.
    """
    sys.pycache_prefix = pycache_prefix
    sys.dont_write_bytecode = not write_bytecode
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import pnsslink.cli

    wall = time.perf_counter() - t0
    if not Path(pnsslink.cli.__file__).is_relative_to(src):
        raise ImportError(f"pnsslink imported from {pnsslink.cli.__file__}, not from {src}")
    return wall


def import_times(checkout: Path) -> dict:
    """The import_cold and import_cached stages of ``checkout`` (see the module docstring).

    Both import a copy of the package without ``__pycache__``, so a cold
    import compiles the package and reads the standard library's bytecode.
    """
    spawn = multiprocessing.get_context("spawn")

    def fresh(*args) -> float:
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            return pool.submit(_import_cli, *args).result()

    cold, cached = [], []
    with tempfile.TemporaryDirectory() as tmp:
        src, warm = Path(tmp) / "src", str(Path(tmp) / "pycache")
        shutil.copytree(checkout / "src" / "pnsslink", src / "pnsslink",
                        ignore=shutil.ignore_patterns("__pycache__"))
        fresh(src, warm, True)  # writes the bytecode the cached imports read
        for _ in range(REPEATS):
            cold.append(fresh(src, None, False))
            cached.append(fresh(src, warm, False))
    return {
        "import_cold": {"median_s": statistics.median(cold), "repeats": REPEATS},
        "import_cached": {"median_s": statistics.median(cached), "repeats": REPEATS},
    }


def run(checkout: Path) -> dict:
    _import(checkout)
    from oracles import simulate_receiver_ode, simulate_sender_ode
    from pnsslink import pipeline
    from pnsslink.config import load_config
    from pnsslink.photonics import photon_observables
    from pnsslink.receiver import gamma_analytic, pulse_areas
    from pnsslink.sender import amplitudes_beta, pump_exposure

    scenario = checkout / SCENARIO
    setup = _setup(checkout)
    config, link, result, _ = setup
    sender = link.sender
    state = config.initial_state
    send = result.send
    params = config.params
    g2c = params.g * link.omega2 / abs(params.delta)
    area_args = (link.pulse2, sender.modes.phi1, sender.modes.phi2, g2c, params.k)
    p_m1 = np.linspace(0.0, 1.0, SWEEP_PER_SAMPLE_NUM)
    points = sender.grid.n_points
    config_08 = _check_08_config(checkout)
    sender_08 = pipeline.build_sender(config_08)

    stages: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cold = {**_cli_ops(checkout, out), **_writers(setup, out)}
        timed = {
            **cold,
            "config_parse": lambda: load_config(scenario),
            "exposure": lambda: pump_exposure(sender.pulse1, sender.derived.alpha1, sender.grid),
            "sender_amplitudes": lambda: amplitudes_beta(sender.theta, state),
            "photon_observables": lambda: photon_observables(sender.theta, sender.modes, state, send.trajectory),
            "pulse_solve": lambda: pipeline._resolve_pulse2(config, sender),
            "pulse_solve_center": lambda: pipeline._resolve_pulse2(config_08, sender_08),
            "absorb": lambda: gamma_analytic(*pulse_areas(*area_args, sender.grid), state),
            "report_json": lambda: pipeline.write_report_json(result, out / "report.json"),
        }
        for name, fn in timed.items():
            stages[name] = {**measure(fn), "grid_points": points}
    for name in cold:
        stages[name].update(fresh_call(checkout, name))

    stages["pulse_solve"]["iterations"] = link.solve.iterations
    _, _, solve_08 = pipeline._resolve_pulse2(config_08, sender_08)
    stages["pulse_solve_center"]["iterations"] = solve_08.iterations
    many = measure(lambda: pipeline.run_sweep(config, "initial_state.p_m1", p_m1))
    one = measure(lambda: pipeline.run_sweep(config, "initial_state.p_m1", p_m1[:1]))
    stages["sweep_per_sample"] = {
        "median_s": (many["median_s"] - one["median_s"]) / (SWEEP_PER_SAMPLE_NUM - 1),
        "repeats": REPEATS,
        "grid_points": points,
    }
    stages["sweep_large"] = sweep_large(checkout)
    oracles = {
        "oracle_sender_per_step": lambda: simulate_sender_ode(
            sender.pulse1, sender.derived.alpha1, state, sender.grid),
        "oracle_receiver_per_step": lambda: simulate_receiver_ode(
            *area_args, math.pi / 2, state, sender.grid),
    }
    for name, fn in oracles.items():
        stages[name] = {
            "median_s": measure(fn)["median_s"] / (points - 1),
            "repeats": REPEATS,
            "grid_points": points,
        }
    stages.update(import_times(checkout))
    stages["tier1_suite"] = tier1_suite(checkout)
    return {
        "commit": _commit(checkout),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "src_lines": _src_lines(checkout),
        "src_tokens": _src_tokens(checkout),
        "grid_points": points,
        "repeats": REPEATS,
        "stages": stages,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository to import pnsslink from")
    parser.add_argument("--json", type=Path, default=None, help="BENCH file to store the record in")
    parser.add_argument("--record", default="change", help="key of the record in --json")
    args = parser.parse_args(argv)
    record = run(args.checkout.resolve())
    text = json.dumps(record, indent=2)
    if args.json is None:
        print(text)
        return 0
    doc = json.loads(args.json.read_text()) if args.json.exists() else {}
    doc[args.record] = record
    args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
