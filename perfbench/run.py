"""Benchmark of the pnsslink command line, run in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One process, one closed-loop client: ops are calls of ``pnsslink.cli.main``
run back to back, with no threads, until ``--seconds`` have passed.  The
inputs are scenario files generated from ``--seed`` (see workloads.py);
every op's outputs are checked (see checks.py) and a failed check counts
the op as failed.  Program outputs go to a temporary directory under
this one, removed at exit.

With ``--trace 0`` the end-to-end metrics are reported.  Their times are
at reference host speed: a fixed kernel runs between ops, and each wall
time is divided by the host's slowdown measured by it around that time
(see hostspeed.py; the raw wall times are printed too):

    setup_s          median time to import pnsslink afresh (numpy is already
                     loaded), write the seed's scenario files and parse them;
                     repeated before the first op and after every op
    op_s_p50         median time of one ``cli.main`` call
    transfers_per_s  full transfers in passing ops per second of op time
    out_bytes        median bytes an op writes
    peak_rss_mb      peak resident memory of the process

The error rate is ``failed / attempted`` of the result line.  With
``--trace 1`` untraced and traced ops alternate; the traced ones give the
per-layer metrics (self times and counts per op, medians over ops; see
tracing.py), the two sets together give the tracing overhead, and
``host.slowdown`` gives the run's median slowdown.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it give every metric with its unit and sample count, and the
provenance of the run, which is also written, with every sample and
span, to ``results/<workload>-seed<N>-trace<T>.json`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402  (imported before set-up is timed: not the program's cost)

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SWEEP_NUM, WORKLOADS, argv, make_variants  # noqa: E402

# Set-up runs this often before the first op, then once after every op.
SETUP_REPS = 3

# Per-layer time metrics: self time per op of the spans named.
SPAN_METRICS = {
    "cli.self_s": ["cli.main"],
    "config.load_s": ["config.load_config", "config.parse_config"],
    "pipeline.run_send_s": ["pipeline.run_send"],
    "pipeline.run_transfer_s": ["pipeline.run_transfer"],
    "pipeline.run_sweep_s": ["pipeline.run_sweep"],
    "core.derive_regime_s": ["core.derive", "core.validate_regime"],
    "sender.exposure_s": ["sender.pump_exposure"],
    "sender.amplitudes_s": ["sender.amplitudes_beta"],
    "photonics.observables_s": ["photonics.photon_observables"],
    "receiver.solve_s": ["receiver.solve_pulse_shape"],
    "receiver.absorb_s": ["receiver.pulse_areas", "receiver.gamma_analytic"],
    "receiver.ode_s": ["receiver.simulate_receiver_ode"],
    "numerics.ode_s": ["numerics.integrate_ode"],
    "receiver.final_s": ["receiver.conservation_check", "receiver.final_state"],
    "channel.report_s": ["channel.build_report"],
    "pipeline.csv_columns_s": [
        "pipeline.write_sender_csv",
        "pipeline.write_photonics_csv",
        "pipeline.write_receiver_csv",
        "pipeline.write_sweep_csv",
    ],
    "csvio.write_s": ["csvio.write_csv"],
    "pipeline.report_json_s": ["pipeline.write_report_json", "pipeline.write_regime_json"],
}
# Per-layer counts per op, straight from the tracer's counters.
COUNT_METRICS = ["csvio.bytes", "csvio.rows", "receiver.root_calls", "config.parse_calls",
                 "numerics.rk4_steps"]
UNITS = {"csvio.bytes": "B", "csvio.mb_per_s": "MB/s", "numerics.ode_us_per_step": "us",
         "receiver.solve_converged_frac": "fraction"}


def _parse_args(argv_: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="pnsslink CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv_)


def _import_program():
    """Import pnsslink.cli afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "pnsslink" or m.startswith("pnsslink.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pnsslink.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pnsslink imported from {cli.__file__}, not from {SRC}")
    return cli


def _setup(workload, seed: int, work: Path):
    """Import the program afresh, write the seed's scenarios and parse them.

    Returns the cli module, the scenarios and the seconds it took.
    """
    t0 = time.perf_counter()
    cli = _import_program()
    load_config = sys.modules["pnsslink.config"].load_config
    scenarios = []
    for i, variant in enumerate(make_variants(workload, seed)):
        path = work / f"scenario-{i}.json"
        path.write_text(json.dumps(variant.doc, indent=2), encoding="utf-8")
        scenarios.append((variant, path, load_config(path)))
    return cli, scenarios, time.perf_counter() - t0


def _call(fn, args) -> tuple[object, str]:
    """Run one op with its console output captured; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn(args)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a failed benchmark
            code = "exception"
            traceback.print_exc()
    return code, err.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _run_ops(workload, seed: int, seconds: float, trace: bool, work: Path, reference):
    """Set up, then alternate op and set-up until ``seconds`` have passed.

    Set-up is repeated between ops, not back to back, so its samples are
    spread over the whole run like the ops' are.  The host-speed kernel
    runs after every set-up, so each op lies between two calibrations;
    the op's ``slowdown`` is their mean and a set-up's is the one after it.
    """
    tracer = Tracer() if trace else None
    samples = []
    setups = []
    for _ in range(SETUP_REPS):
        cli, scenarios, dt = _setup(workload, seed, work)
        setups.append({"setup_s": dt, "after_op": -1})
    calibrations = [hostspeed.calibrate()]
    out = work / "out"
    deadline = time.perf_counter() + seconds
    op = 0
    while op < (2 if trace else 1) or time.perf_counter() < deadline:
        variant, path, parsed = scenarios[op % len(scenarios)]
        rows = SWEEP_NUM if workload.command == "sweep" else parsed.grid.n_points()
        shutil.rmtree(out, ignore_errors=True)
        args = argv(workload, variant, str(path), str(out))
        traced = trace and op % 2 == 1
        gc.collect()
        with tracer.installed() if traced else contextlib.nullcontext():
            fn = (lambda a, i=op: tracer.run_op(i, cli.main, a)) if traced else cli.main
            t0, c0 = time.perf_counter(), time.process_time()
            code, err = _call(fn, args)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        fails = [f"exit code {code}"] if code != 0 else []
        omega2_err = None
        if not fails:
            try:
                fails = checks.check_outputs(workload, variant.doc, out, rows, reference)
                omega2_err = checks.omega2_rel_err(workload, out, reference)
            except (KeyError, TypeError, ValueError) as exc:
                fails = [f"unreadable outputs: {exc!r}"]
        if fails:
            print(f"op {op} failed: {fails[:3]}\n{err}", file=sys.stderr)
        samples.append({
            "op": op,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "ok": not fails,
            "out_bytes": _dir_bytes(out) if out.exists() else 0,
            "omega2_rel_err": omega2_err if not fails else None,
            "grid_points": parsed.grid.n_points(),
        })
        cli, scenarios, dt = _setup(workload, seed, work)
        setups.append({"setup_s": dt, "after_op": op})
        calibrations.append(hostspeed.calibrate())
        op += 1
    shutil.rmtree(out, ignore_errors=True)

    op_slowdown = [hostspeed.slowdown(times, workload.host_work) for times in calibrations]
    for i, s in enumerate(samples):
        s["slowdown"] = 0.5 * (op_slowdown[i] + op_slowdown[i + 1])
        s["ref_s"] = s["wall_s"] / s["slowdown"]
    # Set-up (imports, JSON) is interpreter-bound on every workload.
    for s in setups:
        s["slowdown"] = hostspeed.slowdown(calibrations[s["after_op"] + 1], hostspeed.PARTS)
        s["ref_s"] = s["setup_s"] / s["slowdown"]
    return samples, setups, calibrations, tracer


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "samples": n}


def _end_to_end(workload, samples, setups) -> dict:
    """Times are at reference host speed: wall time over the slowdown around it."""
    ok = [s for s in samples if s["ok"]] or samples
    transfers = workload.transfers_per_op * sum(s["ok"] for s in samples)
    return {
        "setup_s": _metric(statistics.median(s["ref_s"] for s in setups), "s", len(setups)),
        "op_s_p50": _metric(statistics.median(s["ref_s"] for s in ok), "s", len(ok)),
        "transfers_per_s": _metric(
            transfers / sum(s["ref_s"] for s in samples), "1/s", len(samples)
        ),
        "out_bytes": _metric(statistics.median(s["out_bytes"] for s in ok), "B", len(ok)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def _per_op_layers(tracer: Tracer, op: int) -> dict[str, float]:
    self_times = tracer.self_times(op)
    counts = tracer.counts[op]
    vals = {m: sum(self_times.get(n, 0.0) for n in names) for m, names in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        vals[name] = float(counts[name])
    solves = counts["receiver.solves"]
    vals["receiver.solve_evals"] = counts["receiver.solve_evals"] / solves if solves else 0.0
    vals["receiver.solve_converged_frac"] = (
        counts["receiver.solves_converged"] / solves if solves else 0.0
    )
    write_s = vals["csvio.write_s"]
    vals["csvio.mb_per_s"] = vals["csvio.bytes"] / 1e6 / write_s if write_s > 0 else 0.0
    steps = vals["numerics.rk4_steps"]
    vals["numerics.ode_us_per_step"] = vals["numerics.ode_s"] / steps * 1e6 if steps else 0.0
    vals["trace.spans_per_op"] = float(sum(1 for s in tracer.spans if s.op == op))
    return vals


def _per_layer(samples, tracer: Tracer) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    per_op = [_per_op_layers(tracer, s["op"]) for s in traced]
    metrics = {}
    for name in per_op[0]:
        unit = UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = _metric(statistics.median(v[name] for v in per_op), unit, len(per_op))
    errs = [s["omega2_rel_err"] for s in samples if s["omega2_rel_err"] is not None]
    # 1 (no agreement at all) when no op produced a checked solved pulse.
    metrics["receiver.omega2_rel_err"] = _metric(max(errs) if errs else 1.0, "ratio", len(errs))
    metrics["grid.points"] = _metric(float(samples[0]["grid_points"]), "count", len(samples))
    metrics["host.slowdown"] = _metric(
        statistics.median(s["slowdown"] for s in samples), "ratio", len(samples)
    )
    # Raw wall time, the time the self times above add up to.
    metrics["trace.op_wall_s_p50"] = _metric(
        statistics.median(s["wall_s"] for s in traced), "s", len(traced)
    )
    traced_p50 = statistics.median(s["ref_s"] for s in traced)
    plain_p50 = statistics.median(s["ref_s"] for s in plain)
    metrics["trace.overhead_frac"] = _metric(traced_p50 / plain_p50 - 1.0, "fraction", len(samples))
    return metrics


def _git_commit() -> str:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, samples, tracer) -> dict:
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "grid_points": samples[0]["grid_points"],
        "ops_attempted": len(samples),
        "ops_traced": sum(s["traced"] for s in samples),
    }
    if tracer is not None:
        prov["untraced_calls"] = sorted(tracer.missing)
    return prov


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:
        try:
            samples, setups, calibrations, tracer = _run_ops(
                workload, args.seed, args.seconds, bool(args.trace), work, reference
            )
        except ImportError as exc:
            print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not s["ok"] for s in samples)
    if args.trace:
        metrics = _per_layer(samples, tracer)
    else:
        metrics = _end_to_end(workload, samples, setups)
    prov = _provenance(args, samples, tracer)
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"# error_rate: {failed / len(samples):.6g} ({failed} failed of {len(samples)} ops)")
    for name, m in metrics.items():
        print(f"# {name:30s} {m['value']:>16.9g} {m['unit']:9s} n={m['samples']}")
    print(f"# raw wall time: op p50 {statistics.median(s['wall_s'] for s in samples):.6g} s, "
          f"set-up p50 {statistics.median(s['setup_s'] for s in setups):.6g} s; host slowdown "
          f"p50 {statistics.median(s['slowdown'] for s in samples):.6g}")
    if args.trace:
        layers = sum(metrics[name]["value"] for name in SPAN_METRICS)
        print(f"# per-layer self times sum to {layers:.6g} s of a traced op "
              f"(trace.op_wall_s_p50 {metrics['trace.op_wall_s_p50']['value']:.6g} s)")

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "samples": samples, "setups": setups,
              "calibrations_s": calibrations}
    if tracer is not None:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
        record["counts"] = {str(op): dict(c) for op, c in tracer.counts.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv_: list[str] | None = None) -> int:
    args = _parse_args(argv_)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
