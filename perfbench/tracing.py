"""Spans and counts around the calls into each layer, recorded from outside ``src/``.

The program is not edited.  While a :class:`Tracer` is installed, the
names through which ``cli``, ``pipeline`` and ``receiver`` call the
layer functions are rebound to timing wrappers; they are restored when
it is removed, so untraced ops run the original code.  A name the
program no longer has is skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

ROOT = "cli.main"


def _solve_counts(counts: Counter, args, kwargs, result) -> None:
    counts["receiver.solves"] += 1
    counts["receiver.solve_evals"] += result.iterations
    counts["receiver.solves_converged"] += bool(result.converged)


def _ode_counts(counts: Counter, args, kwargs, result) -> None:
    counts["numerics.rk4_steps"] += len(result) - 1


def _csv_counts(counts: Counter, args, kwargs, result) -> None:
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    counts["csvio.rows"] += len(arrays[0])
    counts["csvio.bytes"] += result.stat().st_size


def _count(name: str):
    def hook(counts: Counter, args, kwargs, result) -> None:
        counts[name] += 1

    return hook


# (module, attribute, span name or None for count only, count hook)
INSTRUMENTS = [
    ("cli", "load_config", "config.load_config", _count("config.parse_calls")),
    ("cli", "run_send", "pipeline.run_send", None),
    ("cli", "run_transfer", "pipeline.run_transfer", None),
    ("cli", "run_sweep", "pipeline.run_sweep", None),
    ("cli", "write_sender_csv", "pipeline.write_sender_csv", None),
    ("cli", "write_photonics_csv", "pipeline.write_photonics_csv", None),
    ("cli", "write_receiver_csv", "pipeline.write_receiver_csv", None),
    ("cli", "write_sweep_csv", "pipeline.write_sweep_csv", None),
    ("cli", "write_report_json", "pipeline.write_report_json", None),
    ("cli", "write_regime_json", "pipeline.write_regime_json", None),
    ("pipeline", "parse_config", "config.parse_config", _count("config.parse_calls")),
    ("pipeline", "run_send", "pipeline.run_send", None),
    ("pipeline", "run_transfer", "pipeline.run_transfer", None),
    ("pipeline", "derive", "core.derive", None),
    ("pipeline", "validate_regime", "core.validate_regime", None),
    ("pipeline", "pump_exposure", "sender.pump_exposure", None),
    ("pipeline", "amplitudes_beta", "sender.amplitudes_beta", None),
    ("pipeline", "photon_observables", "photonics.photon_observables", None),
    ("pipeline", "solve_pulse_shape", "receiver.solve_pulse_shape", _solve_counts),
    ("pipeline", "pulse_areas", "receiver.pulse_areas", None),
    ("pipeline", "gamma_analytic", "receiver.gamma_analytic", None),
    ("pipeline", "simulate_receiver_ode", "receiver.simulate_receiver_ode", None),
    ("pipeline", "conservation_check", "receiver.conservation_check", None),
    ("pipeline", "final_state", "receiver.final_state", None),
    ("pipeline", "build_report", "channel.build_report", None),
    ("pipeline", "write_csv", "csvio.write_csv", _csv_counts),
    ("receiver", "pulse_areas", "receiver.pulse_areas", None),
    ("receiver", "integrate_ode", "numerics.integrate_ode", _ode_counts),
    ("receiver", "find_root", None, _count("receiver.root_calls")),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Collects spans and counts for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: Optional[str], fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self._stack.append(idx)
                span = Span(name, time.perf_counter(), 0.0, parent, self._op)
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
            if hook is not None:
                try:
                    hook(self.counts[self._op], args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The program changed the call's shape; the count is lost, the op is not.
                    self.missing.add(f"count hook of {fn.__qualname__}")
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, hook in INSTRUMENTS:
                module = importlib.import_module(f"pnsslink.{mod_name}")
                if not hasattr(module, attr):
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as op number ``op`` under a root span."""
        self._op = op
        return self._wrap(ROOT, fn, None)(*args)

    def self_times(self, op: int) -> dict[str, float]:
        """Sum of span self time (duration minus child spans) per span name."""
        own = {}
        child = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            own[i] = s
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in own.items():
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)
