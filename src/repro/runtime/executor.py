"""High-level simulation entry points.

Combines the interpreter, cost tracer, machine model, and race detector
into the calls the experiment harness uses:

* :func:`profile_run` — execute once, returning final memory plus the
  operation profile;
* :func:`simulate_thread_sweep` — turn a profile into simulated wall
  times for a list of thread counts;
* :func:`detect_races` — execute once under the race detector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.program import Procedure
from ..ir.stmt import Loop
from ..obs.tracer import NULL_TRACER, NullTracer
from .costmodel import (CostTracer, ExecutionProfile, total_time)
from .interp import Interpreter, Tracer
from .machine import BROADWELL_18, MachineModel
from .memory import Memory
from .racecheck import Race, RaceDetector

logger = logging.getLogger(__name__)


def _loop_counter_names(proc: Procedure) -> List[str]:
    return [s.var for s in proc.statements() if isinstance(s, Loop)]


def _array_sizes(memory: Memory) -> Dict[str, int]:
    return {name: storage.size for name, storage in memory.arrays.items()}


@dataclass
class ProfiledRun:
    """One execution with its cost profile."""

    memory: Memory
    profile: ExecutionProfile

    def simulated_seconds(self, threads: int,
                          machine: MachineModel = BROADWELL_18) -> float:
        return total_time(self.profile, machine, threads)


def profile_run(
    proc: Procedure,
    bindings: Mapping[str, object] = (),
    extents: Mapping[str, Sequence[int]] = (),
    *,
    tracer: NullTracer = NULL_TRACER,
) -> ProfiledRun:
    """Run *proc* once under the cost tracer.

    ``tracer`` is the observability sink (:mod:`repro.obs`), not the
    cost tracer: the interpretation shows up as one kernel-level span.
    """
    with tracer.span("runtime.profile_run", proc=proc.name):
        memory = Memory.for_procedure(proc, bindings, extents)
        cost = CostTracer(_loop_counter_names(proc), _array_sizes(memory))
        Interpreter(proc, memory, cost).run()
        logger.debug("profiled %s: %d parallel loop(s)", proc.name,
                     len(cost.profile.parallel_loops))
        return ProfiledRun(memory, cost.profile)


def simulate_thread_sweep(
    run: ProfiledRun,
    threads: Sequence[int],
    machine: MachineModel = BROADWELL_18,
) -> Dict[int, float]:
    """Simulated wall time for each thread count."""
    return {t: run.simulated_seconds(t, machine) for t in threads}


@dataclass
class RaceReport:
    races: List[Race]
    memory: Memory

    @property
    def race_free(self) -> bool:
        return not self.races

    def __str__(self) -> str:
        if self.race_free:
            return "no races detected"
        lines = [f"{len(self.races)} race(s) detected:"]
        lines += [f"  {r}" for r in self.races[:10]]
        return "\n".join(lines)


def detect_races(
    proc: Procedure,
    bindings: Mapping[str, object] = (),
    extents: Mapping[str, Sequence[int]] = (),
    *,
    tracer: NullTracer = NULL_TRACER,
    deadline=None,
) -> RaceReport:
    """Run *proc* once under the dynamic race detector.

    ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) interrupts a
    pathological kernel between loop iterations with
    :class:`~repro.runtime.interp.InterpreterTimeout`.
    """
    with tracer.span("runtime.detect_races", proc=proc.name):
        memory = Memory.for_procedure(proc, bindings, extents)
        detector = RaceDetector()
        Interpreter(proc, memory, detector, deadline=deadline).run()
        if detector.races:
            logger.warning("%s: %d race(s) detected", proc.name,
                           len(detector.races))
        return RaceReport(detector.races, memory)
