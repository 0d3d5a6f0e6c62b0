"""Execution substrate: numpy-backed interpreter, simulated SMP machine
with an operation-level cost model, and a dynamic race detector.

Plays the role of the paper's test hardware (18-core Broadwell socket,
Intel Fortran + OpenMP): real shared-memory parallel speedup is not
reachable from pure Python, so the *figures* are regenerated from a
structural cost model while *correctness* (values, race freedom) is
checked by real interpretation.
"""

from .memory import ArrayStorage, BoundsError, Memory
from .interp import (Interpreter, InterpreterError, InterpreterTimeout,
                     TapeError, Tracer, loop_iterations, run_procedure,
                     NULL_TRACER)
from . import emit  # noqa: F401  (parsed on import, not in the first run)
from .machine import BROADWELL_18, MachineModel
from .costmodel import (CostTracer, ExecutionProfile, OpCounts,
                        ParallelLoopRecord, loop_time, static_chunks,
                        total_time)
from .racecheck import Race, RaceDetector
from .executor import (ProfiledRun, RaceReport, detect_races, profile_run,
                       simulate_thread_sweep)

__all__ = [
    "ArrayStorage", "BoundsError", "Memory",
    "Interpreter", "InterpreterError", "InterpreterTimeout",
    "TapeError", "Tracer",
    "loop_iterations", "run_procedure", "NULL_TRACER",
    "BROADWELL_18", "MachineModel",
    "CostTracer", "ExecutionProfile", "OpCounts", "ParallelLoopRecord",
    "loop_time", "static_chunks", "total_time",
    "Race", "RaceDetector",
    "ProfiledRun", "RaceReport", "detect_races", "profile_run",
    "simulate_thread_sweep",
]
