"""The experiment harness: program versions, thread sweeps, speedups.

For each kernel the paper compares five program versions (§7):

* **Primal** — the original parallel function (plus its pragma-free
  serial build as the speedup baseline);
* **Adjoint Serial** — reverse mode, no OpenMP pragmas;
* **Adjoint FormAD** — safeguards dropped where proven safe;
* **Adjoint Atomic** — every shared adjoint increment atomic;
* **Adjoint Reduction** — shared adjoint arrays privatized.

Beyond the paper, two related-work safeguards from the strategy
registry ride along in every sweep:

* **Adjoint Preaccumulate** — iteration-local adjoint buffers with one
  atomic flush per distinct location (arXiv 2405.07819);
* **Adjoint Transposed** — unit-affine increments hoisted into loops
  over the adjoint's write footprint (arXiv 1907.02818).

Each version is interpreted once at reduced size under the cost tracer,
then extrapolated to the paper's problem size and simulated across
thread counts. Speedups divide the respective *serial* version's time,
exactly like the paper ("when we report parallel speedup numbers, we
use the serial version without any OpenMP pragmas as the baseline").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .. import differentiate
from ..ad import ReverseResult
from ..ir.program import Procedure
from ..ir.stmt import strip_parallel
from ..obs.tracer import NULL_TRACER, NullTracer
from ..runtime import BROADWELL_18, MachineModel, profile_run
from ..runtime.costmodel import total_time
from .paper_reference import PAPER_THREADS
from .specs import KernelSpec

logger = logging.getLogger(__name__)

#: The adjoint strategies measured by the figures: the paper's three
#: program versions plus the two related-work registry strategies.
ADJOINT_STRATEGIES = ("formad", "atomic", "reduction", "preaccumulate",
                      "transposed")


def _serialized(proc: Procedure) -> Procedure:
    return Procedure(proc.name + "_serial", list(proc.params),
                     dict(proc.locals), strip_parallel(proc.body))


def _adjoint_bindings(spec: KernelSpec, adj: ReverseResult) -> Dict[str, object]:
    bindings = dict(spec.bindings)
    for name in set(spec.independents) | set(spec.dependents):
        bname = adj.adjoint_name(name)
        base = np.asarray(bindings[name], dtype=float)
        if name in spec.dependents:
            seed = np.ones(base.shape) if base.shape else 1.0
        else:
            seed = np.zeros(base.shape) if base.shape else 0.0
        bindings[bname] = seed
    return bindings


@dataclass
class VariantResult:
    """Simulated wall times of one program version."""

    label: str
    times: Dict[int, float]          # threads -> seconds (parallel builds)
    serial_time: Optional[float] = None  # pragma-free build (baseline)

    def best(self) -> float:
        return min(self.times.values()) if self.times else float("inf")

    def best_threads(self) -> int:
        return min(self.times, key=self.times.get)

    def speedups(self, baseline: float) -> Dict[int, float]:
        return {t: baseline / v for t, v in self.times.items()}


@dataclass
class KernelExperiment:
    """All program versions of one kernel (one paper figure pair)."""

    spec: KernelSpec
    threads: Sequence[int]
    primal: VariantResult
    adjoints: Dict[str, VariantResult]
    adjoint_serial_time: float

    @property
    def primal_serial_time(self) -> float:
        assert self.primal.serial_time is not None
        return self.primal.serial_time

    def primal_speedups(self) -> Dict[int, float]:
        return self.primal.speedups(self.primal_serial_time)

    def adjoint_speedups(self, strategy: str) -> Dict[int, float]:
        return self.adjoints[strategy].speedups(self.adjoint_serial_time)


def _simulate_parallel(proc: Procedure, bindings: Mapping[str, object],
                       spec: KernelSpec, threads: Sequence[int],
                       machine: MachineModel,
                       tracer: NullTracer = NULL_TRACER) -> Dict[int, float]:
    run = profile_run(proc, bindings, tracer=tracer)
    return {
        t: total_time(run.profile, machine, t, iter_scale=spec.iter_scale,
                      invocation_scale=spec.invocation_scale,
                      elem_scale=spec.elem_scale)
        for t in threads
    }


def _simulate_serial(proc: Procedure, bindings: Mapping[str, object],
                     spec: KernelSpec, machine: MachineModel,
                     tracer: NullTracer = NULL_TRACER) -> float:
    """A pragma-free build: every op lands in the serial segment, which
    must be scaled by both the trip-count and repetition factors."""
    run = profile_run(proc, bindings, tracer=tracer)
    assert not run.profile.parallel_loops
    return (run.profile.serial.serial_seconds(machine)
            * spec.iter_scale * spec.invocation_scale)


def run_kernel_experiment(
    spec: KernelSpec,
    *,
    threads: Sequence[int] = PAPER_THREADS,
    machine: MachineModel = BROADWELL_18,
    strategies: Sequence[str] = ADJOINT_STRATEGIES,
    tracer: NullTracer = NULL_TRACER,
) -> KernelExperiment:
    """Build, differentiate, interpret, and simulate one kernel.

    The program versions (primal parallel/serial, adjoint serial, one
    adjoint per strategy) run one after another, each under an
    ``experiment.variant`` span, so a trace attributes every
    interpretation to the program version that caused it.
    """

    def primal_parallel() -> VariantResult:
        times = _simulate_parallel(spec.proc, spec.bindings, spec,
                                   threads, machine, tracer)
        serial = _simulate_serial(_serialized(spec.proc), spec.bindings,
                                  spec, machine, tracer)
        return VariantResult("primal", times, serial)

    def adjoint_serial() -> float:
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy="serial")
        return _simulate_serial(adj.procedure, _adjoint_bindings(spec, adj),
                                spec, machine, tracer)

    def adjoint_variant(strategy: str) -> Callable[[], VariantResult]:
        def run() -> VariantResult:
            adj = differentiate(spec.proc, spec.independents, spec.dependents,
                                strategy=strategy)
            times = _simulate_parallel(adj.procedure,
                                       _adjoint_bindings(spec, adj),
                                       spec, threads, machine, tracer)
            return VariantResult(f"adjoint-{strategy}", times)
        return run

    def traced(task: Callable, label: str):
        with tracer.span("experiment.variant", kernel=spec.name,
                         variant=label):
            result = task()
        logger.info("%s: simulated %s", spec.name, label)
        return result

    labels = ["primal", "adjoint-serial"] + [f"adjoint-{s}"
                                             for s in strategies]
    tasks: List[Callable] = [primal_parallel, adjoint_serial]
    tasks += [adjoint_variant(s) for s in strategies]
    with tracer.span("experiment.kernel", kernel=spec.name):
        results = [traced(task, label) for task, label in zip(tasks, labels)]

    primal, adjoint_serial_time = results[0], results[1]
    adjoints = {strategy: result
                for strategy, result in zip(strategies, results[2:])}
    return KernelExperiment(spec, list(threads), primal, adjoints,
                            adjoint_serial_time)


def format_figure_pair(exp: KernelExperiment, paper_caption: str = "") -> str:
    """Text rendering of one absolute-time + speedup figure pair."""
    lines = [f"=== {exp.spec.name} ==="]
    if paper_caption:
        lines.append(f"(paper: {paper_caption})")
    lines.append(f"primal serial:   {exp.primal_serial_time:10.3f} s")
    lines.append(f"adjoint serial:  {exp.adjoint_serial_time:10.3f} s")
    header = "threads      " + "".join(f"{t:>12d}" for t in exp.threads)
    lines.append(header)

    def row(label: str, times: Dict[int, float]) -> str:
        return f"{label:<13}" + "".join(f"{times[t]:>12.3f}" for t in exp.threads)

    lines.append(row("primal", exp.primal.times))
    for strategy, variant in exp.adjoints.items():
        lines.append(row(f"adj-{strategy}", variant.times))
    lines.append("-- speedups vs the respective serial build --")

    def srow(label: str, sp: Dict[int, float]) -> str:
        return f"{label:<13}" + "".join(f"{sp[t]:>12.2f}" for t in exp.threads)

    lines.append(srow("primal", exp.primal_speedups()))
    for strategy in exp.adjoints:
        lines.append(srow(f"adj-{strategy}", exp.adjoint_speedups(strategy)))
    return "\n".join(lines)
