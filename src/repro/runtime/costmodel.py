"""Operation counting and simulated-time computation.

The :class:`CostTracer` rides along an interpreted execution and
collects :class:`OpCounts` — split into serial segments and per-
iteration counts of each parallel loop. :func:`loop_time` then turns a
parallel loop's profile into simulated wall time for a given thread
count: static chunking over the actual per-iteration costs (so data-
dependent load imbalance, like GFMC's spin-exchange, emerges naturally),
a roofline-style split between streaming and gather memory traffic,
atomic contention, reduction privatization/merge, and fork/join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ad.strategies import registered_strategies
from ..ir.expr import ArrayRef, Const, Expr, Var, walk
from ..ir.stmt import Loop
from .interp import Tracer
from .machine import MachineModel


@dataclass
class OpCounts:
    """Operation counts of one execution slice."""

    flops: int = 0
    intrinsics: int = 0
    stream_mem: int = 0
    gather_mem: int = 0
    scalar_ops: int = 0
    atomics: int = 0
    tape_ops: int = 0

    def add(self, other: "OpCounts", times: int = 1) -> None:
        self.flops += other.flops * times
        self.intrinsics += other.intrinsics * times
        self.stream_mem += other.stream_mem * times
        self.gather_mem += other.gather_mem * times
        self.scalar_ops += other.scalar_ops * times
        self.atomics += other.atomics * times
        self.tape_ops += other.tape_ops * times

    def scaled(self, factor: float) -> "OpCounts":
        return OpCounts(
            flops=int(self.flops * factor),
            intrinsics=int(self.intrinsics * factor),
            stream_mem=int(self.stream_mem * factor),
            gather_mem=int(self.gather_mem * factor),
            scalar_ops=int(self.scalar_ops * factor),
            atomics=int(self.atomics * factor),
            tape_ops=int(self.tape_ops * factor),
        )

    def compute_seconds(self, machine: MachineModel) -> float:
        """Non-memory, non-atomic work."""
        return (self.flops * machine.flop_s
                + self.intrinsics * machine.intrinsic_s
                + self.scalar_ops * machine.scalar_s
                + self.tape_ops * machine.tape_s)

    def serial_seconds(self, machine: MachineModel) -> float:
        """Wall time of this slice executed by one thread, atomics
        uncontended."""
        return (self.compute_seconds(machine)
                + self.stream_mem * machine.stream_mem_s
                + self.gather_mem * machine.gather_mem_s
                + self.atomics * machine.atomic_s)

    @property
    def total_ops(self) -> int:
        return (self.flops + self.intrinsics + self.stream_mem
                + self.gather_mem + self.scalar_ops + self.atomics
                + self.tape_ops)


def classify_ref_streaming(ref: ArrayRef, counter_names: frozenset) -> bool:
    """Is this reference prefetch-friendly?

    Streaming = every subscript is an affine expression of loop counters
    and constants (no array indirection, no data-dependent scalars).
    """
    for idx in ref.indices:
        for node in walk(idx):
            if isinstance(node, ArrayRef):
                return False
            if isinstance(node, Var) and node.name not in counter_names:
                # A scalar that is not a loop counter: if it was computed
                # from indirection (e.g. GFMC's idd=mss(...)), accesses
                # through it are gathers. We cannot see the provenance
                # here, so data-dependent scalars count as gather unless
                # they are loop-invariant names (conservative).
                return False
    return True


@dataclass
class ParallelLoopRecord:
    """Per-iteration cost profile of one dynamic parallel loop instance."""

    loop: Loop
    iteration_values: List[int] = field(default_factory=list)
    per_iteration: List[OpCounts] = field(default_factory=list)
    #: Reduction arrays (name, element count) privatized by this loop.
    reduction_arrays: List[Tuple[str, int]] = field(default_factory=list)
    #: Distinct 64-byte cache lines touched by gather accesses: the
    #: loop's true bandwidth footprint (high line reuse => scaling).
    distinct_gather_lines: int = 0

    def total(self) -> OpCounts:
        out = OpCounts()
        for c in self.per_iteration:
            out.add(c)
        return out


@dataclass
class ExecutionProfile:
    """Everything the cost model needs from one run."""

    serial: OpCounts = field(default_factory=OpCounts)
    parallel_loops: List[ParallelLoopRecord] = field(default_factory=list)


class CostTracer(Tracer):
    """Collects an :class:`ExecutionProfile` during interpretation.

    It counts by compiled region (:attr:`Tracer.op_counter`, see
    :mod:`repro.runtime.interp`): the interpreter sums each region's
    operation counts when it compiles the run and charges them through
    :meth:`charger`, so the only callbacks this tracer receives are the
    four parallel-loop ones, which switch the slice being charged.
    """

    def __init__(self, counter_names: Sequence[str] = (),
                 array_sizes: Optional[Dict[str, int]] = None) -> None:
        self.profile = ExecutionProfile()
        self.op_counter = self
        self._current: OpCounts = self.profile.serial
        self._loop_record: Optional[ParallelLoopRecord] = None
        self._counters = frozenset(counter_names)
        self._array_sizes = array_sizes or {}
        #: ``(array, flat >> 3)`` of the running parallel loop's gather
        #: accesses; cleared in place, because compiled runs hold its
        #: ``add``.
        self.gather_lines: set = set()

    # -- region counting -------------------------------------------------
    def streaming(self, ref: ArrayRef) -> bool:
        return classify_ref_streaming(ref, self._counters)

    def charger(self, counts: Mapping[str, int]) -> Callable[..., None]:
        """``charge(times=1)``: add *counts* ``times`` over to the
        current slice."""
        static = OpCounts(**counts)

        def charge(times: int = 1) -> None:
            self._current.add(static, times)
        return charge

    # -- events ----------------------------------------------------------
    def on_parallel_loop_begin(self, loop: Loop, iterations: Sequence[int]) -> None:
        self.gather_lines.clear()
        record = ParallelLoopRecord(loop, list(iterations))
        for _, name in loop.reduction:
            size = self._array_sizes.get(name)
            if size is not None and size > 1:
                record.reduction_arrays.append((name, size))
        self.profile.parallel_loops.append(record)
        self._loop_record = record

    def on_parallel_iteration_begin(self, loop: Loop, value: int) -> None:
        assert self._loop_record is not None
        counts = OpCounts()
        self._loop_record.per_iteration.append(counts)
        self._current = counts

    def on_parallel_iteration_end(self, loop: Loop, value: int) -> None:
        self._current = self.profile.serial

    def on_parallel_loop_end(self, loop: Loop) -> None:
        if self._loop_record is not None:
            self._loop_record.distinct_gather_lines = len(self.gather_lines)
        self._loop_record = None
        self._current = self.profile.serial


def static_chunks(n_iterations: int, threads: int) -> List[Tuple[int, int]]:
    """OpenMP static schedule: contiguous [begin, end) slices."""
    chunks: List[Tuple[int, int]] = []
    base = n_iterations // threads
    extra = n_iterations % threads
    begin = 0
    for t in range(threads):
        size = base + (1 if t < extra else 0)
        chunks.append((begin, begin + size))
        begin += size
    return chunks


def loop_time(record: ParallelLoopRecord, machine: MachineModel,
              threads: int, *, iter_scale: float = 1.0,
              elem_scale: float = 1.0) -> float:
    """Simulated wall time of one parallel loop instance.

    ``iter_scale`` extrapolates a run profiled at reduced trip count to
    a larger one (per-thread work, atomics, and bandwidth terms scale
    linearly; fork/join does not). ``elem_scale`` scales the privatized
    reduction-array volume, for workloads whose array sizes grow with
    the problem size.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    iters = record.per_iteration
    if not iters:
        return machine.fork_join_cost(threads)
    # Static schedule: per-thread totals capture load imbalance.
    thread_compute: List[float] = []
    thread_stream: List[float] = []
    thread_gather: List[float] = []
    for begin, end in static_chunks(len(iters), threads):
        compute = stream = gather = 0.0
        for c in iters[begin:end]:
            compute += c.compute_seconds(machine)
            stream += c.stream_mem * machine.stream_mem_s
            gather += c.gather_mem * machine.gather_mem_s
        thread_compute.append(compute)
        thread_stream.append(stream)
        thread_gather.append(gather)
    # Roofline-style bandwidth saturation. Streaming traffic scales to
    # the bandwidth-saturating thread count; gather traffic is floored
    # by the loop's true footprint — the distinct cache lines it
    # touches — so high-line-reuse indirection (GFMC) keeps scaling
    # while low-reuse sweeps (Green-Gauss) saturate early.
    stream_total = sum(thread_stream) * iter_scale
    stream_floor = stream_total / min(threads, machine.stream_bw_threads)
    # Tape traffic streams through memory once out (push) and once back
    # (pop); per-thread stacks are far larger than caches at real
    # problem sizes, so they consume shared bandwidth: 8 bytes per op.
    tape_ops_total = sum(c.tape_ops for c in iters)
    tape_lines = tape_ops_total / 8.0
    gather_floor = ((record.distinct_gather_lines + tape_lines)
                    * machine.dram_line_s * iter_scale)
    per_thread = [
        (thread_compute[t] + thread_stream[t] + thread_gather[t]) * iter_scale
        for t in range(threads)
    ]
    # Core-bound work slows with the all-core turbo drop; bandwidth
    # floors are frequency-independent.
    body_time = max(max(per_thread) * machine.frequency_factor(threads),
                    stream_floor + gather_floor)
    time = body_time
    # Safeguard overhead is owned by the strategies themselves: each
    # registered strategy charges for the construct it emits (atomic
    # contention, reduction privatize/merge, ...). Scaled counts stay
    # floats — truncating them to int silently zeroed small-but-real
    # costs at fractional profiling scales.
    for strategy in registered_strategies():
        time += strategy.loop_cost(record, machine, threads,
                                   iter_scale=iter_scale,
                                   elem_scale=elem_scale)
    time += machine.fork_join_cost(threads)
    return time


def serial_region_time(counts: OpCounts, machine: MachineModel) -> float:
    return counts.serial_seconds(machine)


def total_time(profile: ExecutionProfile, machine: MachineModel,
               threads: int, *, iter_scale: float = 1.0,
               invocation_scale: float = 1.0,
               elem_scale: Optional[float] = None) -> float:
    """Simulated wall time of the whole profiled execution.

    ``invocation_scale`` multiplies the whole execution (more sweeps /
    repetitions of the same structure); ``iter_scale`` scales every
    parallel loop's trip count (a larger grid); ``elem_scale`` scales
    reduction-array volumes and defaults to ``iter_scale`` when not
    given — pass it explicitly for workloads whose arrays do not grow
    with the iteration count.
    """
    if elem_scale is None:
        elem_scale = iter_scale
    time = serial_region_time(profile.serial, machine) * invocation_scale
    for record in profile.parallel_loops:
        time += loop_time(record, machine, threads, iter_scale=iter_scale,
                          elem_scale=elem_scale) * invocation_scale
    return time
