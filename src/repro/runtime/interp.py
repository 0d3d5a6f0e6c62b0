"""Reference interpreter for the mini-language.

Executes procedures over a :class:`~repro.runtime.memory.Memory`. The
interpreter is the semantic ground truth: AD correctness tests compare
interpreted adjoints against finite differences, and the parallel
executor drives it iteration-by-iteration to attribute costs and detect
races.

Each :meth:`Interpreter.run` runs the procedure as one emitted Python
function: :mod:`repro.runtime.emit` writes, compiles (once per distinct
source) and calls it, and owns every name that code uses. This module
keeps the interface and the language's semantics. A callback the
tracer inherits from :class:`Tracer`'s no-op is never called. Errors
(bounds, tape, unknown names, bad intrinsics) are raised when the
offending node executes, never while emitting.

Parallel loops are executed sequentially in iteration order (which is a
valid schedule; correct parallel programs are schedule-independent).
A :class:`Tracer` receives fine-grained events — operation counts,
memory accesses with thread attribution, tape traffic — so race
detectors and the audit's oracles can observe execution without
touching semantics. The event stream (which callbacks, in which order,
with which arguments) is the interface: ``ref`` is always the exact
:class:`ArrayRef` node of the access.

Operation counting is the one exception. A tracer that sets
:attr:`Tracer.op_counter` (the cost model's
:class:`~repro.runtime.costmodel.CostTracer`) receives only the four
parallel-loop callbacks; the emitter instead sums, per *region*, the
counts each event would have added, and charges them with one call per
execution of the region. A region is the procedure body, an ``if``
branch, a loop body or the right operand of ``.and.``/``.or.``; loop
bounds and conditions belong to the enclosing region. A sequential loop
charges ``trips x`` its body's counts once, before iterating; a parallel
loop charges its body once per iteration, after
``on_parallel_iteration_begin``. Every count is static apart from two,
which stay per access: a non-streaming access inside a parallel loop
adds its cache line to the counter's gather-line set, and inside an
atomic update's right-hand side a load of the updated array counts only
when its location differs from the target's.

Tape semantics: ``push``/``pop`` operate on named channels. Inside a
parallel loop every iteration owns an independent stack (keyed by the
loop counter's value), mirroring Tapenade's per-thread stacks while
staying deterministic; outside parallel loops a channel is one global
stack.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.expr import int_div
from ..ir.program import Procedure
from ..ir.stmt import Loop
from .memory import Memory


class TapeError(RuntimeError):
    """Pop from an empty tape channel (an AD engine bug if it happens)."""


class InterpreterError(RuntimeError):
    """A runtime semantic error (bad intrinsic argument, etc.)."""


class InterpreterTimeout(RuntimeError):
    """A cooperative deadline expired mid-execution.

    The interpreter polls its optional ``deadline`` between loop
    iterations (the only places a mini-language program can spend
    unbounded time), so a pathological kernel is interrupted within one
    iteration instead of stalling its caller. The audit harness maps
    this to a *truncated* case, never a soundness violation.
    """


class Tracer:
    """Event sink; the default implementation ignores everything."""

    #: Opt-in to counting operations per region, read once per run (see
    #: the module docstring). ``None`` (the default) leaves the tracer
    #: to its callbacks. Otherwise an object providing
    #: ``streaming(ref) -> bool`` (is this reference prefetch-friendly),
    #: ``gather_lines`` (a set the tracer clears in place when a
    #: parallel loop begins; non-streaming accesses inside parallel
    #: loops add ``(array, flat >> 3)`` to it) and ``charger(counts)``,
    #: which takes a region's ``{OpCounts field: count}`` and returns
    #: ``charge(times=1)``, adding the counts ``times`` over to the
    #: current slice. The tracer then receives only the four
    #: ``on_parallel_*`` callbacks.
    op_counter = None

    def on_flop(self, n: int = 1) -> None: ...

    def on_intrinsic(self, name: str) -> None: ...

    def on_read(self, array: str, flat: int, ref=None) -> None: ...

    def on_write(self, array: str, flat: int, *, atomic: bool, ref=None) -> None: ...

    def on_scalar_read(self, name: str) -> None: ...

    def on_scalar_write(self, name: str) -> None: ...

    def on_push(self) -> None: ...

    def on_pop(self) -> None: ...

    def on_atomic_begin(self, array: str, flat: int) -> None: ...

    def on_atomic_end(self) -> None: ...

    def on_parallel_loop_begin(self, loop: Loop, iterations: Sequence[int]) -> None: ...

    def on_parallel_iteration_begin(self, loop: Loop, value: int) -> None: ...

    def on_parallel_iteration_end(self, loop: Loop, value: int) -> None: ...

    def on_parallel_loop_end(self, loop: Loop) -> None: ...


NULL_TRACER = Tracer()


def trip_count(start: int, stop: int, step: int) -> int:
    """Fortran do-loop trip count, never negative."""
    if step == 0:
        raise InterpreterError("loop step is zero")
    return max((stop - start + step) // step, 0)


def loop_iterations(start: int, stop: int, step: int) -> List[int]:
    """Fortran do-loop trip values."""
    return list(range(start, start + trip_count(start, stop, step) * step,
                      step))


def divide(a, b):
    """Fortran ``/``. Scalar types come from the bindings, so whether
    the division truncates is decided per call, not when emitting."""
    if isinstance(a, int) and isinstance(b, int):
        return int_div(a, b)
    return a / b


def _mod(a, b):
    """Fortran ``mod``: the remainder takes the sign of ``a``; exact on
    integers, ``math.fmod`` on reals."""
    if b == 0:
        raise InterpreterError(f"mod({a}, {b}): zero divisor")
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.fmod(a, b)
        except ValueError as exc:
            raise InterpreterError(f"mod({a}, {b}): {exc}") from exc
    a, b = int(a), int(b)
    return a - b * int_div(a, b)


def _unary(name: str, fn: Callable):
    def intrinsic(x, *_):
        try:
            return fn(x)
        except ValueError as exc:
            raise InterpreterError(f"{name}({x}): {exc}") from exc
    return intrinsic


#: Intrinsic implementations over the evaluated arguments (``size``,
#: which takes an array name, is emitted separately).
INTRINSICS: Dict[str, Callable] = {
    **{name: _unary(name, fn) for name, fn in (
        ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
        ("exp", math.exp), ("log", math.log), ("sqrt", math.sqrt),
        ("tanh", math.tanh), ("abs", abs))},
    "max": lambda *args: max(args),
    "min": lambda *args: min(args),
    "mod": _mod,
    "int": lambda x, *_: int(x),
    "real": lambda x, *_: float(x),
    "sign": lambda a, b: abs(a) if b >= 0 else -abs(a),
}


class Interpreter:
    """Executes one procedure invocation."""

    def __init__(self, proc: Procedure, memory: Memory,
                 tracer: Tracer = NULL_TRACER, *, deadline=None) -> None:
        self.proc = proc
        self.memory = memory
        self.tracer = tracer
        #: Optional :class:`repro.resilience.deadline.Deadline`-shaped object
        #: (anything with ``expired()``), polled once per loop
        #: iteration; ``None`` (the default) is never polled.
        self.deadline = deadline
        self.tape: Dict[Tuple[str, Optional[int]], List[float]] = {}
        self._par_key: Optional[int] = None
        self._in_parallel: Optional[Loop] = None

    def run(self) -> Memory:
        """Run the procedure as one emitted Python function
        (:func:`repro.runtime.emit.run`)."""
        from .emit import run  # emit builds on this module's names
        run(self)
        return self.memory


def run_procedure(
    proc: Procedure,
    bindings: Mapping[str, object] = (),
    extents: Mapping[str, Sequence[int]] = (),
    tracer: Tracer = NULL_TRACER,
    *,
    deadline=None,
) -> Memory:
    """Allocate memory, run, return the final memory."""
    memory = Memory.for_procedure(proc, bindings, extents)
    Interpreter(proc, memory, tracer, deadline=deadline).run()
    return memory

