"""Reference interpreter for the mini-language.

Executes procedures over a :class:`~repro.runtime.memory.Memory`. The
interpreter is the semantic ground truth: AD correctness tests compare
interpreted adjoints against finite differences, and the parallel
executor drives it iteration-by-iteration to attribute costs and detect
races.

Each :meth:`Interpreter.run` first compiles the procedure into nested
closures, then calls the closure of its body. Compilation resolves
everything that cannot change during one run: statement and expression
kinds, operators, intrinsics, each array reference's storage, lower
bounds, extents and row-major strides, and the tracer's bound
callbacks. A callback the tracer inherits from :class:`Tracer`'s no-op
is never called. Nothing is cached across runs: the closures bind one
run's arrays and tracer, and statements are mutable. Errors (bounds,
tape, unknown names, bad intrinsics) are raised when the offending node
executes, never while compiling.

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
parallel-loop callbacks; the compiler instead sums, per *region*, the
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
import operator
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.expr import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, Expr,
                       Logical, LogicOp, Op, UnOp, Var, int_div)
from ..ir.program import Procedure
from ..ir.stmt import Assign, If, Loop, Pop, Push, Stmt
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

    #: Opt-in to counting operations per compiled region, read once per
    #: run (see the module docstring). ``None`` (the default) leaves the
    #: tracer to its callbacks. Otherwise an object providing
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


def loop_iterations(start: int, stop: int, step: int) -> List[int]:
    """Fortran do-loop trip values."""
    if step == 0:
        raise InterpreterError("loop step is zero")
    trips = (stop - start + step) // step
    if trips <= 0:
        return []
    return [start + k * step for k in range(trips)]


def _div(a, b):
    """Fortran ``/``. Scalar types come from the bindings, so whether
    the division truncates is decided per call, not at compile time."""
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
#: which takes an array name, is compiled separately).
_INTRINSICS: Dict[str, Callable] = {
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

_ARITH: Dict[Op, Callable] = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul,
    Op.DIV: _div, Op.POW: operator.pow,
}

_COMPARE: Dict[CmpOp, Callable] = {
    CmpOp.EQ: operator.eq, CmpOp.NE: operator.ne, CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le, CmpOp.GT: operator.gt, CmpOp.GE: operator.ge,
}


def _nothing() -> None:
    pass


def _raiser(error: type, message: str) -> Callable:
    def fail(*_):
        raise error(message)
    return fail


def _charged(fn: Callable, charge: Optional[Callable]) -> Callable:
    """*fn*, charging its region's counts before each call."""
    if charge is None:
        return fn

    def charged():
        charge()
        return fn()
    return charged


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
        """Compile the procedure for this run, then execute it."""
        compiler = _Compiler(self)
        _charged(*compiler.region(compiler.body, self.proc.body))()
        return self.memory


class _Compiler:
    """Turns one run's statements and expressions into closures."""

    def __init__(self, interp: Interpreter) -> None:
        self.interp = interp
        self.memory = interp.memory
        self.scalars = interp.memory.scalars
        self.arrays = interp.memory.arrays
        tracer = interp.tracer
        self.counter = tracer.op_counter
        # name -> bound callback, or None where the tracer inherits the
        # no-op or counts by region (then the call is compiled out).
        self.cb: Dict[str, Optional[Callable]] = {}
        for name, noop in vars(Tracer).items():
            if name.startswith("on_"):
                method = getattr(tracer, name)
                inherited = getattr(method, "__func__", None) is noop
                counted = (self.counter is not None
                           and not name.startswith("on_parallel_"))
                self.cb[name] = None if inherited or counted else method
        # Counting state while compiling: the current region's counts,
        # the gather-line set's ``add`` inside a parallel loop body, and
        # the updated array inside an atomic update's RHS; at run time,
        # each atomic update's array -> its target offset.
        self.counts: Optional[Counter] = None
        self.lines: Optional[Callable] = None
        self.rmw: Optional[str] = None
        self.targets = None if self.counter is None else {}

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def region(self, compile: Callable, node) -> Tuple[Callable, Optional[Callable]]:
        """``(closure, charge)`` of *node* compiled as its own counting
        region; ``charge`` is ``None`` when the tracer does not count or
        the region counts nothing."""
        if self.counter is None:
            return compile(node), None
        outer, self.counts = self.counts, Counter()
        fn = compile(node)
        counts, self.counts = self.counts, outer
        return fn, self.counter.charger(counts) if counts else None

    def count(self, field: str, n: int = 1) -> None:
        """Add *n* to *field* of the region being compiled."""
        if self.counts is not None:
            self.counts[field] += n

    def access(self, ref: ArrayRef) -> Tuple[str, Optional[Callable]]:
        """The ``OpCounts`` field of a non-atomic access through *ref*,
        and the gather-line set's ``add`` if the access must note its
        line (non-streaming, inside a parallel loop)."""
        if self.counter.streaming(ref):
            return "stream_mem", None
        return "gather_mem", self.lines

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def body(self, stmts: Sequence[Stmt]) -> Callable[[], None]:
        fns = tuple(self.stmt(s) for s in stmts)
        if not fns:
            return _nothing
        if len(fns) == 1:
            return fns[0]

        def run_body():
            for fn in fns:
                fn()
        return run_body

    def stmt(self, stmt: Stmt) -> Callable[[], None]:
        if isinstance(stmt, Assign):
            if stmt.atomic and isinstance(stmt.target, ArrayRef):
                return self.atomic_update(stmt)
            return self.assign(stmt.target, self.expr(stmt.value))
        if isinstance(stmt, If):
            cond = self.expr(stmt.cond)
            then = _charged(*self.region(self.body, stmt.then_body))
            orelse = _charged(*self.region(self.body, stmt.else_body))

            def if_():
                if cond():
                    then()
                else:
                    orelse()
            return if_
        if isinstance(stmt, Loop):
            return self.loop(stmt)
        if isinstance(stmt, Push):
            return self.push(stmt)
        if isinstance(stmt, Pop):
            return self.pop(stmt)
        raise TypeError(f"cannot execute {stmt!r}")  # pragma: no cover

    def atomic_update(self, stmt: Assign) -> Callable[[], None]:
        """An ``!$omp atomic`` array update: the load of the target
        location inside the RHS is part of the atomic read-modify-write,
        so tracers must not see it as an independent plain read."""
        target = stmt.target
        name, locate = target.name, self.locator(target)
        begin, end = self.cb["on_atomic_begin"], self.cb["on_atomic_end"]
        write = self.cb["on_write"]
        if self.counter is None:
            value = self.expr(stmt.value)
        else:
            # One atomic; ``begin`` records the target's offset for the
            # RHS's loads of the same array.
            self.count("atomics")
            begin, self.rmw = self.targets.__setitem__, name
            value = self.expr(stmt.value)
            self.rmw = None
        flat = self.flat(name)

        def atomic():
            off = locate()
            if begin is not None:
                begin(name, off)
            try:
                v = value()
            finally:
                if end is not None:
                    end()
            flat[off] = v
            if write is not None:
                write(name, off, atomic=True, ref=target)
        return atomic

    def loop(self, loop: Loop) -> Callable[[], None]:
        interp, var = self.interp, loop.var
        start, stop = self.expr(loop.start), self.expr(loop.stop)
        step, outer_lines = self.expr(loop.step), self.lines
        if loop.parallel and self.counter is not None:
            self.lines = self.counter.gather_lines.add
        body, charge = self.region(self.body, loop.body)
        self.lines = outer_lines
        set_counter = (self.scalars.__setitem__ if var in self.scalars
                       else self.memory.set_scalar)
        deadline = interp.deadline
        expired = None if deadline is None else deadline.expired
        message = (f"deadline expired inside loop over {var!r} "
                   f"of {interp.proc.name!r}")

        def bounds():
            first, last, stride = int(start()), int(stop()), int(step())
            return first, stride, loop_iterations(first, last, stride)

        if not loop.parallel:
            if charge is not None:
                loop_bounds = bounds

                def bounds():
                    first, stride, values = loop_bounds()
                    charge(len(values))
                    return first, stride, values

            def sequential():
                first, stride, values = bounds()
                for v in values:
                    if expired is not None and expired():
                        raise InterpreterTimeout(message)
                    set_counter(var, v)
                    body()
                # Fortran: the counter holds the first value past the
                # last iteration.
                set_counter(var, first + len(values) * stride)
            return sequential

        body = _charged(body, charge)
        loop_begin = self.cb["on_parallel_loop_begin"]
        it_begin = self.cb["on_parallel_iteration_begin"]
        it_end = self.cb["on_parallel_iteration_end"]
        loop_end = self.cb["on_parallel_loop_end"]

        def parallel():
            if interp._in_parallel is not None:
                raise InterpreterError(
                    "nested parallel loops are not supported")
            _, _, values = bounds()
            if loop_begin is not None:
                loop_begin(loop, values)
            interp._in_parallel = loop
            try:
                for v in values:
                    if expired is not None and expired():
                        raise InterpreterTimeout(message)
                    interp._par_key = v
                    set_counter(var, v)
                    if it_begin is not None:
                        it_begin(loop, v)
                    body()
                    if it_end is not None:
                        it_end(loop, v)
            finally:
                interp._par_key = None
                interp._in_parallel = None
            if loop_end is not None:
                loop_end(loop)
        return parallel

    def push(self, stmt: Push) -> Callable[[], None]:
        interp, tape, channel = self.interp, self.interp.tape, stmt.channel
        value, on_push = self.expr(stmt.value), self.cb["on_push"]
        self.count("tape_ops")

        def push():
            v = value()
            tape.setdefault((channel, interp._par_key), []).append(v)
            if on_push is not None:
                on_push()
        return push

    def pop(self, stmt: Pop) -> Callable[[], None]:
        interp, tape, channel = self.interp, self.interp.tape, stmt.channel
        on_pop = self.cb["on_pop"]
        self.count("tape_ops")

        def popped():
            stack = tape.get((channel, interp._par_key))
            if not stack:
                raise TapeError(
                    f"pop from empty tape channel {channel!r} "
                    f"(iteration key {interp._par_key!r})")
            if on_pop is not None:
                on_pop()
            return stack.pop()
        return self.assign(stmt.target, popped)

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------
    def flat(self, name: str):
        """The flat view of array *name*, or ``None`` when it does not
        exist (its locator then raises ``KeyError``)."""
        storage = self.arrays.get(name)
        return None if storage is None else storage.flat

    def locator(self, ref: ArrayRef) -> Callable[[], int]:
        """A closure that evaluates *ref*'s subscripts in order, each
        through ``int()``, and returns the location's flat offset; the
        error case is handed to ``ArrayStorage._offset`` so that
        ``BoundsError`` keeps its message."""
        storage = self.arrays.get(ref.name)
        names = [i.name for i in ref.indices
                 if isinstance(i, Var) and i.name in self.scalars]
        if (storage is not None and len(names) == len(ref.indices)
                == len(storage.lowers) <= 2):
            return self.name_locator(storage, names)
        fns = [self.expr(i) for i in ref.indices]
        if storage is None:
            arrays, name = self.arrays, ref.name

            def missing():
                [int(f()) for f in fns]
                return arrays[name]  # raises KeyError
            return missing
        check = storage._offset
        if len(fns) != len(storage.lowers) or len(fns) > 2:
            flat_index = storage.flat_index
            return lambda: flat_index([int(f()) for f in fns])
        if len(fns) == 1:
            (f0,), (l0,), (n0,) = fns, storage.lowers, storage.shape

            def locate1():
                p0 = int(f0()) - l0
                if 0 <= p0 < n0:
                    return p0
                check([p0 + l0])
            return locate1
        (f0, f1), (l0, l1) = fns, storage.lowers
        (n0, n1), s0 = storage.shape, storage.strides[0]

        def locate2():
            p0 = int(f0()) - l0
            p1 = int(f1()) - l1
            if 0 <= p0 < n0 and 0 <= p1 < n1:
                return p0 * s0 + p1
            check([p0 + l0, p1 + l1])
        return locate2

    def name_locator(self, storage, names: List[str]) -> Callable[[], int]:
        """:meth:`locator` for one or two subscripts that are all scalar
        names, read inline instead of through their closures."""
        scalars, read = self.scalars, self.cb["on_scalar_read"]
        check = storage._offset
        self.count("scalar_ops", len(names))
        if len(names) == 1:
            (n0,), (l0,), (e0,) = names, storage.lowers, storage.shape

            def locate_name():
                if read is not None:
                    read(n0)
                p0 = int(scalars[n0]) - l0
                if 0 <= p0 < e0:
                    return p0
                check([p0 + l0])
            return locate_name
        (n0, n1), (l0, l1), (e0, e1) = names, storage.lowers, storage.shape
        s0 = storage.strides[0]

        def locate_names():
            if read is not None:
                read(n0)
            p0 = int(scalars[n0]) - l0
            if read is not None:
                read(n1)
            p1 = int(scalars[n1]) - l1
            if 0 <= p0 < e0 and 0 <= p1 < e1:
                return p0 * s0 + p1
            check([p0 + l0, p1 + l1])
        return locate_names

    def assign(self, target: Var | ArrayRef,
               value: Callable[[], object]) -> Callable[[], None]:
        """A plain (non-atomic) store of ``value()`` into *target*; the
        value is evaluated before the target's subscripts."""
        name = target.name
        if isinstance(target, Var):
            scalars, write = self.scalars, self.cb["on_scalar_write"]
            self.count("scalar_ops")
            if name not in scalars:
                set_scalar = self.memory.set_scalar
                return lambda: set_scalar(name, value())  # raises KeyError
            if write is None:
                def assign_scalar():
                    scalars[name] = value()
                return assign_scalar

            def assign_scalar_traced():
                scalars[name] = value()
                write(name)
            return assign_scalar_traced
        locate, flat = self.locator(target), self.flat(name)
        write, lines = self.cb["on_write"], None
        if self.counter is not None:
            field, lines = self.access(target)
            self.count(field)
        if lines is not None:
            def assign_gather():
                v = value()
                off = locate()
                flat[off] = v
                lines((name, off >> 3))
            return assign_gather
        if write is None:
            def assign_array():
                v = value()
                flat[locate()] = v
            return assign_array

        def assign_array_traced():
            v = value()
            off = locate()
            flat[off] = v
            write(name, off, atomic=False, ref=target)
        return assign_array_traced

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, expr: Expr) -> Callable[[], object]:
        if isinstance(expr, Const):
            value = expr.value
            return lambda: value
        if isinstance(expr, Var):
            name, scalars = expr.name, self.scalars
            read = self.cb["on_scalar_read"]
            self.count("scalar_ops")
            if read is None:
                return lambda: scalars[name]

            def var():
                read(name)
                return scalars[name]
            return var
        if isinstance(expr, ArrayRef):
            name, locate = expr.name, self.locator(expr)
            flat, read = self.flat(name), self.cb["on_read"]
            item = None if flat is None else flat.item
            if self.counter is not None:
                return self.counted_load(expr, locate, item)
            if read is None:
                return lambda: item(locate())

            def load():
                off = locate()
                read(name, off, ref=expr)
                return item(off)
            return load
        if isinstance(expr, (BinOp, Compare)):
            left, right = self.expr(expr.left), self.expr(expr.right)
            table = _ARITH if isinstance(expr, BinOp) else _COMPARE
            fn = table.get(expr.op) or _raiser(
                InterpreterError, f"bad binary op {expr.op}")
            flop = self.cb["on_flop"]
            self.count("flops")
            if flop is None:
                return lambda: fn(left(), right())

            def binop():
                a = left()
                b = right()
                flop()
                return fn(a, b)
            return binop
        if isinstance(expr, UnOp):
            operand, flop = self.expr(expr.operand), self.cb["on_flop"]
            self.count("flops")
            if flop is None:
                return lambda: -operand()

            def neg():
                flop()
                return -operand()
            return neg
        if isinstance(expr, Call):
            return self.call(expr)
        if isinstance(expr, Logical):
            a = self.expr(expr.operands[0])
            if expr.op is LogicOp.NOT:
                return lambda: not a()
            # The right operand short-circuits: its own region.
            b = _charged(*self.region(self.expr, expr.operands[1]))
            if expr.op is LogicOp.AND:
                return lambda: bool(a()) and bool(b())
            return lambda: bool(a()) or bool(b())
        raise TypeError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def counted_load(self, ref: ArrayRef, locate: Callable,
                     item: Callable) -> Callable[[], object]:
        """A load through *ref* under region counting: counted in the
        region, except that inside an atomic update's RHS a load of the
        updated array counts itself, and only when it is not the
        target location."""
        name = ref.name
        field, lines = self.access(ref)
        if self.rmw == name:
            targets, charge = self.targets, self.counter.charger({field: 1})

            def load_rmw():
                off = locate()
                if off != targets[name]:
                    charge()
                    if lines is not None:
                        lines((name, off >> 3))
                return item(off)
            return load_rmw
        self.count(field)
        if lines is None:
            return lambda: item(locate())

        def load_gather():
            off = locate()
            lines((name, off >> 3))
            return item(off)
        return load_gather

    def call(self, call: Call) -> Callable[[], object]:
        func, on_intrinsic = call.func, self.cb["on_intrinsic"]
        self.count("intrinsics")
        if func == "size":
            # size(a[, dim]) takes the array *name*, which must not be
            # evaluated as data.
            target = call.args[0] if call.args else None
            if not isinstance(target, (Var, ArrayRef)):
                impl = _raiser(InterpreterError,
                               "size() expects an array name")
            else:
                arrays, name = self.arrays, target.name
                dim = (self.expr(call.args[1]) if len(call.args) >= 2
                       else None)

                def impl():
                    storage = arrays[name]
                    if dim is not None:
                        return storage.shape[int(dim()) - 1]
                    return storage.size
            fns: List[Callable] = []
        else:
            impl = _INTRINSICS.get(func) or _raiser(
                InterpreterError, f"unknown intrinsic {func!r}")
            fns = [self.expr(a) for a in call.args]

        def intrinsic():
            if on_intrinsic is not None:
                on_intrinsic(func)
            return impl(*[f() for f in fns])
        return intrinsic


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
