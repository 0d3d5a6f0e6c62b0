"""The interpreter's code generator: each run as one Python function.

:meth:`~repro.runtime.interp.Interpreter.run` calls :func:`run`, which
has :class:`Emitter` write the procedure as the source of one function,
then compiles it (once per distinct source) and calls it. This module
is the one place that builds a run's code, and it owns every name the
emitted code uses (:data:`_GLOBALS`).

The source holds only the *shape* of the run. Every value is a
parameter ``_<k>`` of the function: array storages (whose flat view,
``flat.item``, lower bounds, extents, strides and bounds check the
function binds to locals on entry), constants, names, the tracer's
bound callbacks, region charges and the AST nodes handed to tracers.
So one code object serves every run of a shape: a procedure under
other bindings, extents or tracer instances, or another procedure of
the same structure. No name of the program becomes an identifier:
scalars are locals ``s<k>``, and temporaries are ``t``, ``p``, ``o``,
``k`` or ``f`` plus a number.

Scalars are loaded into locals on entry and written back to memory in
a ``finally``, so memory holds every write made before an error or an
expired deadline. Each array access runs its bounds check and its
row-major stride arithmetic inline (``flat.item(off)``, ``flat[off] =
v``). Within a straight-line block a subscript's offset is reused while
no scalar or array its subscripts read has been stored, where skipping
their evaluation cannot be observed (no scalar-read or flop callback;
region counts still add every subscript). Statements become lines and
expressions Python expressions; whatever must happen at one point of
the evaluation order (a bounds check, a callback, a charge) is a line
of its own, and an expression evaluated before such a line is first
stored in a temporary, so callbacks and errors keep their order.
CPython refuses more than 20 nested blocks, 100 indentation levels and
200 nested parentheses: deeper loops and branches move into nested
functions, deeper expressions into temporaries.
"""

from __future__ import annotations

import builtins
import threading
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.expr import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, Logical,
                       LogicOp, Op, UnOp, Var)
from ..ir.stmt import Assign, If, Loop, Pop, Push, walk_stmts
from .interp import (INTRINSICS, InterpreterError, InterpreterTimeout,
                     TapeError, Tracer, divide, loop_iterations, trip_count)

_ARITH = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.POW: "**", Op.DIV: "/"}
_COMPARE = {CmpOp.EQ: "==", CmpOp.NE: "!=", CmpOp.LT: "<", CmpOp.LE: "<=",
            CmpOp.GT: ">", CmpOp.GE: ">="}
#: ``(name, no-op)`` of every tracer callback.
_CALLBACKS = [(name, fn) for name, fn in vars(Tracer).items()
              if name.startswith("on_")]
_MAX_BLOCKS, _MAX_INDENT, _MAX_DEPTH = 12, 40, 40


def _fail(message: str, *operands):
    """The error of a node that cannot execute, raised after its
    operands (the arguments) are evaluated."""
    raise InterpreterError(message)


def _nested():
    raise InterpreterError("nested parallel loops are not supported")


def _tape_error(channel: str, key):
    raise TapeError(f"pop from empty tape channel {channel!r} "
                    f"(iteration key {key!r})")


#: The globals of every emitted function: helpers, no run value.
_GLOBALS = {"__builtins__": builtins, "_div": divide, "_fail": _fail,
            "_nested": _nested, "_tape_error": _tape_error,
            "_trips": trip_count, "_timeout": InterpreterTimeout,
            "loop_iterations": loop_iterations}

#: Emitted source -> code object of its function, least recently used
#: first. Every value the code uses is a parameter, so one code object
#: serves every run of its source.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_SIZE = 64
_CODE_LOCK = threading.Lock()


def _code(source: str) -> CodeType:
    """The (cached) code object of the function *source* defines."""
    with _CODE_LOCK:
        code = _CODE_CACHE.pop(source, None)
        if code is None:
            module = compile(source, "<interp>", "exec")
            code = next(c for c in module.co_consts
                        if isinstance(c, CodeType))
        _CODE_CACHE[source] = code
        while len(_CODE_CACHE) > _CODE_CACHE_SIZE:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
    return code


def run(interp) -> None:
    """Run *interp*'s procedure as one emitted function, over its
    memory, tracer, deadline and tape."""
    emitter = Emitter(interp)
    source = emitter.source()
    FunctionType(_code(source), _GLOBALS)(*emitter.args)


class _Fn:
    """One emitted function: its nested function definitions, the names
    of enclosing functions it assigns, and its open blocks."""

    __slots__ = ("defs", "assigned", "blocks")

    def __init__(self, blocks: int) -> None:
        self.defs, self.assigned, self.blocks = [], set(), blocks


class Emitter:
    """Writes one run of a procedure as the source of one function;
    :attr:`args` are the values of its parameters."""

    def __init__(self, interp) -> None:
        self.interp, self.memory = interp, interp.memory
        self.scalars, self.arrays = self.memory.scalars, self.memory.arrays
        self.args, self.keys, self.locals, self.storages = [], {}, {}, {}
        self.counter = interp.tracer.op_counter
        # Each callback's parameter, or None where the tracer inherits
        # the no-op or counts by region (then no call is emitted).
        for name, noop in _CALLBACKS:
            method = None
            if self.counter is None or name.startswith("on_parallel_"):
                method = getattr(interp.tracer, name)
                if getattr(method, "__func__", None) is noop:
                    method = None
            setattr(self, name, None if method is None else self.arg(method))
        self.reuse = self.on_scalar_read is None and self.on_flop is None
        self.n, self.ind, self.fn, self.par_key = 0, "  ", _Fn(1), "None"
        # The block's reusable offsets, ``(array, subscript texts) ->
        # (offset, locals and flat views read)``, and the offsets whose
        # gather line it has added.
        self.avail, self.lined = {}, set()
        # Names that hold a Python int: integer constants, and loop
        # counters in bodies that never store to them.
        self.int_consts, self.ints, self.stored = set(), frozenset(), None
        # The locals and flat views read by the subscript being
        # emitted (directly or through a reused offset), the region's
        # counts, the gather-line set's ``add`` inside a parallel loop
        # and ``(array, target offset)`` inside an atomic update's RHS.
        self.reads = self.counts = self.lines = self.rmw = None

    # -- names ---------------------------------------------------------
    def arg(self, value, key=None) -> str:
        """The parameter that passes *value*; values with one *key* (a
        name, an integer constant or a tuple) share one parameter."""
        if key is not None and key in self.keys:
            return self.keys[key]
        name = f"_{len(self.args)}"
        self.args.append(value)
        if key is not None:
            self.keys[key] = name
        return name

    def name(self, name: str) -> str:
        return self.keys.get(name) or self.arg(name, name)

    def node(self, node) -> str:
        return self.arg(node, (id(node),))

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def local(self, name: str) -> str:
        if name not in self.locals:
            self.locals[name] = f"s{len(self.locals)}"
        return self.locals[name]

    def assigned(self, local: str) -> None:
        """Note a store to scalar *local*."""
        self.fn.assigned.add(local)
        self.forget(local)

    def forget(self, name: str) -> None:
        """Forget the offsets whose subscripts read *name*, a scalar's
        local or an array's flat view ``a<k>``, just stored to."""
        for key in [k for k, v in self.avail.items() if name in v[1]]:
            del self.avail[key]

    def int_counter(self, var: str) -> bool:
        """Is loop counter *var* an int throughout its loop's body? Yes
        unless some statement of the procedure stores to it."""
        if self.stored is None:
            self.stored = {stmt.target.name
                           for stmt in walk_stmts(self.interp.proc.body)
                           if isinstance(stmt, (Assign, Pop))
                           and isinstance(stmt.target, Var)}
        return var not in self.stored

    def storage(self, name: str) -> Optional[Tuple[str, int]]:
        """``(k, rank)`` of array *name*, passed as parameter ``_k``, or
        None when it does not exist. The function binds its flat view
        ``a<k>``, ``flat.item`` ``i<k>``, bounds check ``c<k>``, lower
        bounds ``l<k>_<axis>``, extents ``n<k>_<axis>`` and strides
        ``d<k>_<axis>`` to locals on entry."""
        if name not in self.storages:
            storage = self.arrays.get(name)
            self.storages[name] = storage and (self.arg(storage)[1:],
                                               len(storage.lowers))
        return self.storages[name]

    # -- functions, blocks and regions -----------------------------------
    def source(self) -> str:
        """The function's source; :attr:`args` are then its arguments."""
        body: List[str] = []
        _, charge = self.region(lambda: self.body(self.interp.proc.body,
                                                  body))
        table = self.arg(self.scalars, ("scalars",))
        names = self.arg(tuple(self.locals))
        local = ", ".join(self.locals.values())
        lines = [f"def _run(_{', _'.join(map(str, range(len(self.args))))}):"]
        for k, rank in filter(None, self.storages.values()):
            axes = [f"{k}_{axis}, " for axis in range(rank)]
            lines.append(f" a{k} = _{k}.flat; i{k} = a{k}.item; "
                         f"c{k} = _{k}._offset; {'l'.join(['', *axes])}= "
                         f"_{k}.lowers; {'n'.join(['', *axes])}= _{k}.shape; "
                         f"{'d'.join(['', *axes[:-1]])}_ = _{k}.strides")
        if local:
            lines.append(f" {local}, = map({table}.__getitem__, {names})")
        lines += self.fn.defs
        lines.append(" try:")
        if charge:
            lines.append(f"  {charge}()")
        lines += body or ["  pass"]
        lines += [" finally:", f"  {table}.update(zip({names}, ({local},)))"
                  if local else "  pass"]
        return "\n".join(lines) + "\n"

    def outline(self, emit: Callable[[List[str]], None]) -> str:
        """Emit *emit(lines)* as the body of a new function, defined
        once at the top of the current one; returns its name."""
        name = self.fresh("f")
        outer = self.fn, self.ind, self.avail, self.lined
        self.fn, self.ind, self.avail, self.lined = _Fn(0), " ", {}, set()
        body: List[str] = []
        emit(body)
        fn = self.fn
        self.fn, self.ind, self.avail, self.lined = outer
        head = [f"def {name}():"]
        if fn.assigned:
            head.append(f" nonlocal {', '.join(sorted(fn.assigned))}")
        self.fn.defs += [" " + line
                         for line in head + fn.defs + (body or [" pass"])]
        return name

    def block(self, emit: Callable[[List[str]], None],
              inherit: bool) -> List[str]:
        """The lines of *emit(lines)* one level deeper: a block that
        starts with this block's reusable offsets (*inherit*) or none."""
        saved = self.avail, self.lined, self.ind
        self.avail, self.lined = ((dict(self.avail), set(self.lined))
                                  if inherit else ({}, set()))
        self.ind += " "
        if len(self.ind) > _MAX_INDENT:
            lines = [f"{self.ind}{self.outline(emit)}()"]
        else:
            lines = []
            emit(lines)
        self.avail, self.lined, self.ind = saved
        return lines

    def region(self, emit: Callable[[], object]):
        """``(emit(), charge)``: *emit* run as its own counting region;
        ``charge`` is the region's charger, or falsy when the tracer does
        not count or the region counts nothing."""
        if self.counter is None:
            return emit(), None
        outer, self.counts = self.counts, {}
        result = emit()
        counts, self.counts = self.counts, outer
        return result, counts and self.arg(self.counter.charger(counts))

    def count(self, field: str) -> None:
        if self.counts is not None:
            self.counts[field] = self.counts.get(field, 0) + 1

    def access(self, ref: ArrayRef) -> Tuple[str, Optional[str]]:
        """The ``OpCounts`` field of a non-atomic access through *ref*,
        and the gather-line set's ``add`` if the access must note its
        line (non-streaming, inside a parallel loop)."""
        if self.counter.streaming(ref):
            return "stream_mem", None
        return "gather_mem", self.lines

    def event(self, out: List[str], name: str, args: str = "") -> None:
        """The call of callback *name*, if the tracer has it."""
        if getattr(self, name) is not None:
            out.append(f"{self.ind}{getattr(self, name)}({args})")

    # -- statements ------------------------------------------------------
    def body(self, stmts, out: List[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                if stmt.atomic and isinstance(stmt.target, ArrayRef):
                    self.atomic(stmt, out)
                else:
                    self.store(stmt.target, self.expr(stmt.value, out), out)
            elif isinstance(stmt, Loop):
                self.loop(stmt, out)
            elif isinstance(stmt, If):
                cond = self.expr(stmt.cond, out)[0]
                then = self.block(lambda o: self.charged(stmt.then_body, o),
                                  True)
                orelse = self.block(lambda o: self.charged(stmt.else_body, o),
                                    True)
                out.append(f"{self.ind}if {cond}:")
                out += then or [f"{self.ind} pass"]
                if orelse:
                    out += [f"{self.ind}else:", *orelse]
                self.avail.clear()
            elif isinstance(stmt, (Push, Pop)):
                self.tape(stmt, out)
            else:  # pragma: no cover
                raise TypeError(f"cannot execute {stmt!r}")

    def tape(self, stmt, out: List[str]) -> None:
        """A push, or a pop into its target, on the stack of ``(channel,
        iteration value)`` (``None`` outside parallel loops)."""
        self.count("tape_ops")
        key = f"({self.name(stmt.channel)}, {self.par_key})"
        tape = self.arg(self.interp.tape, ("tape",))
        if isinstance(stmt, Push):
            value = self.spill(self.expr(stmt.value, out), out)[0]
            out.append(f"{self.ind}{tape}.setdefault({key}, [])"
                       f".append({value})")
            return self.event(out, "on_push")
        stack = self.fresh("t")
        out += [f"{self.ind}{stack} = {tape}.get({key})",
                f"{self.ind}if not {stack}: _tape_error{key}"]
        self.event(out, "on_pop")
        self.store(stmt.target, (f"{stack}.pop()", 1), out)

    def charged(self, stmts, out: List[str]) -> None:
        """*stmts* as their own region, charged on entry."""
        _, charge = self.region(lambda: self.body(stmts, out))
        if charge:
            out.insert(0, f"{self.ind}{charge}()")

    def store(self, target, value: Tuple[str, int], out: List[str]) -> None:
        """A plain store of *value* into *target*; the value is
        evaluated before the target's subscripts."""
        name = target.name
        if isinstance(target, ArrayRef):
            rest: List[str] = []
            offset = self.offset(target, rest)
            if rest:
                value = self.spill(value, out)
                out += rest
            return self.put(target, offset, value[0], False, out)
        self.count("scalar_ops")
        if name not in self.scalars:  # raises KeyError
            setter = self.arg(self.memory.set_scalar, ("set",))
            out.append(f"{self.ind}{setter}({self.name(name)}, {value[0]})")
            return
        local = self.local(name)
        out.append(f"{self.ind}{local} = {value[0]}")
        self.assigned(local)
        if self.on_scalar_write is not None:
            out.append(f"{self.ind}{self.on_scalar_write}({self.name(name)})")

    def put(self, target: ArrayRef, offset: str, value: str, atomic: bool,
            out: List[str]) -> None:
        """Write *value* at *offset* of *target*'s array, then count or
        report the write."""
        name, array = target.name, self.storage(target.name)
        out.append(f"{self.ind}{array and 'a' + array[0]}[{offset}] = {value}")
        if array:
            self.forget("a" + array[0])
        if self.counter is None:
            if self.on_write is not None:
                out.append(f"{self.ind}{self.on_write}({self.name(name)}, "
                           f"{offset}, atomic={atomic}, "
                           f"ref={self.node(target)})")
        elif not atomic:
            field, lines = self.access(target)
            self.count(field)
            self.line(lines, name, offset, out)

    def atomic(self, stmt: Assign, out: List[str]) -> None:
        """An ``!$omp atomic`` array update: the target's subscripts are
        evaluated first, and the load of the target location inside the
        RHS is part of the read-modify-write, so tracers must not see
        it as an independent plain read."""
        ind, target = self.ind, stmt.target
        offset = self.offset(target, out)
        if self.counter is not None:
            # One atomic; the RHS's loads of this array compare their
            # offsets with the target's.
            self.count("atomics")
            self.rmw = target.name, offset
        elif self.on_atomic_begin is not None:
            out.append(f"{ind}{self.on_atomic_begin}"
                       f"({self.name(target.name)}, {offset})")
        if self.on_atomic_end is None:
            value = self.expr(stmt.value, out)
        else:
            out.append(f"{ind}try:")
            self.ind += " "
            value = self.spill(self.expr(stmt.value, out), out)
            self.ind = ind
            out += [f"{ind}finally:", f"{ind} {self.on_atomic_end}()"]
        self.rmw = None
        self.put(target, offset, value[0], True, out)

    def loop(self, loop: Loop, out: List[str]) -> None:
        if self.fn.blocks + 2 > _MAX_BLOCKS:
            name = self.outline(lambda o: self.loop(loop, o))
            out.append(f"{self.ind}{name}()")
            return self.avail.clear()
        ind, var, parallel = self.ind, loop.var, loop.parallel
        if parallel:
            interp, node = self.arg(self.interp, ("interp",)), self.node(loop)
            out.append(f"{ind}if {interp}._in_parallel is not None: _nested()")
        first, last, step = [self.bound(e, out)
                             for e in (loop.start, loop.stop, loop.step)]
        local = self.local(var) if var in self.scalars else None
        if local is None:  # raises KeyError
            set_counter = (f"{self.arg(self.memory.set_scalar, ('set',))}"
                           f"({self.name(var)}, {{}})").format
        else:
            self.assigned(local)
            set_counter = f"{local} = {{}}".format
        # Each iteration polls the deadline, then sets the counter.
        head = []
        deadline = self.interp.deadline
        if deadline is not None:
            message = (f"deadline expired inside loop over {var!r} "
                       f"of {self.interp.proc.name!r}")
            head.append(f"{ind} if {self.arg(deadline.expired, ('expired',))}"
                        f"(): raise _timeout({self.arg(message)})")
        value = local if local and not (head or parallel) else self.fresh("k")
        if parallel:
            head.append(f"{ind} {interp}._par_key = {value}")
        if value != local:
            head.append(f"{ind} {set_counter(value)}")
        saved = self.par_key, self.lines, self.ints, self.ind
        if local and self.int_counter(var):
            self.ints = self.ints | {local}
        if parallel:
            self.par_key, self.ind = value, ind + " "
            head = [" " + line for line in head]
            if self.counter is not None:
                self.lines = self.arg(self.counter.gather_lines.add,
                                      ("lines",))
            if self.on_parallel_iteration_begin is not None:
                head.append(f"{ind}  {self.on_parallel_iteration_begin}"
                            f"({node}, {value})")
        self.fn.blocks += 1 + parallel
        body, charge = self.region(
            lambda: self.block(lambda o: self.body(loop.body, o), False))
        self.fn.blocks -= 1 + parallel
        if parallel and self.on_parallel_iteration_end is not None:
            body.append(f"{ind}  {self.on_parallel_iteration_end}"
                        f"({node}, {value})")
        self.par_key, self.lines, self.ints, self.ind = saved
        self.avail.clear()
        if not parallel:
            trips = self.fresh("t")
            out.append(f"{ind}{trips} = _trips({first}, {last}, {step})")
            if charge:
                out.append(f"{ind}{charge}({trips})")
            # Fortran: the counter holds the first value past the last
            # iteration.
            out += [f"{ind}for {value} in range({first}, {first} + {trips} "
                    f"* {step}, {step}):", *(head + body or [f"{ind} pass"]),
                    f"{ind}{set_counter(f'{first} + {trips} * {step}')}"]
            return
        values = self.fresh("t")
        out.append(f"{ind}{values} = loop_iterations({first}, {last}, {step})")
        self.event(out, "on_parallel_loop_begin", f"{node}, {values}")
        if charge:
            head.append(f"{ind}  {charge}()")
        out += [f"{ind}{interp}._in_parallel = {node}", f"{ind}try:",
                f"{ind} for {value} in {values}:", *head, *body,
                f"{ind}finally:", f"{ind} {interp}._par_key = None",
                f"{ind} {interp}._in_parallel = None"]
        self.event(out, "on_parallel_loop_end", node)

    def bound(self, expr, out: List[str]) -> str:
        value = self.expr(expr, out)[0]
        if value in self.int_consts:
            return value
        name = self.fresh("t")
        out.append(f"{self.ind}{name} = int({value})")
        return name

    # -- array accesses --------------------------------------------------
    def offset(self, ref: ArrayRef, out: List[str]) -> str:
        """Emit the evaluation of *ref*'s subscripts, each through
        ``int()``, and the bounds check; returns the flat offset. The
        error case goes to ``ArrayStorage._offset``, so ``BoundsError``
        keeps its message."""
        ind, array = self.ind, self.storage(ref.name)
        reads, self.reads = self.reads, set()
        texts, parts = [], []
        for index in ref.indices:
            parts.append([])
            texts.append(self.expr(index, parts[-1])[0])
        used, self.reads = self.reads, reads
        if reads is not None:  # an enclosing subscript reads them too
            reads |= used
        k, rank = array or (None, 0)
        key = rank == len(texts) and (ref.name, tuple(texts))
        if key and self.reuse and not any(parts):
            if key in self.avail:
                return self.avail[key][0]
        else:
            key = None
        ps = []
        for axis, text in enumerate(texts):
            out += parts[axis]
            ps.append(self.fresh("p"))
            if rank != len(texts):
                out.append(f"{ind}{ps[-1]} = int({text})")
            elif text in self.ints or text in self.int_consts:
                out.append(f"{ind}{ps[-1]} = {text} - l{k}_{axis}")
            else:
                out.append(f"{ind}{ps[-1]} = int({text}) - l{k}_{axis}")
        if not array:  # raises KeyError
            out.append(f"{ind}{self.arg(self.arrays, ('arrays',))}"
                       f"[{self.name(ref.name)}]")
            return "None"
        offset = ps[-1]
        if rank != len(texts):  # raises BoundsError
            out.append(f"{ind}{offset} = _{k}.flat_index([{', '.join(ps)}])")
            return offset
        axes = list(enumerate(ps))
        inside = " and ".join([f"0 <= {p} < n{k}_{a}" for a, p in axes])
        located = ", ".join([f"{p} + l{k}_{a}" for a, p in axes])
        out.append(f"{ind}if not ({inside}): c{k}([{located}])")
        if rank > 1:
            offset = self.fresh("o")
            terms = "".join([f"{p} * d{k}_{a} + " for a, p in axes[:-1]])
            out.append(f"{ind}{offset} = {terms}{ps[-1]}")
        if key:
            self.avail[key] = offset, used
        return offset

    def line(self, lines: Optional[str], name: str, offset: str,
             out: List[str]) -> None:
        """Add *offset*'s gather line, once per block and offset."""
        if lines and offset not in self.lined:
            out.append(f"{self.ind}{lines}(({self.name(name)}, "
                       f"{offset} >> 3))")
            self.lined.add(offset)

    def load(self, ref: ArrayRef, out: List[str]) -> Tuple[str, int]:
        name, ind = ref.name, self.ind
        offset = self.offset(ref, out)
        array = self.storages[name]
        if array and self.reads is not None:
            self.reads.add("a" + array[0])
        if self.counter is not None:
            field, lines = self.access(ref)
            if self.rmw is None or self.rmw[0] != name:
                self.count(field)
                self.line(lines, name, offset, out)
            elif offset != self.rmw[1]:
                # Inside an atomic update's RHS, a load of the updated
                # array counts only off the target location.
                charge = self.arg(self.counter.charger({field: 1}))
                out += [f"{ind}if {offset} != {self.rmw[1]}:",
                        f"{ind} {charge}()"]
                if lines:
                    out.append(f"{ind} {lines}(({self.name(name)}, "
                               f"{offset} >> 3))")
        elif self.on_read is not None:
            out.append(f"{ind}{self.on_read}({self.name(name)}, {offset}, "
                       f"ref={self.node(ref)})")
        # A checked load cannot fail and nothing is stored before the
        # statement ends, so the load need not be spilled.
        return f"{array and 'i' + array[0]}({offset})", 0

    # -- expressions: ``(text, depth)``; depth 0 marks text that may be
    # evaluated later than its place in the evaluation order.
    def spill(self, value: Tuple[str, int], out: List[str]) -> Tuple[str, int]:
        if not value[1]:
            return value
        name = self.fresh("t")
        out.append(f"{self.ind}{name} = {value[0]}")
        return name, 0

    def nest(self, text: str, depth: int, out: List[str]) -> Tuple[str, int]:
        if depth > _MAX_DEPTH:
            return self.spill((text, depth), out)
        return text, depth

    def operands(self, exprs, out: List[str],
                 done=()) -> List[Tuple[str, int]]:
        """*exprs* evaluated in order after the operands *done*: an
        operand is spilled when a later one needs lines of its own."""
        done = list(done)
        for expr in exprs:
            lines: List[str] = []
            value = self.expr(expr, lines)
            if lines:
                done = [self.spill(v, out) for v in done]
                out += lines
            done.append(value)
        return done

    def expr(self, expr, out: List[str]) -> Tuple[str, int]:
        kind = _KINDS.get(type(expr))
        if kind is None:  # pragma: no cover
            raise TypeError(f"cannot evaluate {expr!r}")
        return kind(self, expr, out)

    def var(self, expr: Var, out: List[str]) -> Tuple[str, int]:
        self.count("scalar_ops")
        if self.on_scalar_read is not None:
            out.append(f"{self.ind}{self.on_scalar_read}"
                       f"({self.name(expr.name)})")
        if expr.name not in self.scalars:  # raises KeyError
            return (f"{self.arg(self.scalars, ('scalars',))}"
                    f"[{self.name(expr.name)}]", 1)
        local = self.local(expr.name)
        if self.reads is not None:
            self.reads.add(local)
        return local, 0

    def const(self, expr: Const, out: List[str]) -> Tuple[str, int]:
        value = expr.value
        if type(value) is int:
            self.int_consts.add(self.arg(value, value))
            return self.keys[value], 0
        return self.arg(value, (type(value), repr(value))), 0

    def binary(self, expr, out: List[str]) -> Tuple[str, int]:
        # The parser builds left-deep chains (a long sum) of any length,
        # so they are emitted from the innermost operand out, in a loop.
        chain = []
        while isinstance(expr, (BinOp, Compare)):
            chain.append(expr)
            expr = expr.left
        a, da = self.expr(expr, out)
        for expr in reversed(chain):
            self.count("flops")
            (a, da), (b, db) = self.operands((expr.right,), out, [(a, da)])
            if self.on_flop is not None:
                a, b = self.spill((a, da), out)[0], self.spill((b, db), out)[0]
                self.event(out, "on_flop")
            table = _ARITH if isinstance(expr, BinOp) else _COMPARE
            symbol = table.get(expr.op)
            if symbol is None:
                message = self.arg(f"bad binary op {expr.op}")
                text = f"_fail({message}, {a}, {b})"
            elif symbol == "/":
                text = f"_div({a}, {b})"
            else:
                text = f"({a} {symbol} {b})"
            a, da = self.nest(text, max(da, db) + 1, out)
        return a, da

    def unary(self, expr: UnOp, out: List[str]) -> Tuple[str, int]:
        self.count("flops")
        self.event(out, "on_flop")
        a, depth = self.expr(expr.operand, out)
        return self.nest(f"(-{a})", depth + 1, out)

    def logical(self, expr: Logical, out: List[str]) -> Tuple[str, int]:
        if expr.op is LogicOp.NOT:
            a, depth = self.expr(expr.operands[0], out)
            return self.nest(f"(not {a})", depth + 1, out)
        # Left-deep chains are emitted in a loop, as in binary().
        chain = []
        while isinstance(expr, Logical) and expr.op is not LogicOp.NOT:
            chain.append(expr)
            expr = expr.operands[0]
        a = self.expr(expr, out)[0]
        for expr in reversed(chain):
            a = self.short_circuit(expr, a, out)
        return a, 0

    def short_circuit(self, expr: Logical, a: str,
                      out: List[str]) -> str:
        """``.and.``/``.or.`` of the evaluated left operand *a* and the
        right operand, which is its own region and block."""
        fn, result = self.fn, self.fresh("t")

        def right(lines: List[str]) -> None:
            b, charge = self.region(
                lambda: self.expr(expr.operands[1], lines)[0])
            if charge:
                lines.insert(0, f"{self.ind}{charge}()")
            lines.append(f"{self.ind}{result} = bool({b})")
            if self.fn is not fn:
                self.fn.assigned.add(result)

        out += [f"{self.ind}{result} = bool({a})",
                f"{self.ind}if {'not ' * (expr.op is LogicOp.OR)}{result}:",
                *self.block(right, True)]
        return result

    def call(self, call: Call, out: List[str]) -> Tuple[str, int]:
        self.count("intrinsics")
        if self.on_intrinsic is not None:
            out.append(f"{self.ind}{self.on_intrinsic}"
                       f"({self.name(call.func)})")
        if call.func == "size":
            # size(a[, dim]) takes the array *name*, which must not be
            # evaluated as data.
            target = call.args[0] if call.args else None
            if not isinstance(target, (Var, ArrayRef)):
                return f"_fail({self.arg('size() expects an array name')})", 1
            storage = self.fresh("t")
            arrays = self.arg(self.arrays, ("arrays",))
            out.append(f"{self.ind}{storage} = "
                       f"{arrays}[{self.name(target.name)}]")
            if len(call.args) < 2:
                return f"{storage}.size", 1
            dim, depth = self.expr(call.args[1], out)
            return self.nest(f"{storage}.shape[int({dim}) - 1]", depth + 1,
                             out)
        args = self.operands(call.args, out)
        texts = [text for text, _ in args]
        impl = INTRINSICS.get(call.func)
        if impl is None:
            texts.insert(0, self.arg(f"unknown intrinsic {call.func!r}"))
        fn = "_fail" if impl is None else self.arg(impl, impl)
        depth = max([d for _, d in args], default=0) + 1
        return self.nest(f"{fn}({', '.join(texts)})", depth, out)


_KINDS = {Var: Emitter.var, ArrayRef: Emitter.load, Const: Emitter.const,
          BinOp: Emitter.binary, Compare: Emitter.binary,
          UnOp: Emitter.unary, Call: Emitter.call, Logical: Emitter.logical}
