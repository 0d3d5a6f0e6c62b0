"""Programs the interpreter's emitted functions must handle, and its
code cache.

``Interpreter.run`` writes each run as the source of one Python
function. CPython refuses more than 20 nested blocks, 100 indentation
levels and 200 nested parentheses, so deep loop nests, deep branches
and deep expressions must still compile. Scalars live in the function's
locals, so memory must still hold every write made before an error.
No name of the program may become a Python identifier. And the cache
of code objects, keyed by the emitted source, must hand every run its
own values.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import parse_procedure, profile_run
from repro.ir import (INTEGER, REAL, ArrayRef, BinOp, Call, Const,
                      ProcedureBuilder, Var, integer_array, real_array)
from repro.ir.expr import Op
from repro.runtime import (NULL_TRACER, BoundsError, Interpreter,
                           InterpreterError, InterpreterTimeout, Memory,
                           TapeError, Tracer, detect_races, run_procedure)
from repro.runtime import emit as emit_module
from repro.runtime.costmodel import CostTracer
from repro.runtime.emit import Emitter
from repro.runtime.racecheck import RaceDetector

from .test_profile_golden import assert_matches_reference

DEPTH = 30
TERMS = 300


def _deep_nest(parallel: bool):
    """``a(k) = a(k) + k + i_1 + ... + i_30`` inside 30 nested
    sequential loops of one or two trips each, optionally under a
    parallel loop over ``k``."""
    b = ProcedureBuilder("nest")
    a = b.param("a", real_array(4))
    total = b.local("total")
    counters = []

    def nest(level: int) -> None:
        if level == DEPTH:
            value = a[Var("k")] + Var("k")
            for counter in counters:
                value = value + counter
            b.assign(a[Var("k")], value)
            b.assign(total, total + 1.0)
            return
        with b.do(f"i{level}", 1, 2 if level % 10 == 9 else 1) as i:
            counters.append(i)
            nest(level + 1)

    if parallel:
        with b.parallel_do("k", 1, 4, private=["total"]):
            nest(0)
    else:
        b.int_local("k")
        b.assign(Var("k"), 2)
        nest(0)
    return b.build()


def _nest_expected(parallel: bool):
    # Levels 9, 19 and 29 run twice: 8 innermost executions, whose
    # counters sum to 27 + (#levels at 2).
    sums = [27 + x + y + z for x in (1, 2) for y in (1, 2) for z in (1, 2)]
    a = np.zeros(4)
    for k in (range(1, 5) if parallel else [2]):
        a[k - 1] = sum(k + s for s in sums)
    return a


@pytest.mark.parametrize("parallel", [False, True])
def test_thirty_deep_loop_nest(parallel):
    proc = _deep_nest(parallel)
    memory = run_procedure(proc)
    np.testing.assert_array_equal(memory.array("a").data,
                                  _nest_expected(parallel))
    # Fortran exit values: every counter one past its last value.
    assert memory.get_scalar("i0") == 2 and memory.get_scalar("i9") == 3
    if not parallel:
        assert memory.get_scalar("total") == 8.0
    run = profile_run(proc)
    np.testing.assert_array_equal(run.memory.array("a").data,
                                  _nest_expected(parallel))
    assert_matches_reference(proc, {})
    report = detect_races(proc)
    assert report.race_free
    np.testing.assert_array_equal(report.memory.array("a").data,
                                  _nest_expected(parallel))


def test_thirty_deep_loop_nest_polls_its_deadline():
    class Never:
        polls = 0

        def expired(self):
            Never.polls += 1
            return False

    proc = _deep_nest(True)
    memory = run_procedure(proc, deadline=Never())
    np.testing.assert_array_equal(memory.array("a").data,
                                  _nest_expected(True))
    # Per parallel iteration: its own poll, then 9 one-trip levels run
    # once, the 10 levels from the first two-trip one down run twice,
    # the 10 from the second four times, and the innermost polls 8 times.
    assert Never.polls == 4 * (1 + 9 + 2 * 10 + 4 * 10 + 8)


def _sum_of_terms(left_deep: bool):
    b = ProcedureBuilder("terms")
    x = b.param("x", real_array(TERMS))
    s = b.param("s", REAL)
    terms = [x[k] * float(k % 7 + 1) for k in range(1, TERMS + 1)]
    value = terms[0] if left_deep else terms[-1]
    for term in (terms[1:] if left_deep else reversed(terms[:-1])):
        value = value + term if left_deep else term + value
    b.assign(s, value)
    return b.build()


@pytest.mark.parametrize("left_deep", [True, False])
def test_three_hundred_term_sum(left_deep):
    proc = _sum_of_terms(left_deep)
    x = np.arange(1.0, TERMS + 1)
    bindings = {"x": x}
    want = sum(x[k - 1] * float(k % 7 + 1) for k in range(1, TERMS + 1))
    assert run_procedure(proc, bindings).get_scalar("s") == pytest.approx(
        want, rel=1e-12)
    assert_matches_reference(proc, bindings)


def test_parsed_left_deep_chains_of_any_length():
    """The parser builds ``a + b + ...`` and ``p .and. q .and. ...`` as
    left-deep chains of any length; emitting one must not recurse once
    per term."""
    n = 2000
    terms = " + ".join(f"x({k})" for k in range(1, n + 1))
    cond = " .and. ".join(f"x({k}) > 0.0" for k in range(1, n + 1))
    proc = parse_procedure(f"""
subroutine chains(x, s, y)
  real, intent(in) :: x({n})
  real, intent(out) :: s
  real, intent(out) :: y
  s = {terms}
  if ({cond}) then
    y = 1.0
  end if
end subroutine chains
""")
    bindings = {"x": np.arange(1.0, n + 1)}
    memory = run_procedure(proc, bindings)
    assert memory.get_scalar("s") == n * (n + 1) / 2
    assert memory.get_scalar("y") == 1.0
    assert_matches_reference(proc, bindings)


def test_deep_branches_and_short_circuits():
    """60 nested ``if``s, and a 60-deep right-nested ``.and.`` whose
    right operands load array elements (its own region each)."""
    n = 60
    b = ProcedureBuilder("deep")
    x = b.param("x", real_array(n))
    y = b.param("y", real_array(n))

    def branches(level: int) -> None:
        if level == n:
            b.assign(y[1], y[1] + 1.0)
            return
        with b.if_(x[level + 1].gt(0.0)):
            b.assign(y[level + 1], x[level + 1])
            branches(level + 1)

    branches(0)
    cond = x[n].gt(0.0)
    for k in range(n - 1, 0, -1):
        cond = x[k].gt(0.0).logical_and(cond)
    with b.if_(cond):
        b.assign(y[2], y[2] + 10.0)
    proc = b.build()
    bindings = {"x": np.ones(n)}
    y = run_procedure(proc, bindings).array("y").data
    assert y[0] == 2.0 and y[1] == 11.0 and (y[2:] == 1.0).all()
    assert_matches_reference(proc, bindings)
    x = np.ones(n)
    x[30] = -1.0
    y = run_procedure(proc, {"x": x}).array("y").data
    assert y[0] == 1.0 and y[1] == 1.0 and (y[31:] == 0.0).all()
    assert_matches_reference(proc, {"x": x})


NAMES = ("lambda", "range", "s", "s0", "_0", "int", "t1", "k1", "None")


def test_scalars_named_like_python():
    """Scalars named after Python keywords, builtins and the emitted
    code's own local and parameter names."""
    b = ProcedureBuilder("names")
    a = b.param("a", real_array(len(NAMES) + 1))
    for name in NAMES:
        b.local(name)
    b.int_local("lambda2")
    b.assign(Var("lambda"), 2.0)
    b.assign(Var("range"), Var("lambda") * 3.0)
    b.assign(Var("s"), Var("range") + Var("lambda"))
    with b.do("int", 1, 3):
        b.assign(Var("s0"), Var("s0") + Var("int"))
    b.push("t1", Var("s"))
    b.pop("t1", Var("_0"))
    b.assign(Var("lambda2"), 2)
    b.assign(a[Var("lambda2")], Var("_0") + Var("s0"))
    with b.parallel_do("k1", 1, 2, private=["None"]):
        b.assign(Var("None"), Var("k1") * 1.0)
        b.assign(a[Var("k1") + 3], Var("None"))
    proc = b.build()
    memory = run_procedure(proc)
    assert [memory.get_scalar(n) for n in ("lambda", "range", "s", "s0",
                                           "_0", "int")] \
        == [2.0, 6.0, 8.0, 6.0, 8.0, 4]
    np.testing.assert_array_equal(memory.array("a").data[:5],
                                  [0.0, 14.0, 0.0, 1.0, 2.0])
    assert_matches_reference(proc, {})


def test_source_holds_no_run_value():
    """No name, constant, extent or bound of the run appears in the
    emitted source."""
    b = ProcedureBuilder("zebra")
    quagga = b.param("quagga", real_array((7001, 7040)))
    okapi = b.param("okapi", REAL)
    with b.do("gnu", 7001, 7040) as gnu:
        b.assign(quagga[gnu], quagga[gnu] * 0.123456 + okapi)
    b.push("ibex", okapi)
    proc = b.build()
    memory = Memory.for_procedure(proc, {"okapi": 4.25})
    source = Emitter(Interpreter(proc, memory)).source()
    for word in ("zebra", "quagga", "okapi", "gnu", "ibex", "0.123456",
                 "4.25", "7001", "7040"):
        assert word not in source


# ----------------------------------------------------------------------
# Offset reuse
# ----------------------------------------------------------------------
#: ``name -> (body, expected a)``: each body stores to what a subscript
#: reads (an index array, by a plain store, a pop, an atomic update or
#: through another index array; a scalar) between two accesses through
#: the same subscript text, so the second access must not reuse the
#: first one's offset.
REINDEXED = {
    "store": ("""
  idx(1) = 2
  a(idx(1)) = 1.0
  idx(1) = 3
  a(idx(1)) = 5.0""", [0.0, 1.0, 5.0, 0.0]),
    "pop": ("""
  idx(1) = 2
  a(idx(1)) = 1.0
  call push('c', 3)
  call pop('c', idx(1))
  a(idx(1)) = a(idx(1)) + 5.0""", [0.0, 1.0, 5.0, 0.0]),
    "atomic": ("""
  idx(1) = 2
  a(idx(1)) = 1.0
  !$omp atomic
  idx(1) = idx(1) + 2
  a(idx(1)) = 5.0""", [0.0, 1.0, 0.0, 5.0]),
    "two-level": ("""
  idx(1) = 2
  idx(2) = 4
  jdx(1) = 1
  a(idx(jdx(1))) = 1.0
  jdx(1) = 2
  a(idx(jdx(1))) = 5.0""", [0.0, 1.0, 0.0, 5.0]),
    "scalar": ("""
  idx(1) = 2
  idx(2) = 3
  k = 1
  a(idx(k)) = 1.0
  k = 2
  a(idx(k)) = 5.0""", [0.0, 1.0, 5.0, 0.0]),
    "parallel": ("""
  !$omp parallel do
  do i = 1, 2
    idx(i) = 2 * i - 1
    a(idx(i)) = 1.0
    idx(i) = 2 * i
    a(idx(i)) = a(idx(i)) + 5.0
  end do""", [1.0, 5.0, 1.0, 5.0]),
}


@pytest.mark.parametrize("tracer", ["null", "cost", "races"])
@pytest.mark.parametrize("name", sorted(REINDEXED))
def test_no_offset_reused_after_a_store_to_what_it_reads(name, tracer):
    body, want = REINDEXED[name]
    proc = parse_procedure(f"""
subroutine reindex(a, idx, jdx, k, i)
  real :: a(4)
  integer :: idx(2)
  integer :: jdx(2)
  integer :: k
  integer :: i
{body}
end subroutine reindex
""")
    if tracer == "races":
        report = detect_races(proc)
        assert not report.races
        memory = report.memory
    else:
        memory = (run_procedure(proc) if tracer == "null"
                  else profile_run(proc).memory)
    np.testing.assert_array_equal(memory.array("a").data, want)
    assert_matches_reference(proc, {})


class ReadsScalars(Tracer):
    """Observes scalar reads, so the emitter reuses no offset."""

    def on_scalar_read(self, name: str) -> None:
        pass


def _subscript(r, depth: int = 0) -> str:
    """A constant, ``k``, or a load of an index array."""
    c = r.random()
    if c < 0.3 or depth > 1:
        return str(r.randint(1, 4))
    if c < 0.45:
        return "k"
    return f"{r.choice(['idx', 'jdx'])}({_subscript(r, depth + 1)})"


def _statements(r, depth: int = 0):
    """One random statement (as lines): a store into an index array
    (plain, popped or atomic), into ``k`` or into ``a``, or a branch."""
    ind, s, t = "  " * (depth + 1), _subscript(r), _subscript(r)
    c = r.random()
    if c < 0.25:
        return [f"{ind}{r.choice(['idx', 'jdx'])}({s}) = {_subscript(r)}"]
    if c < 0.5:
        return [f"{ind}a({s}) = a({s}) + 2.0 * a({t})"]
    if c < 0.6:
        return [f"{ind}k = {_subscript(r)}"]
    if c < 0.7:
        return [f"{ind}call push('c', {t})", f"{ind}call pop('c', idx({s}))"]
    if c < 0.8:
        return [f"{ind}!$omp atomic", f"{ind}jdx({s}) = jdx({s}) + 1"]
    if depth < 2:
        body = [line for _ in range(r.randint(1, 3))
                for line in _statements(r, depth + 1)]
        return [f"{ind}if (a({s}) > 2.0) then", *body, f"{ind}end if"]
    return [f"{ind}a({t}) = a({s}) + a({s})"]


def _final_state(proc, tracer):
    """Memory after the run, and the error it raised (if any)."""
    memory = Memory.for_procedure(proc, {
        "a": np.arange(1.0, 9.0), "idx": np.array([2, 3, 4, 1]),
        "jdx": np.array([3, 1, 2, 4]), "k": 2})
    try:
        Interpreter(proc, memory, tracer).run()
        error = None
    except BoundsError as exc:
        error = str(exc)
    return ([memory.array(n).data.tolist() for n in ("a", "idx", "jdx")],
            memory.get_scalar("k"), error)


@pytest.mark.parametrize("seed", range(0, 400, 50))
def test_offset_reuse_never_changes_a_run(seed):
    """Random blocks that store into index arrays between accesses
    through them run as they do with no offset reused."""
    for case in range(seed, seed + 50):
        r = random.Random(case)
        body = [line for _ in range(r.randint(4, 10))
                for line in _statements(r)]
        proc = parse_procedure("\n".join([
            "subroutine f(a, idx, jdx, k)", "  real :: a(8)",
            "  integer :: idx(4)", "  integer :: jdx(4)", "  integer :: k",
            *body, "end subroutine f"]))
        want = _final_state(proc, ReadsScalars())
        for tracer in (NULL_TRACER, CostTracer(), RaceDetector()):
            assert _final_state(proc, tracer) == want, (case, tracer)


# ----------------------------------------------------------------------
# Memory after an error
# ----------------------------------------------------------------------
class ExpiresOnPoll:
    def __init__(self, k: int) -> None:
        self.k, self.polls = k, 0

    def expired(self) -> bool:
        self.polls += 1
        return self.polls == self.k


def _failing(raising: str, inside_parallel: bool):
    """Writes a scalar, an array element and a loop's worth of both,
    then executes a node that raises, then would write more."""
    b = ProcedureBuilder("failing")
    a = b.param("a", real_array(4))
    c = b.param("c", integer_array(4))
    n = b.param("n", INTEGER)
    s = b.local("s")
    t = b.local("t")
    b.assign(s, 1.0)
    b.assign(a[1], 2.0)
    with b.do("i", 1, 3) as i:
        b.assign(t, t + i)
        b.assign(c[i], i * 10)

    def raise_here():
        b.assign(s, 5.0)
        b.assign(a[2], 7.0)
        if raising == "bounds":
            b.assign(a[n + 5], 1.0)
        elif raising == "tape":
            b.pop("empty", t)
        elif raising == "interpreter":
            b.assign(t, Call("sqrt", (Const(-1.0),)))
        elif raising == "key":
            b.assign(t, Var("undeclared") + 1.0)
        elif raising == "timeout":
            with b.do("j", 1, 5):
                b.assign(s, s + 1.0)
        b.assign(s, 99.0)
        b.assign(a[4], 99.0)

    if inside_parallel:
        with b.parallel_do("m", 1, 1, private=["t"]):
            raise_here()
    else:
        raise_here()
    return b.build()


ERRORS = {"bounds": BoundsError, "tape": TapeError,
          "interpreter": InterpreterError, "key": KeyError,
          "timeout": InterpreterTimeout}
TRACERS = {"null": lambda proc, memory: None,
           "races": lambda proc, memory: RaceDetector(),
           "cost": lambda proc, memory: CostTracer(
               ["i", "j", "m"], {n: s.size for n, s in memory.arrays.items()})}


@pytest.mark.parametrize("inside_parallel", [False, True])
@pytest.mark.parametrize("tracer", sorted(TRACERS))
@pytest.mark.parametrize("raising", sorted(ERRORS))
def test_memory_holds_every_write_before_the_error(raising, tracer,
                                                   inside_parallel):
    proc = _failing(raising, inside_parallel)
    memory = Memory.for_procedure(proc, {"n": 1})
    interp = Interpreter(proc, memory)
    custom = TRACERS[tracer](proc, memory)
    if custom is not None:
        interp.tracer = custom
    # The timeout fires on the poll of the third iteration of the last
    # loop: after the three polls of the first loop, the parallel loop's
    # one poll (if any) and two finished iterations.
    if raising == "timeout":
        interp.deadline = ExpiresOnPoll(3 + inside_parallel + 3)
    with pytest.raises(ERRORS[raising]):
        interp.run()
    # Scalars and array elements written before the raising node.
    assert memory.get_scalar("s") == (7.0 if raising == "timeout" else 5.0)
    assert memory.get_scalar("i") == 4
    assert memory.get_scalar("t") == 6.0
    np.testing.assert_array_equal(memory.array("a").data,
                                  [2.0, 7.0, 0.0, 0.0])
    np.testing.assert_array_equal(memory.array("c").data, [10, 20, 30, 0])
    if inside_parallel:
        assert memory.get_scalar("m") == 1
    if raising == "timeout":
        assert memory.get_scalar("j") == 2
    assert interp._in_parallel is None and interp._par_key is None


# ----------------------------------------------------------------------
# The code cache
# ----------------------------------------------------------------------
@pytest.fixture
def codes(monkeypatch):
    """The code object of every run, in order, from an empty cache."""
    monkeypatch.setattr(emit_module, "_CODE_CACHE", {})
    seen = []
    code = emit_module._code

    def record(source):
        seen.append(code(source))
        return seen[-1]

    monkeypatch.setattr(emit_module, "_code", record)
    return seen


def _gather_scale():
    """``y(c(i)) = y(c(i)) + a * x(i) * 2`` under a parallel loop,
    over assumed-size arrays, then a scalar sum."""
    b = ProcedureBuilder("gs")
    x = b.param("x", real_array(None))
    y = b.param("y", real_array(None))
    c = b.param("c", integer_array(None))
    a = b.param("a", REAL)
    n = b.param("n", INTEGER)
    total = b.param("total", REAL)
    with b.parallel_do("i", 1, n) as i:
        b.assign(y[c[i]], y[c[i]] + a * x[i] * 2.0, atomic=True)
    with b.do("i", 1, n) as i:
        b.assign(total, total + y[i])
    return b.build()


def _gather_inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    c = rng.integers(1, n + 1, n)
    return {"x": rng.standard_normal(n), "c": c, "a": 0.5 + seed, "n": n,
            "total": 0.0}, {"y": [n]}


def _gather_expected(bindings):
    y = np.zeros(bindings["n"])
    for i in range(bindings["n"]):
        y[bindings["c"][i] - 1] += bindings["a"] * bindings["x"][i] * 2.0
    return y, float(sum(y))


RUNS = {
    "null": lambda proc, b, e: run_procedure(proc, b, e),
    "cost": lambda proc, b, e: profile_run(proc, b, e).memory,
    "races": lambda proc, b, e: detect_races(proc, b, e).memory,
}


@pytest.mark.parametrize("tracer", sorted(RUNS))
def test_runs_of_one_procedure_share_one_code_object(codes, tracer):
    proc = _gather_scale()
    used = []
    for n, seed in ((6, 0), (11, 1)):
        bindings, extents = _gather_inputs(n, seed)
        memory = RUNS[tracer](proc, bindings, extents)
        used.append(codes[-1])
        y, total = _gather_expected(bindings)
        np.testing.assert_allclose(memory.array("y").data, y, rtol=1e-12)
        assert memory.get_scalar("total") == pytest.approx(total, rel=1e-12)
        if tracer == "cost":
            memory_bindings = {**bindings, "y": np.zeros(n)}
            assert_matches_reference(proc, memory_bindings)
    assert used[0] is used[1]
    # The reference counter's callbacks make a second shape.
    assert len(emit_module._CODE_CACHE) == 1 + (tracer == "cost")


def test_mutated_statement_gets_new_code(codes):
    b = ProcedureBuilder("m")
    x = b.param("x", real_array(3))
    with b.do("i", 1, 3) as i:
        stmt = b.assign(x[i], x[i] + 2.0)
    proc = b.build()
    ones = {"x": np.ones(3)}
    np.testing.assert_array_equal(run_procedure(proc, ones).array("x").data,
                                  [3.0, 3.0, 3.0])
    # A new constant is a new value, not a new shape.
    stmt.value = x[Var("i")] + 5.0
    np.testing.assert_array_equal(run_procedure(proc, ones).array("x").data,
                                  [6.0, 6.0, 6.0])
    assert codes[1] is codes[0]
    stmt.value = BinOp(Op.MUL, x[Var("i")], Const(5.0))
    np.testing.assert_array_equal(run_procedure(proc, ones).array("x").data,
                                  [5.0, 5.0, 5.0])
    assert codes[2] is not codes[0]
    stmt.target = ArrayRef("x", (Const(1),))
    np.testing.assert_array_equal(run_procedure(proc, ones).array("x").data,
                                  [5.0, 1.0, 1.0])
    assert len({id(code) for code in codes}) == 3


def test_cache_never_grows_past_its_bound(codes):
    bound = emit_module._CODE_CACHE_SIZE
    procs = []
    for k in range(1, bound + 12):
        b = ProcedureBuilder(f"p{k}")
        x = b.param("x", real_array(k))
        s = b.param("s", REAL)
        value = x[1]
        for j in range(2, k + 1):
            value = value + x[j]
        b.assign(s, value)
        procs.append((b.build(), k))
    for proc, k in procs:
        memory = run_procedure(proc, {"x": np.arange(1.0, k + 1)})
        assert memory.get_scalar("s") == k * (k + 1) / 2
        assert len(emit_module._CODE_CACHE) <= bound
    assert len(emit_module._CODE_CACHE) == bound
    # The oldest shapes were evicted; running one again compiles anew.
    proc, k = procs[0]
    assert run_procedure(proc, {"x": np.ones(1)}).get_scalar("s") == 1.0
    assert codes[-1] is not codes[0]
    assert len(emit_module._CODE_CACHE) == bound
