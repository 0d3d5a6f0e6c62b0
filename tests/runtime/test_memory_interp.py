"""Tests for array storage and the reference interpreter."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ir import (Assign, If, Loop, Pop, ProcedureBuilder, Push, REAL,
                      Var, integer_array, parse_procedure, real_array, INTEGER)
from repro.runtime import (ArrayStorage, BoundsError, Interpreter,
                           InterpreterError, Memory, TapeError, Tracer,
                           loop_iterations, run_procedure)
from repro.ir.expr import Const, int_div
from repro.ir.simplify import simplify
from repro.ir.types import ArrayType, Kind, Dim


class TestArrayStorage:
    def test_allocate_and_bounds(self):
        t = ArrayType(Kind.REAL, [Dim(1, 5)])
        a = ArrayStorage.allocate("a", t)
        a.set([3], 2.5)
        assert a.get([3]) == 2.5
        with pytest.raises(BoundsError):
            a.get([0])
        with pytest.raises(BoundsError):
            a.get([6])

    def test_nonunit_lower_bound(self):
        t = ArrayType(Kind.REAL, [Dim(0, 4)])
        a = ArrayStorage.allocate("a", t)
        a.set([0], 1.0)
        assert a.get([0]) == 1.0
        with pytest.raises(BoundsError):
            a.get([5])

    def test_assumed_size_needs_extent(self):
        t = ArrayType(Kind.REAL, [Dim(1, None)])
        with pytest.raises(ValueError):
            ArrayStorage.allocate("a", t)
        a = ArrayStorage.allocate("a", t, extents=[7])
        assert a.shape == (7,)

    def test_wrong_subscript_count(self):
        t = ArrayType(Kind.REAL, [Dim(1, 3), Dim(1, 3)])
        a = ArrayStorage.allocate("a", t)
        with pytest.raises(BoundsError):
            a.get([1])

    def test_from_values_shape_checked(self):
        t = ArrayType(Kind.REAL, [Dim(1, 3)])
        with pytest.raises(ValueError):
            ArrayStorage.from_values("a", t, np.zeros(4))

    def test_integer_kind_returns_python_ints(self):
        t = ArrayType(Kind.INTEGER, [Dim(1, 3)])
        a = ArrayStorage.from_values("a", t, np.array([1, 2, 3]))
        v = a.get([2])
        assert v == 2 and isinstance(v, int)

    def test_flat_index_unique(self):
        t = ArrayType(Kind.REAL, [Dim(1, 3), Dim(1, 4)])
        a = ArrayStorage.allocate("a", t)
        flats = {a.flat_index([i, j]) for i in range(1, 4) for j in range(1, 5)}
        assert len(flats) == 12


@st.composite
def _located(draw):
    """An array shape (rank 1-3, lower bounds around 0) and one
    subscript per axis, sometimes just out of range."""
    rank = draw(st.integers(1, 3))
    lowers = [draw(st.integers(-4, 4)) for _ in range(rank)]
    extents = [draw(st.integers(1, 4)) for _ in range(rank)]
    subs = [draw(st.integers(lo - 2, lo + n + 1))
            for lo, n in zip(lowers, extents)]
    return lowers, extents, subs


class _Flats(Tracer):
    def __init__(self):
        self.flats = []

    def on_read(self, array, flat, ref=None):
        self.flats.append(flat)

    def on_write(self, array, flat, *, atomic, ref=None):
        self.flats.append(flat)


class TestFlatIndex:
    """A location's flat id has one definition: ``ArrayStorage``'s
    row-major strides, shared by ``flat_index`` and the interpreter."""

    @staticmethod
    def _run(lowers, extents, subs, by_name):
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(*[(lo, lo + n - 1)
                                      for lo, n in zip(lowers, extents)]))
        names = [b.param(f"k{axis}", INTEGER) for axis in range(len(subs))]
        index = tuple(names) if by_name else tuple(subs)
        b.assign(a[index], a[index] + 1.0)
        proc = b.build()
        tracer = _Flats()
        mem = Memory.for_procedure(
            proc, {f"k{axis}": v for axis, v in enumerate(subs)})
        Interpreter(proc, mem, tracer).run()
        return mem, tracer.flats

    @given(_located(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_flat_index_matches_numpy_and_the_interpreter(self, case,
                                                          by_name):
        lowers, extents, subs = case
        t = ArrayType(Kind.REAL, [Dim(lo, lo + n - 1)
                                  for lo, n in zip(lowers, extents)])
        storage = ArrayStorage.allocate("a", t)
        offsets = [v - lo for v, lo in zip(subs, lowers)]
        bad = [axis for axis, (p, n) in enumerate(zip(offsets, extents))
               if not 0 <= p < n]
        if bad:
            axis = bad[0]
            low, high = lowers[axis], lowers[axis] + extents[axis] - 1
            message = re.escape(f"array 'a' axis {axis}: subscript "
                                f"{subs[axis]} outside [{low}, {high}]")
            with pytest.raises(BoundsError, match=message):
                storage.flat_index(subs)
            with pytest.raises(BoundsError, match=message):
                self._run(lowers, extents, subs, by_name)
            return
        flat = storage.flat_index(subs)
        assert flat == np.ravel_multi_index(offsets, tuple(extents))
        mem, flats = self._run(lowers, extents, subs, by_name)
        assert flats == [flat, flat]
        assert mem.array("a").data[tuple(offsets)] == 1.0
        assert mem.array("a").flat[flat] == 1.0

    def test_wrong_subscript_count_message(self):
        t = ArrayType(Kind.REAL, [Dim(1, 3), Dim(1, 3)])
        with pytest.raises(BoundsError, match="2 subscripts expected, got 1"):
            ArrayStorage.allocate("a", t).flat_index([1])

    def test_flat_is_a_view_of_data(self):
        t = ArrayType(Kind.INTEGER, [Dim(0, 2), Dim(-1, 1)])
        a = ArrayStorage.allocate("a", t)
        a.set([2, 1], 7)
        assert a.data[2, 2] == 7 and a.flat[8] == 7
        assert a.strides == (3, 1)
        b = a.copy()
        b.set([0, -1], 5)
        assert b.data[0, 0] == 5 and a.data[0, 0] == 0

    def test_zero_extent_array(self):
        a = ArrayStorage.allocate("a", ArrayType(Kind.REAL, [Dim(1, 0)]))
        assert a.flat.size == 0 and a.strides == (1,)
        with pytest.raises(BoundsError):
            a.get([1])


class TestMemory:
    def _proc(self):
        b = ProcedureBuilder("p")
        b.param("x", real_array(4), intent="in")
        b.param("n", INTEGER, intent="in")
        b.local("t", REAL)
        return b.build()

    def test_allocation_with_bindings(self):
        proc = self._proc()
        mem = Memory.for_procedure(proc, {"x": [1.0, 2.0, 3.0, 4.0], "n": 4})
        assert mem.array("x").get([2]) == 2.0
        assert mem.get_scalar("n") == 4
        assert mem.get_scalar("t") == 0.0

    def test_unknown_binding_rejected(self):
        with pytest.raises(KeyError):
            Memory.for_procedure(self._proc(), {"bogus": 1})

    def test_snapshot_is_independent(self):
        mem = Memory.for_procedure(self._proc(), {"n": 1})
        snap = mem.snapshot()
        mem.set_scalar("n", 99)
        mem.array("x").set([1], 5.0)
        assert snap.get_scalar("n") == 1
        assert snap.array("x").get([1]) == 0.0


class TestLoopIterations:
    def test_forward(self):
        assert loop_iterations(1, 5, 1) == [1, 2, 3, 4, 5]

    def test_stride(self):
        assert loop_iterations(2, 9, 2) == [2, 4, 6, 8]

    def test_backward(self):
        assert loop_iterations(5, 1, -1) == [5, 4, 3, 2, 1]

    def test_empty(self):
        assert loop_iterations(5, 1, 1) == []
        assert loop_iterations(1, 5, -1) == []

    def test_zero_step_rejected(self):
        with pytest.raises(InterpreterError):
            loop_iterations(1, 5, 0)


class TestInterpreter:
    def test_saxpy(self):
        src = """
subroutine saxpy(a, x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(10)
  real, intent(inout) :: y(10)
  !$omp parallel do
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine saxpy
"""
        proc = parse_procedure(src)
        mem = run_procedure(proc, {
            "a": 2.0,
            "x": np.arange(1.0, 11.0),
            "y": np.ones(10),
            "n": 10,
        })
        np.testing.assert_allclose(mem.array("y").data,
                                   1.0 + 2.0 * np.arange(1.0, 11.0))

    def test_indirect_addressing_fig2(self):
        src = """
subroutine fig2(x, y, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(20)
  real, intent(out) :: y(10)
  integer, intent(in) :: c(10)
  !$omp parallel do
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine fig2
"""
        proc = parse_procedure(src)
        c = np.array([3, 1, 2, 5, 4])
        x = np.arange(1.0, 21.0)
        mem = run_procedure(proc, {"x": x, "c": np.concatenate([c, np.zeros(5, int)]),
                                   "y": np.zeros(10), "n": 5})
        y = mem.array("y").data
        for i in range(5):
            assert y[c[i] - 1] == x[c[i] + 7 - 1]

    def test_if_else(self):
        src = """
subroutine p(x, y)
  real, intent(in) :: x
  real, intent(out) :: y
  if (x .gt. 0.0) then
    y = x * 2.0
  else
    y = -x
  end if
end subroutine p
"""
        proc = parse_procedure(src)
        assert run_procedure(proc, {"x": 3.0}).get_scalar("y") == 6.0
        assert run_procedure(proc, {"x": -4.0}).get_scalar("y") == 4.0

    def test_fortran_integer_division_truncates(self):
        src = """
subroutine p(a, b, q)
  integer, intent(in) :: a
  integer, intent(in) :: b
  integer, intent(out) :: q
  q = a / b
end subroutine p
"""
        proc = parse_procedure(src)
        assert run_procedure(proc, {"a": 7, "b": 2}).get_scalar("q") == 3
        assert run_procedure(proc, {"a": -7, "b": 2}).get_scalar("q") == -3

    _MOD = """
subroutine p(a, b, r)
  {kind}, intent(in) :: a
  {kind}, intent(in) :: b
  {kind}, intent(out) :: r
  r = mod(a, b)
end subroutine p
"""

    def _mod(self, a, b, kind="integer"):
        proc = parse_procedure(self._MOD.format(kind=kind))
        return run_procedure(proc, {"a": a, "b": b}).get_scalar("r")

    def test_integer_mod_is_exact(self):
        # Through a float, 2**53 + 1 rounds to an even number.
        r = self._mod(2**53 + 1, 2)
        assert r == 1 and type(r) is int
        assert self._mod(2**62 + 3, 4) == 3

    def test_integer_mod_takes_the_sign_of_a(self):
        assert [self._mod(a, b) for a, b in
                ((7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (-6, 3))] \
            == [1, -1, 1, -1, 0, 0]

    def test_real_mod_uses_fmod(self):
        assert self._mod(5.5, 2.0, "real") == 1.5
        assert self._mod(-5.5, 2.0, "real") == -1.5

    @pytest.mark.parametrize("a, b, kind", [(5, 0, "integer"),
                                            (5.0, 0.0, "real")])
    def test_mod_by_zero_raises_interpreter_error(self, a, b, kind):
        with pytest.raises(InterpreterError, match=r"mod\(5(\.0)?, 0"):
            self._mod(a, b, kind)

    @given(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))
    @settings(max_examples=200, deadline=None)
    def test_int_div_and_mod_agree_with_fortran(self, a, b):
        assume(b != 0)
        q = int_div(a, b)
        r = self._mod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b) and (r == 0 or (r > 0) == (a > 0))
        assert simplify(Const(a) / Const(b)) == Const(q)

    def test_counter_value_after_loop(self):
        src = """
subroutine p(n, k)
  integer, intent(in) :: n
  integer, intent(out) :: k
  do i = 1, n
    k = i
  end do
  k = i
end subroutine p
"""
        proc = parse_procedure(src)
        assert run_procedure(proc, {"n": 5}).get_scalar("k") == 6

    def test_intrinsics(self):
        src = """
subroutine p(x, y)
  real, intent(in) :: x
  real, intent(out) :: y
  y = sqrt(x) + max(x, 2.0) + abs(-x) + exp(0.0)
end subroutine p
"""
        proc = parse_procedure(src)
        y = run_procedure(proc, {"x": 4.0}).get_scalar("y")
        assert y == pytest.approx(2.0 + 4.0 + 4.0 + 1.0)

    def test_size_intrinsic(self):
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(3, 7), intent="in")
        n = b.param("n", INTEGER, intent="out")
        from repro.ir import Call
        b.assign(n, Call("size", (Var("a"), Var("one"))))
        b.local("one", INTEGER)
        proc = b.build()
        mem = Memory.for_procedure(proc, {"one": 2})
        Interpreter(proc, mem).run()
        assert mem.get_scalar("n") == 7

    def test_nested_parallel_rejected(self):
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(4))
        with b.parallel_do("i", 1, 2) as i:
            with b.parallel_do("j", 1, 2) as j:
                b.assign(a[j], 0.0)
        proc = b.build()
        # Builder allows constructing it, but execution refuses.
        mem = Memory.for_procedure(proc)
        with pytest.raises(InterpreterError):
            Interpreter(proc, mem).run()


class TestTape:
    def test_push_pop_lifo(self):
        b = ProcedureBuilder("p")
        x = b.param("x", REAL)
        y = b.param("y", REAL)
        b.push("ch", 1.0)
        b.push("ch", 2.0)
        b.pop("ch", x)
        b.pop("ch", y)
        proc = b.build()
        mem = Memory.for_procedure(proc)
        Interpreter(proc, mem).run()
        assert mem.get_scalar("x") == 2.0 and mem.get_scalar("y") == 1.0

    def test_pop_empty_raises(self):
        b = ProcedureBuilder("p")
        x = b.param("x", REAL)
        b.pop("ch", x)
        proc = b.build()
        with pytest.raises(TapeError):
            Interpreter(proc, Memory.for_procedure(proc)).run()

    def test_per_iteration_channels_in_parallel_loops(self):
        # Push in one parallel loop, pop in a second parallel loop over
        # the same iteration space (the AD forward/adjoint pattern).
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(5), intent="in")
        out = b.param("o", real_array(5), intent="out")
        with b.parallel_do("i", 1, 5) as i:
            b.push("t", a[i] * 2.0)
        with b.parallel_do("i2", 5, 1, -1) as i2:
            b.pop("t", out[i2])
        proc = b.build()
        mem = Memory.for_procedure(proc, {"a": np.arange(1.0, 6.0)})
        # Channels are keyed by counter *value*: pushes at i=1..5 align
        # with pops at i2=5..1 value-by-value.
        Interpreter(proc, mem).run()
        np.testing.assert_allclose(mem.array("o").data,
                                   2.0 * np.arange(1.0, 6.0))

    def test_misaligned_iteration_keys_raise(self):
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(5), intent="in")
        out = b.param("o", real_array(5), intent="out")
        with b.parallel_do("i", 1, 5) as i:
            b.push("t", a[i])
        with b.parallel_do("i2", 6, 10) as i2:  # keys 6..10: no pushes there
            b.pop("t", out[i2 - 5])
        proc = b.build()
        mem = Memory.for_procedure(proc, {"a": np.arange(1.0, 6.0)})
        with pytest.raises(TapeError):
            Interpreter(proc, mem).run()
