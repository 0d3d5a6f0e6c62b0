"""Property: parse ∘ format = identity (semantically).

Random procedures are generated from the statement grammar, printed,
re-parsed, and checked two ways: the second print must be a fixpoint,
and interpretation of both versions on random inputs must agree
exactly. The grammar includes balanced tape push/pop pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (Assign, BinOp, Call, Const, If, Loop, Op, Param, Pop,
                      Procedure, Push, UnOp, Var, INTEGER, REAL, real_array,
                      format_procedure, parse_procedure, validate)
from repro.ir.types import Intent
from repro.runtime import run_procedure

N = 5


def _leaves():
    i = Var("i")
    return st.sampled_from([
        Var("x")[i], Var("t"), Const(0.5), Const(-2.0), Const(3),
        Var("y")[i],
    ])


def _exprs(depth):
    if depth == 0:
        return _leaves()
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaves(),
        st.builds(lambda a, b: BinOp(Op.ADD, a, b), sub, sub),
        st.builds(lambda a, b: BinOp(Op.SUB, a, b), sub, sub),
        st.builds(lambda a, b: BinOp(Op.MUL, a, b), sub, sub),
        st.builds(lambda a, b: BinOp(Op.DIV, a, b), sub,
                  st.sampled_from([Const(2.0), Const(4.0)])),
        st.builds(lambda a: UnOp(Op.NEG, a), sub),
        st.builds(lambda a: Call("tanh", (a,)), sub),
        st.builds(lambda a, b: Call("max", (a, b)), sub, sub),
    )


@st.composite
def _stmts(draw, depth=1):
    kind = draw(st.sampled_from(
        ["assign_y", "assign_t", "if", "loop", "tape"] if depth > 0
        else ["assign_y", "assign_t"]))
    i = Var("i")
    if kind == "assign_y":
        return Assign(Var("y")[i], draw(_exprs(2)))
    if kind == "assign_t":
        return Assign(Var("t"), draw(_exprs(2)))
    if kind == "if":
        cond = draw(st.sampled_from([Var("t").gt(0.0), Var("x")[i].le(0.5)]))
        then = draw(st.lists(_stmts(depth=depth - 1), min_size=1, max_size=2))
        els = draw(st.lists(_stmts(depth=depth - 1), min_size=0, max_size=2))
        return If(cond, then, els)
    inner = draw(st.lists(_stmts(depth=depth - 1), min_size=1, max_size=2))
    if kind == "tape":
        # A balanced pair: every push is popped in the same iteration.
        channel = draw(st.sampled_from(["v1", "c42", "Tape"]))
        target = draw(st.sampled_from([Var("t"), Var("y")[i]]))
        return Loop("k", 1, 2, body=[Push(channel, draw(_exprs(1)))] + inner
                    + [Pop(channel, target)])
    return Loop("k", 1, 2, body=[Assign(Var("t"), Var("t") * 0.5)] + inner)


@st.composite
def procedures(draw):
    stmts = draw(st.lists(_stmts(depth=1), min_size=1, max_size=3))
    body = [Assign(Var("t"), Const(0.5)), Loop("i", 1, N, body=stmts)]
    proc = Procedure(
        "roundtrip",
        [Param("x", real_array(N), Intent.IN),
         Param("y", real_array(N), Intent.INOUT)],
        {"t": REAL, "i": INTEGER, "k": INTEGER},
        body,
    )
    validate(proc)
    return proc


class TestRoundTrip:
    @given(procedures())
    @settings(max_examples=80, deadline=None)
    def test_format_parse_fixpoint(self, proc):
        # The parser normalizes (folds --2.0 etc.), so the printed form
        # must be a fixpoint from the first reparse onward.
        text1 = format_procedure(proc)
        text2 = format_procedure(parse_procedure(text1))
        text3 = format_procedure(parse_procedure(text2))
        assert text2 == text3

    @given(procedures(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_semantics_preserved(self, proc, seed):
        rng = np.random.default_rng(seed)
        bindings = {"x": rng.uniform(-1, 1, N), "y": rng.uniform(-1, 1, N)}
        reparsed = parse_procedure(format_procedure(proc))
        m1 = run_procedure(proc, bindings)
        m2 = run_procedure(reparsed, bindings)
        np.testing.assert_array_equal(m1.array("y").data, m2.array("y").data)
        assert m1.get_scalar("t") == m2.get_scalar("t")
