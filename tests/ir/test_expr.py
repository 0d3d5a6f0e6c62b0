"""Unit tests for the expression AST."""

import random

import pytest

from repro.ir import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, Logical,
                      LogicOp, Op, UnOp, Var, arrays_in, as_expr, children,
                      names_in, rename_arrays, substitute, variables_in, walk)


class TestConstruction:
    def test_operator_overloading_builds_binops(self):
        x, y = Var("x"), Var("y")
        e = x + y
        assert isinstance(e, BinOp) and e.op is Op.ADD
        assert (x - y).op is Op.SUB
        assert (x * y).op is Op.MUL
        assert (x / y).op is Op.DIV
        assert (x ** 2).op is Op.POW

    def test_python_scalars_coerce_to_constants(self):
        x = Var("x")
        e = x + 1
        assert e.right == Const(1)
        e = 2.5 * x
        assert e.left == Const(2.5)

    def test_negation(self):
        e = -Var("x")
        assert isinstance(e, UnOp) and e.op is Op.NEG

    def test_indexing_builds_arrayref(self):
        a, i, j = Var("a"), Var("i"), Var("j")
        ref = a[i, j + 1]
        assert isinstance(ref, ArrayRef)
        assert ref.name == "a"
        assert ref.indices == (i, BinOp(Op.ADD, j, Const(1)))

    def test_single_index(self):
        ref = Var("a")[3]
        assert ref.indices == (Const(3),)

    def test_comparison_builders(self):
        x = Var("x")
        assert x.eq(0).op is CmpOp.EQ
        assert x.ne(0).op is CmpOp.NE
        assert x.lt(0).op is CmpOp.LT
        assert x.le(0).op is CmpOp.LE
        assert x.gt(0).op is CmpOp.GT
        assert x.ge(0).op is CmpOp.GE

    def test_logical_builders(self):
        a = Var("x").gt(0)
        b = Var("y").lt(1)
        assert a.logical_and(b).op is LogicOp.AND
        assert a.logical_or(b).op is LogicOp.OR
        assert a.logical_not().op is LogicOp.NOT

    def test_bad_constant_rejected(self):
        with pytest.raises(TypeError):
            Const("nope")

    def test_bad_variable_name_rejected(self):
        with pytest.raises(ValueError):
            Var("")

    def test_arrayref_requires_indices(self):
        with pytest.raises(ValueError):
            ArrayRef("a", ())

    def test_as_expr_rejects_junk(self):
        with pytest.raises(TypeError):
            as_expr(object())

    def test_logical_arity_enforced(self):
        with pytest.raises(ValueError):
            Logical(LogicOp.NOT, (Var("a"), Var("b")))
        with pytest.raises(ValueError):
            Logical(LogicOp.AND, (Var("a"),))


class TestStructuralEquality:
    def test_equal_expressions_compare_equal(self):
        e1 = Var("x") + Var("y") * 2
        e2 = Var("x") + Var("y") * 2
        assert e1 == e2
        assert hash(e1) == hash(e2)

    def test_different_expressions_differ(self):
        assert (Var("x") + 1) != (Var("x") + 2)
        assert Var("x") != Var("y")

    def test_usable_as_dict_keys(self):
        d = {Var("c")[Var("i")]: "write"}
        assert d[Var("c")[Var("i")]] == "write"


class TestTraversal:
    def test_walk_yields_all_nodes(self):
        e = Var("a")[Var("i") + 1] * Var("b") + Call("sin", (Var("t"),))
        kinds = [type(n).__name__ for n in walk(e)]
        assert kinds.count("BinOp") == 3
        assert "ArrayRef" in kinds and "Call" in kinds

    def test_children_of_leaves_empty(self):
        assert children(Const(1)) == ()
        assert children(Var("x")) == ()

    def test_variables_in_excludes_array_names(self):
        e = Var("a")[Var("i")] + Var("x")
        assert variables_in(e) == {"i", "x"}
        assert arrays_in(e) == {"a"}
        assert names_in(e) == {"a", "i", "x"}

    def test_variables_in_nested_indices(self):
        e = Var("y")[Var("c")[Var("i")] + 7]
        assert variables_in(e) == {"i"}
        assert arrays_in(e) == {"y", "c"}


def _walked_names(expr):
    """The walk-based reference for the cached name sets."""
    nodes = list(walk(expr))
    return ({n.name for n in nodes if isinstance(n, Var)},
            {n.name for n in nodes if isinstance(n, ArrayRef)})


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var(rng.choice("ijkn")), Const(rng.randint(0, 3)),
                           Const(1.5)])
    def sub():
        return _random_expr(rng, depth - 1)

    kind = rng.randrange(6)
    if kind == 0:
        return ArrayRef(rng.choice("abc"),
                        tuple(sub() for _ in range(rng.randint(1, 3))))
    if kind == 1:
        return BinOp(rng.choice([Op.ADD, Op.SUB, Op.MUL]), sub(), sub())
    if kind == 2:
        return UnOp(Op.NEG, sub())
    if kind == 3:
        return Call("max", (sub(), sub()))
    if kind == 4:
        return Compare(CmpOp.LT, sub(), sub())
    return Logical(LogicOp.AND, (sub(), sub()))


class TestNameSets:
    """``variables_in``/``arrays_in``/``names_in`` read per-node sets
    computed once; they must answer exactly what a walk finds."""

    def test_random_expressions_match_walk(self):
        rng = random.Random(20261021)
        for _ in range(300):
            e = _random_expr(rng, rng.randint(0, 6))
            want_vars, want_arrays = _walked_names(e)
            # Ask a random sub-expression first, so the root's sets are
            # built on top of already-cached children half the time.
            sub = rng.choice(list(walk(e)))
            assert variables_in(sub) == _walked_names(sub)[0]
            assert variables_in(e) == want_vars
            assert arrays_in(e) == want_arrays
            assert names_in(e) == want_vars | want_arrays

    def test_shared_subtree_answers_in_every_parent(self):
        shared = Var("c")[Var("i")]
        left = shared + Var("x")
        right = Var("a")[shared]
        assert variables_in(left) == {"i", "x"}
        assert arrays_in(right) == {"a", "c"}
        assert names_in(left * right) == {"a", "c", "i", "x"}

    def test_left_deep_sum_of_2000_terms(self):
        e = Var("x0")
        for k in range(1, 2000):
            e = BinOp(Op.ADD, e, Var(f"x{k}"))
        assert variables_in(e) == {f"x{k}" for k in range(2000)}
        assert arrays_in(e) == set()

    def test_right_nested_binop_1000_deep(self):
        e = Var("a")[Var("i")]
        for k in range(1000):
            e = BinOp(Op.MUL, Var(f"s{k % 7}"), e)
        assert variables_in(e) == {"i"} | {f"s{k}" for k in range(7)}
        assert arrays_in(e) == {"a"}
        assert len(names_in(e)) == 9

    def test_mutating_a_returned_set_changes_no_later_answer(self):
        e = Var("a")[Var("i")] + Var("x")
        for query, want in ((variables_in, {"i", "x"}),
                            (arrays_in, {"a"}),
                            (names_in, {"a", "i", "x"})):
            got = query(e)
            got.add("zzz")
            got.discard("x")
            got.discard("a")
            assert query(e) == want
        assert names_in(e) == {"a", "i", "x"}


class TestSubstitution:
    def test_substitute_scalar(self):
        e = Var("i") + Var("j")
        out = substitute(e, {"i": Var("ip")})
        assert out == Var("ip") + Var("j")

    def test_substitute_inside_indices(self):
        e = Var("a")[Var("i") + 1]
        out = substitute(e, {"i": Var("k")})
        assert out == Var("a")[Var("k") + 1]

    def test_substitute_does_not_touch_array_names(self):
        e = Var("a")[Var("a_scalar")]
        out = substitute(e, {"a": Var("b")})
        assert isinstance(out, ArrayRef) and out.name == "a"

    def test_substitute_compare_and_logical(self):
        e = Var("i").eq(Var("j")).logical_and(Var("k").gt(0))
        out = substitute(e, {"i": Var("x"), "k": Var("y")})
        assert "x" in variables_in(out) and "y" in variables_in(out)
        assert "i" not in variables_in(out)

    def test_rename_arrays(self):
        e = Var("x")[Var("i")] + Var("y")[Var("x")[Var("i")]]
        out = rename_arrays(e, {"x": "xb"})
        assert arrays_in(out) == {"xb", "y"}

    def test_rename_arrays_in_call_args(self):
        e = Call("sin", (Var("x")[Var("i")],))
        out = rename_arrays(e, {"x": "xb"})
        assert arrays_in(out) == {"xb"}


class TestStringForms:
    def test_str_is_readable(self):
        e = Var("u")[Var("i") - 1]
        assert "u(" in str(e)

    def test_const_str(self):
        assert str(Const(3)) == "3"
