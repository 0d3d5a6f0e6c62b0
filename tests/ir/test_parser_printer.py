"""Tests for the Fortran-ish parser and pretty printer, including
round-trip properties on the paper's own listings."""

import pytest

from repro import STRATEGIES, differentiate
from repro.ir import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, If,
                      Intent, Kind, Logical, Loop, Op, ParseError, Pop, Push,
                      UnOp, Var, format_procedure, parse_expression,
                      parse_procedure, parse_program, validate)
from repro.ir.parser import MAX_NESTING
from repro.programs import (build_gfmc, build_greengauss, build_lbm,
                            build_stencil)

FIG2_PRIMAL = """
subroutine fig2(x, y, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(2000)
  real, intent(out) :: y(1000)
  integer, intent(in) :: c(1000)

  !$omp parallel do
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine fig2
"""


class TestExpressionParsing:
    def test_literals(self):
        assert parse_expression("42") == Const(42)
        assert parse_expression("1.5") == Const(1.5)
        assert parse_expression("0.5e-3") == Const(0.0005)
        assert parse_expression("1.5d0") == Const(1.5)
        assert parse_expression(".true.") == Const(True)

    def test_precedence(self):
        e = parse_expression("a + b * c")
        assert isinstance(e, BinOp) and e.op is Op.ADD
        assert isinstance(e.right, BinOp) and e.right.op is Op.MUL

    def test_parentheses(self):
        e = parse_expression("(a + b) * c")
        assert e.op is Op.MUL
        assert isinstance(e.left, BinOp) and e.left.op is Op.ADD

    def test_power_right_associative(self):
        e = parse_expression("a ** b ** c")
        assert e.op is Op.POW
        assert isinstance(e.right, BinOp) and e.right.op is Op.POW

    def test_unary_minus(self):
        e = parse_expression("-a + b")
        assert e.op is Op.ADD and isinstance(e.left, UnOp)

    def test_array_vs_intrinsic_disambiguation(self):
        e = parse_expression("c(i) + sin(x)", array_names={"c"})
        assert isinstance(e.left, ArrayRef)
        assert isinstance(e.right, Call)

    def test_unknown_call_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("mystery(i)")

    def test_multidim_array(self):
        e = parse_expression("mss(2, ig, k12)", array_names={"mss"})
        assert isinstance(e, ArrayRef) and len(e.indices) == 3

    def test_comparisons_both_spellings(self):
        for text in ("i .ne. j", "i /= j"):
            e = parse_expression(text)
            assert isinstance(e, Compare) and e.op is CmpOp.NE
        assert parse_expression("i == j").op is CmpOp.EQ
        assert parse_expression("i .le. j").op is CmpOp.LE

    def test_logical_ops(self):
        e = parse_expression("a .lt. b .and. .not. c .gt. d")
        assert isinstance(e, Logical)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b c")

    def test_case_insensitive(self):
        assert parse_expression("A + B") == Var("a") + Var("b")

    @pytest.mark.parametrize("text", [
        "(" * 1000 + "x" + ")" * 1000,
        "c(" * 1000 + "i" + ")" * 1000,
        "-" * 1000 + "x",
        ".not. " * 1000 + "x",
        " ** ".join(["x"] * 1000),
    ], ids=["parentheses", "subscripts", "unary-minus", "not", "power"])
    def test_nesting_past_the_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^line 1: expression nests "
                                             "more than 64 levels deep"):
            parse_expression(text, array_names={"c"})

    def test_nesting_up_to_the_limit_parses(self):
        e = parse_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING)
        assert e == Var("x")
        e = parse_expression("-" * MAX_NESTING + "x")
        assert isinstance(e, UnOp)


class TestProcedureParsing:
    def test_fig2_structure(self):
        proc = parse_procedure(FIG2_PRIMAL)
        assert proc.name == "fig2"
        assert proc.param("x").intent is Intent.IN
        assert proc.param("y").intent is Intent.OUT
        assert proc.type_of("c").kind is Kind.INTEGER
        loops = proc.parallel_loops()
        assert len(loops) == 1
        loop = loops[0]
        stmt = loop.body[0]
        assert stmt.target == Var("y")[Var("c")[Var("i")]]
        assert stmt.value == Var("x")[Var("c")[Var("i")] + 7]
        validate(proc)

    def test_loop_counter_auto_declared(self):
        proc = parse_procedure(FIG2_PRIMAL)
        assert proc.locals["i"].kind is Kind.INTEGER

    def test_private_and_reduction_clauses(self):
        src = """
subroutine p(grad, dv, s, n)
  integer, intent(in) :: n
  real, intent(inout) :: grad(100)
  real, intent(in) :: dv(100)
  real, intent(inout) :: s
  real :: t

  !$omp parallel do private(t) reduction(+:s)
  do i = 1, n
    t = dv(i) * 0.5d0
    grad(i) = grad(i) + t
    s = s + t
  end do
end subroutine p
"""
        proc = parse_procedure(src)
        loop = proc.parallel_loops()[0]
        assert loop.private == ("t",)
        assert loop.reduction == (("+", "s"),)

    def test_atomic_pragma(self):
        src = """
subroutine p(xb, yb, c, n)
  integer, intent(in) :: n
  real, intent(inout) :: xb(2000)
  real, intent(inout) :: yb(1000)
  integer, intent(in) :: c(1000)

  !$omp parallel do
  do i = n, 1, -1
    !$omp atomic
    xb(c(i) + 7) = xb(c(i) + 7) + yb(c(i))
    yb(c(i)) = 0.0
  end do
end subroutine p
"""
        proc = parse_procedure(src)
        loop = proc.parallel_loops()[0]
        assert loop.step_const == -1
        assert loop.body[0].atomic is True
        assert loop.body[1].atomic is False

    def test_if_else(self):
        src = """
subroutine p(x, y)
  real, intent(in) :: x
  real, intent(out) :: y

  if (x .gt. 0.0) then
    y = x
  else
    y = -x
  end if
end subroutine p
"""
        proc = parse_procedure(src)
        stmt = proc.body[0]
        assert isinstance(stmt, If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_continuation_lines(self):
        src = """
subroutine p(a, b)
  real, intent(inout) :: a
  real, intent(in) :: b

  a = b + &
      2.0
end subroutine p
"""
        proc = parse_procedure(src)
        assert proc.body[0].value == Var("b") + 2.0

    def test_comments_stripped(self):
        src = """
subroutine p(a)  ! the head
  real, intent(inout) :: a
  a = a + 1.0  ! bump
end subroutine p
"""
        proc = parse_procedure(src)
        assert len(proc.body) == 1

    def test_undeclared_argument_rejected(self):
        with pytest.raises(ParseError):
            parse_procedure("subroutine p(x)\nend subroutine p")

    def test_mismatched_end_name_rejected(self):
        with pytest.raises(ParseError):
            parse_procedure("subroutine p()\nend subroutine q")

    def test_explicit_bounds(self):
        src = """
subroutine p(a)
  real, intent(inout) :: a(0:9, 5)
  a(0, 1) = 1.0
end subroutine p
"""
        proc = parse_procedure(src)
        t = proc.type_of("a")
        assert t.dims[0].lower == 0 and t.dims[0].upper == 9
        assert t.dims[1].lower == 1 and t.dims[1].upper == 5

    def test_program_with_two_procedures(self):
        src = FIG2_PRIMAL + "\nsubroutine empty()\nend subroutine empty\n"
        prog = parse_program(src)
        assert len(prog) == 2

    def test_unsupported_pragma_rejected(self):
        src = """
subroutine p(a)
  real, intent(inout) :: a(10)
  !$omp sections
  do i = 1, 10
    a(i) = 0.0
  end do
end subroutine p
"""
        with pytest.raises(ParseError):
            parse_procedure(src)


class TestRoundTrip:
    def test_fig2_round_trips(self):
        proc = parse_procedure(FIG2_PRIMAL)
        text = format_procedure(proc)
        again = parse_procedure(text)
        assert format_procedure(again) == text

    def test_round_trip_preserves_semantics_markers(self):
        proc = parse_procedure(FIG2_PRIMAL)
        text = format_procedure(proc)
        assert "!$omp parallel do" in text
        assert "y(c(i)) = x(c(i) + 7)" in text


TAPE = """
subroutine tape(x, t)
  real, intent(inout) :: x(10)
  real, intent(inout) :: t
  do i = 1, 10
    call push('v7', x(i) * 2.0)
    call push('Ci', t)
    call pop('Ci', t)
    call pop('v7', x(i))
  end do
end subroutine tape
"""


class TestTapeStatements:
    def test_push_and_pop_parse(self):
        proc = parse_procedure(TAPE)
        push, push_t, pop_t, pop = proc.body[0].body
        assert isinstance(push, Push) and push.channel == "v7"
        assert push.value == BinOp(Op.MUL, ArrayRef("x", (Var("i"),)),
                                   Const(2.0))
        # channel names keep their case; identifiers are lowercased
        assert push_t.channel == pop_t.channel == "Ci"
        assert isinstance(pop, Pop) and pop.target == ArrayRef(
            "x", (Var("i"),))
        assert format_procedure(parse_procedure(format_procedure(proc))) \
            == format_procedure(proc)

    def test_call_stays_a_variable_name(self):
        src = TAPE.replace("call push('v7', x(i) * 2.0)", "call = t + 1.0")
        src = src.replace("real, intent(inout) :: t",
                          "real, intent(inout) :: t\n  real :: call")
        proc = parse_procedure(src)
        assert proc.body[0].body[0].target == Var("call")

    @pytest.mark.parametrize("line", [
        "call push(v7, t)",            # unquoted channel
        "call flush('v7', t)",         # not a tape operation
        "call pop('v7', t + 1.0)",     # pop into an expression
        "call push('v7', t) t",        # trailing tokens
    ])
    def test_malformed_tape_statements_rejected(self, line):
        src = TAPE.replace("call push('v7', x(i) * 2.0)", line)
        with pytest.raises(ParseError):
            parse_procedure(src)


#: The paper kernels with their (independents, dependents).
KERNELS = {
    "gfmc": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "stencil8": (lambda: build_stencil(8), ["uold"], ["unew"]),
    "greengauss": (build_greengauss, ["dv"], ["grad"]),
    "lbm": (build_lbm, ["srcgrid"], ["dstgrid"]),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_printed_adjoints_parse_back(kernel, strategy):
    # Generated adjoints carry their tape as call push/pop statements;
    # what `repro differentiate -O` writes must read back verbatim.
    builder, independents, dependents = KERNELS[kernel]
    adjoint = differentiate(builder(), independents, dependents,
                            strategy=strategy).procedure
    text = format_procedure(adjoint)
    assert "call push('" in text and "call pop('" in text
    assert format_procedure(parse_procedure(text)) == text
