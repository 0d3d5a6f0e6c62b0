"""Parser for the Fortran-flavored surface syntax.

Supports the subset of Fortran the paper's benchmarks use, plus the
``!$omp parallel do`` / ``!$omp atomic`` pragmas. The grammar (informal):

::

    program     := subroutine+
    subroutine  := "subroutine" NAME "(" names ")" decl* stmt* "end" "subroutine" [NAME]
    decl        := kind ["," "intent" "(" intent ")"] "::" declitem ("," declitem)*
    declitem    := NAME ["(" dims ")"]
    stmt        := assign | if | do | pragma-do | push | pop
    assign      := lvalue "=" expr
    if          := "if" "(" expr ")" "then" stmt* ["else" stmt*] "end" "if"
    do          := "do" NAME "=" expr "," expr ["," expr] stmt* "end" "do"
    push        := "call" "push" "(" CHANNEL "," expr ")"
    pop         := "call" "pop" "(" CHANNEL "," lvalue ")"

``push``/``pop`` are the tape operations of generated adjoints; a
``CHANNEL`` is a single-quoted tape channel name such as ``'v12'``.

Expressions use Fortran operators (``**``, ``.and.``, ``.eq.``/``==``,
``.ne.``/``/=`` ...). Identifiers followed by ``(`` are array references
when declared as arrays, otherwise intrinsic calls.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .expr import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, Expr,
                   INTRINSICS, Logical, LogicOp, Op, UnOp, Var)
from .program import Param, Procedure, Program
from .stmt import Assign, If, Loop, Pop, Push, Stmt
from .types import ArrayType, Dim, INTEGER, Intent, Kind, LOGICAL, REAL, ScalarType, Type


class ParseError(ValueError):
    """Raised on malformed source text, with a line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<float>\d+\.\d*(?:[deDE][+-]?\d+)?|\d+[deDE][+-]?\d+|\.\d+(?:[deDE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<dotop>\.(?:and|or|not|eq|ne|lt|le|gt|ge|true|false)\.)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|==|/=|<=|>=|::|[-+*/(),:=<>])
  | (?P<ws>[ \t]+)
  | (?P<channel>'[^']*')
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


class Line:
    """One logical source line: a pragma flag plus its tokens."""

    __slots__ = ("tokens", "number", "pragma")

    def __init__(self, tokens: List[Token], number: int, pragma: Optional[str]) -> None:
        self.tokens = tokens
        self.number = number
        self.pragma = pragma


def _tokenize_line(text: str, line_no: int) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no)
        pos = m.end()
        kind = m.lastgroup
        assert kind is not None
        if kind == "ws":
            continue
        tok_text = m.group()
        if kind == "name":
            tok_text = tok_text.lower()
        elif kind == "dotop":
            tok_text = tok_text.lower()
        tokens.append(Token(kind, tok_text, line_no))
    return tokens


def _logical_lines(source: str) -> List[Line]:
    """Split source into logical lines, honoring ``&`` continuations,
    stripping comments, and recognizing ``!$omp`` pragmas."""
    lines: List[Line] = []
    pending = ""
    pending_start = 0
    for idx, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        pragma: Optional[str] = None
        if stripped.lower().startswith("!$omp"):
            pragma = stripped[len("!$omp"):].strip().lower()
            lines.append(Line([], idx, pragma))
            continue
        # Strip trailing comments (the only string literals, tape
        # channel names, never contain "!").
        if "!" in stripped:
            stripped = stripped[: stripped.index("!")].strip()
        if not stripped:
            continue
        if pending:
            stripped = pending + " " + stripped
            start = pending_start
            pending = ""
        else:
            start = idx
        if stripped.endswith("&"):
            pending = stripped[:-1].strip()
            pending_start = start
            continue
        lines.append(Line(_tokenize_line(stripped, start), start, None))
    if pending:
        raise ParseError("dangling line continuation", pending_start)
    return lines


# ----------------------------------------------------------------------
# Expression parser (precedence climbing over one token list)
# ----------------------------------------------------------------------

class _TokenStream:
    def __init__(self, tokens: Sequence[Token], line: int) -> None:
        self.tokens = list(tokens)
        self.pos = 0
        self.line = line

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", self.line)
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


_CMP_TOKENS = {
    "==": CmpOp.EQ, ".eq.": CmpOp.EQ,
    "/=": CmpOp.NE, ".ne.": CmpOp.NE,
    "<": CmpOp.LT, ".lt.": CmpOp.LT,
    "<=": CmpOp.LE, ".le.": CmpOp.LE,
    ">": CmpOp.GT, ".gt.": CmpOp.GT,
    ">=": CmpOp.GE, ".ge.": CmpOp.GE,
}


#: Deepest nesting of parenthesized groups, argument lists and unary
#: operators an expression may have. One level costs this
#: recursive-descent parser up to eleven Python frames, so the limit
#: keeps a parse well inside the interpreter's default recursion limit
#: of 1000 frames: deeper input is a :class:`ParseError`, not a
#: ``RecursionError``.
MAX_NESTING = 64


class ExprParser:
    """Precedence-climbing expression parser over a token stream.

    *array_names* drives the ``name(...)`` disambiguation: declared
    arrays parse to :class:`ArrayRef`, anything else to a :class:`Call`
    (which must then be a known intrinsic).
    """

    def __init__(self, stream: _TokenStream, array_names: set[str]) -> None:
        self.s = stream
        self.array_names = array_names
        self.depth = 0

    def parse(self) -> Expr:
        return self._or()

    def _nested(self, parse: Callable[[], Expr]) -> Expr:
        """Run *parse* one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nests more than {MAX_NESTING} "
                             f"levels deep", self.s.line)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def _or(self) -> Expr:
        left = self._and()
        while self.s.peek() is not None and self.s.peek().text == ".or.":
            self.s.next()
            left = Logical(LogicOp.OR, (left, self._and()))
        return left

    def _and(self) -> Expr:
        left = self._not()
        while self.s.peek() is not None and self.s.peek().text == ".and.":
            self.s.next()
            left = Logical(LogicOp.AND, (left, self._not()))
        return left

    def _not(self) -> Expr:
        if self.s.peek() is not None and self.s.peek().text == ".not.":
            self.s.next()
            return Logical(LogicOp.NOT, (self._nested(self._not),))
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        tok = self.s.peek()
        if tok is not None and tok.text in _CMP_TOKENS:
            self.s.next()
            right = self._additive()
            return Compare(_CMP_TOKENS[tok.text], left, right)
        return left

    def _additive(self) -> Expr:
        left = self._term()
        while True:
            tok = self.s.peek()
            if tok is None or tok.text not in ("+", "-"):
                return left
            self.s.next()
            right = self._term()
            left = BinOp(Op.ADD if tok.text == "+" else Op.SUB, left, right)

    def _term(self) -> Expr:
        left = self._unary()
        while True:
            tok = self.s.peek()
            if tok is None or tok.text not in ("*", "/"):
                return left
            self.s.next()
            right = self._unary()
            left = BinOp(Op.MUL if tok.text == "*" else Op.DIV, left, right)

    def _unary(self) -> Expr:
        tok = self.s.peek()
        if tok is not None and tok.text == "-":
            self.s.next()
            inner = self._nested(self._unary)
            if isinstance(inner, Const) and not isinstance(inner.value, bool):
                return Const(-inner.value)
            return UnOp(Op.NEG, inner)
        if tok is not None and tok.text == "+":
            self.s.next()
            return self._nested(self._unary)
        return self._power()

    def _power(self) -> Expr:
        base = self._primary()
        if self.s.peek() is not None and self.s.peek().text == "**":
            self.s.next()
            # Fortran ** is right-associative.
            return BinOp(Op.POW, base, self._nested(self._unary))
        return base

    def _primary(self) -> Expr:
        tok = self.s.next()
        if tok.kind == "int":
            return Const(int(tok.text))
        if tok.kind == "float":
            return Const(float(tok.text.lower().replace("d", "e")))
        if tok.kind == "dotop":
            if tok.text == ".true.":
                return Const(True)
            if tok.text == ".false.":
                return Const(False)
            raise ParseError(f"unexpected operator {tok.text!r}", self.s.line)
        if tok.text == "(":
            inner = self._nested(self.parse)
            self.s.expect(")")
            return inner
        if tok.kind == "name":
            name = tok.text
            if self.s.peek() is not None and self.s.peek().text == "(":
                self.s.next()
                args: List[Expr] = [self._nested(self.parse)]
                while self.s.accept(","):
                    args.append(self._nested(self.parse))
                self.s.expect(")")
                if name in self.array_names:
                    return ArrayRef(name, tuple(args))
                if name in INTRINSICS or name == "size":
                    return Call(name, tuple(args))
                raise ParseError(
                    f"{name!r} used with parentheses but is neither a declared "
                    f"array nor a known intrinsic", self.s.line)
            return Var(name)
        raise ParseError(f"unexpected token {tok.text!r}", self.s.line)


def parse_expression(text: str, array_names: set[str] = frozenset()) -> Expr:
    """Parse a standalone expression (used heavily in tests)."""
    stream = _TokenStream(_tokenize_line(text, 1), 1)
    expr = ExprParser(stream, set(array_names)).parse()
    if not stream.at_end():
        raise ParseError(f"trailing tokens after expression: {stream.peek().text!r}", 1)
    return expr


# ----------------------------------------------------------------------
# Statement / procedure parser
# ----------------------------------------------------------------------

_KINDS = {"real": Kind.REAL, "integer": Kind.INTEGER, "logical": Kind.LOGICAL,
          "double": Kind.REAL}


class _ProcedureParser:
    def __init__(self, lines: List[Line], start: int) -> None:
        self.lines = lines
        self.pos = start
        self.param_names: set[str] = set()
        self.locals: Dict[str, Type] = {}
        self.array_names: set[str] = set()
        self.name = ""

    # -- line helpers ---------------------------------------------------
    def _line(self) -> Line:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of input", self.lines[-1].number if self.lines else 0)
        return self.lines[self.pos]

    def _advance(self) -> Line:
        line = self._line()
        self.pos += 1
        return line

    # -- header & declarations -------------------------------------------
    def parse(self) -> Procedure:
        header = self._advance()
        s = _TokenStream(header.tokens, header.number)
        s.expect("subroutine")
        self.name = s.next().text
        arg_names: List[str] = []
        if s.accept("("):
            if not s.accept(")"):
                arg_names.append(s.next().text)
                while s.accept(","):
                    arg_names.append(s.next().text)
                s.expect(")")
        declared: Dict[str, Tuple[Type, Intent]] = {}
        # Declarations: consecutive lines starting with a type kind.
        while self.pos < len(self.lines):
            line = self._line()
            if line.pragma is not None or not line.tokens:
                break
            first = line.tokens[0].text
            if first not in _KINDS:
                break
            self._advance()
            self._parse_decl(line, declared)
        params: List[Param] = []
        for arg in arg_names:
            if arg not in declared:
                raise ParseError(f"argument {arg!r} of {self.name!r} not declared",
                                 header.number)
            type_, intent = declared.pop(arg)
            params.append(Param(arg, type_, intent))
            self.param_names.add(arg)
        for name, (type_, intent) in declared.items():
            if intent is not Intent.LOCAL:
                raise ParseError(
                    f"{name!r} has intent({intent.value}) but is not an argument",
                    header.number)
            self.locals[name] = type_
        body = self._parse_stmts(terminators=("end",))
        end_line = self._advance()
        s = _TokenStream(end_line.tokens, end_line.number)
        s.expect("end")
        s.expect("subroutine")
        if not s.at_end():
            got = s.next().text
            if got != self.name:
                raise ParseError(f"end subroutine {got!r} does not match {self.name!r}",
                                 end_line.number)
        return Procedure(self.name, params, self.locals, body)

    def _parse_decl(self, line: Line, declared: Dict[str, Tuple[Type, Intent]]) -> None:
        s = _TokenStream(line.tokens, line.number)
        kind_tok = s.next()
        kind = _KINDS[kind_tok.text]
        if kind_tok.text == "double":
            s.expect("precision")  # pragma: no cover - simple alias
        intent = Intent.LOCAL
        while s.accept(","):
            attr = s.next().text
            if attr == "intent":
                s.expect("(")
                intent = Intent(s.next().text)
                s.expect(")")
            elif attr in ("parameter", "save"):
                raise ParseError(f"attribute {attr!r} not supported", line.number)
            else:
                raise ParseError(f"unknown attribute {attr!r}", line.number)
        s.expect("::")
        while True:
            name = s.next().text
            type_: Type
            if s.accept("("):
                dims: List[Dim] = []
                while True:
                    dims.append(self._parse_dim(s))
                    if not s.accept(","):
                        break
                s.expect(")")
                type_ = ArrayType(kind, dims)
                self.array_names.add(name)
            else:
                type_ = ScalarType(kind)
            declared[name] = (type_, intent)
            if not s.accept(","):
                break
        if not s.at_end():
            raise ParseError(f"trailing tokens in declaration: {s.peek().text!r}",
                             line.number)

    def _parse_dim(self, s: _TokenStream) -> Dim:
        def bound() -> Optional[int]:
            neg = s.accept("-")
            tok = s.peek()
            if tok is not None and tok.text == "*":
                s.next()
                return None
            tok = s.next()
            if tok.kind != "int":
                raise ParseError(f"array bounds must be integer literals, got {tok.text!r}",
                                 s.line)
            return -int(tok.text) if neg else int(tok.text)

        first = bound()
        if s.accept(":"):
            second = bound()
            if first is None:
                raise ParseError("lower bound cannot be assumed-size", s.line)
            return Dim(first, second)
        return Dim(1, first)

    # -- statements ------------------------------------------------------
    def _parse_stmts(self, terminators: Tuple[str, ...]) -> List[Stmt]:
        stmts: List[Stmt] = []
        pending_pragma: Optional[str] = None
        while True:
            line = self._line()
            if line.pragma is not None:
                if pending_pragma is not None:
                    raise ParseError("two consecutive !$omp pragmas", line.number)
                pending_pragma = line.pragma
                self._advance()
                continue
            first = line.tokens[0].text if line.tokens else ""
            if first in terminators or (first == "else" and "else" in terminators):
                if pending_pragma is not None:
                    raise ParseError("dangling !$omp pragma", line.number)
                return stmts
            stmts.append(self._parse_stmt(pending_pragma))
            pending_pragma = None

    def _parse_stmt(self, pragma: Optional[str]) -> Stmt:
        line = self._advance()
        s = _TokenStream(line.tokens, line.number)
        first = s.peek()
        assert first is not None
        if first.text == "do":
            return self._parse_do(s, line, pragma)
        if first.text == "if":
            if pragma is not None:
                raise ParseError("pragma before if statement", line.number)
            return self._parse_if(s, line)
        if first.text == "call" and len(line.tokens) > 1 \
                and line.tokens[1].kind == "name":
            if pragma is not None:
                raise ParseError("pragma before call statement", line.number)
            return self._parse_tape(s, line)
        # Assignment (possibly under !$omp atomic).
        atomic = False
        if pragma is not None:
            if pragma.split()[0] != "atomic":
                raise ParseError(f"unexpected pragma {pragma!r} before assignment",
                                 line.number)
            atomic = True
        target = ExprParser(s, self.array_names)._primary()
        if not isinstance(target, (Var, ArrayRef)):
            raise ParseError("assignment target must be a variable or array element",
                             line.number)
        s.expect("=")
        value = ExprParser(s, self.array_names).parse()
        if not s.at_end():
            raise ParseError(f"trailing tokens after assignment: {s.peek().text!r}",
                             line.number)
        return Assign(target, value, atomic=atomic)

    def _parse_tape(self, s: _TokenStream, line: Line) -> Stmt:
        """``call push('chan', expr)`` or ``call pop('chan', lvalue)``."""
        s.expect("call")
        op = s.next().text
        if op not in ("push", "pop"):
            raise ParseError(f"unknown subroutine {op!r} (only push and pop)",
                             line.number)
        s.expect("(")
        tok = s.next()
        if tok.kind != "channel":
            raise ParseError(f"expected a quoted tape channel, got {tok.text!r}",
                             line.number)
        s.expect(",")
        parser = ExprParser(s, self.array_names)
        stmt: Stmt
        if op == "push":
            stmt = Push(tok.text[1:-1], parser.parse())
        else:
            target = parser._primary()
            if not isinstance(target, (Var, ArrayRef)):
                raise ParseError("pop target must be a variable or array element",
                                 line.number)
            stmt = Pop(tok.text[1:-1], target)
        s.expect(")")
        if not s.at_end():
            raise ParseError(f"trailing tokens after {op}: {s.peek().text!r}",
                             line.number)
        return stmt

    def _parse_do(self, s: _TokenStream, line: Line, pragma: Optional[str]) -> Loop:
        parallel = False
        private: List[str] = []
        reduction: List[Tuple[str, str]] = []
        if pragma is not None:
            parallel, private, reduction = self._parse_omp_do_pragma(pragma, line.number)
        s.expect("do")
        var = s.next().text
        s.expect("=")
        start = ExprParser(s, self.array_names).parse()
        s.expect(",")
        stop = ExprParser(s, self.array_names).parse()
        step: Expr = Const(1)
        if s.accept(","):
            step = ExprParser(s, self.array_names).parse()
        if not s.at_end():
            raise ParseError(f"trailing tokens in do header: {s.peek().text!r}", line.number)
        if var not in self.locals and var not in self.param_names:
            self.locals.setdefault(var, INTEGER)
        body = self._parse_stmts(terminators=("end",))
        end_line = self._advance()
        es = _TokenStream(end_line.tokens, end_line.number)
        es.expect("end")
        es.expect("do")
        return Loop(var, start, stop, step, body, parallel=parallel,
                    private=private, reduction=reduction)

    def _parse_omp_do_pragma(
        self, pragma: str, line_no: int
    ) -> Tuple[bool, List[str], List[Tuple[str, str]]]:
        text = pragma.strip()
        if not text.startswith("parallel do"):
            raise ParseError(f"unsupported pragma !$omp {pragma!r}", line_no)
        rest = text[len("parallel do"):]
        private: List[str] = []
        reduction: List[Tuple[str, str]] = []
        for m in re.finditer(r"(\w+)\s*\(([^)]*)\)", rest):
            clause, payload = m.group(1), m.group(2)
            if clause == "private":
                private.extend(n.strip() for n in payload.split(",") if n.strip())
            elif clause == "shared":
                continue  # shared is the default; clause kept for readability
            elif clause == "reduction":
                op, _, names = payload.partition(":")
                for n in names.split(","):
                    if n.strip():
                        reduction.append((op.strip(), n.strip()))
            else:
                raise ParseError(f"unsupported OpenMP clause {clause!r}", line_no)
        return True, private, reduction

    def _parse_if(self, s: _TokenStream, line: Line) -> If:
        s.expect("if")
        s.expect("(")
        cond = ExprParser(s, self.array_names).parse()
        s.expect(")")
        s.expect("then")
        if not s.at_end():
            raise ParseError("tokens after 'then' (one-line if not supported)",
                             line.number)
        then_body = self._parse_stmts(terminators=("end", "else"))
        nxt = self._line()
        else_body: List[Stmt] = []
        if nxt.tokens and nxt.tokens[0].text == "else":
            self._advance()
            else_body = self._parse_stmts(terminators=("end",))
        end_line = self._advance()
        es = _TokenStream(end_line.tokens, end_line.number)
        es.expect("end")
        es.expect("if")
        return If(cond, then_body, else_body)


def parse_procedure(source: str) -> Procedure:
    """Parse a single ``subroutine`` from source text."""
    lines = _logical_lines(source)
    if not lines:
        raise ParseError("empty source", 0)
    parser = _ProcedureParser(lines, 0)
    proc = parser.parse()
    if parser.pos != len(lines):
        raise ParseError("trailing input after subroutine",
                         lines[parser.pos].number)
    return proc


def parse_program(source: str) -> Program:
    """Parse one or more subroutines into a :class:`Program`."""
    lines = _logical_lines(source)
    program = Program()
    pos = 0
    while pos < len(lines):
        parser = _ProcedureParser(lines, pos)
        program.add(parser.parse())
        pos = parser.pos
    return program
