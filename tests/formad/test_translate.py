"""Unit tests for the index-expression translation (§5.2/§5.3/§6)."""

import pytest

from repro.analysis import AccessKind, ArrayAccess
from repro.cfg import number_instances
from repro.formad import IndexTranslator, UntranslatableError, render_term
from repro.formad.translate import render_tuple
from repro.ir import Assign, Var, parse_expression
from repro.smt import TApp, TVar
from repro.smt.terms import TAdd, TConst, TMul


def _translator(body, scalars, primed=(), written=()):
    inst = number_instances(body, scalars)
    return IndexTranslator(inst, frozenset(primed), frozenset(written))


def _stmt():
    return Assign(Var("sink"), Var("i"))


class TestScalars:
    def test_instance_suffix(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        t = tr.translate(parse_expression("i"), s, primed=False)
        assert t == TVar("i_0")

    def test_priming_private_names(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"], primed={"i"})
        assert tr.translate(parse_expression("i"), s, primed=True) == TVar("i_0'")
        # Shared names stay unprimed even on the primed side.
        tr2 = _translator([s], ["i", "sink"], primed=set())
        assert tr2.translate(parse_expression("i"), s, primed=True) == TVar("i_0")

    def test_instance_changes_after_redefinition(self):
        use1 = Assign(Var("a"), Var("k"))
        redef = Assign(Var("k"), Var("k") + 1)
        use2 = Assign(Var("a"), Var("k"))
        body = [use1, redef, use2]
        tr = _translator(body, ["k", "a"])
        t1 = tr.translate(parse_expression("k"), use1, primed=False)
        t2 = tr.translate(parse_expression("k"), use2, primed=False)
        assert t1 != t2


class TestStructure:
    def test_linear_expression(self):
        s = _stmt()
        tr = _translator([s], ["i", "n", "sink"])
        t = tr.translate(parse_expression("2 * i + n - 1"), s, primed=False)
        assert "i_0" in render_term(t) and "n_0" in render_term(t)

    def test_negative_offsets(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        t = tr.translate(parse_expression("i - 3"), s, primed=False)
        assert render_term(t) == "(i_0 + -3)"

    def test_indirection_becomes_uf(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        t = tr.translate(parse_expression("c(i) + 7", array_names={"c"}),
                         s, primed=False)
        apps = [x for x in [t] if isinstance(x, TAdd)]
        assert apps
        inner = t.terms[0]
        assert isinstance(inner, TApp) and inner.func == "c"

    def test_priming_reaches_uf_arguments(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"], primed={"i"})
        t = tr.translate(parse_expression("c(i)", array_names={"c"}),
                         s, primed=True)
        assert isinstance(t, TApp)
        assert t.args == (TVar("i_0'"),)


class TestUntranslatable:
    def test_written_index_array_rejected(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"], written={"c"})
        with pytest.raises(UntranslatableError):
            tr.translate(parse_expression("c(i)", array_names={"c"}),
                         s, primed=False)

    def test_nonlinear_product_rejected(self):
        s = _stmt()
        tr = _translator([s], ["i", "j", "sink"])
        with pytest.raises(UntranslatableError):
            tr.translate(parse_expression("i * j"), s, primed=False)

    def test_division_rejected(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        with pytest.raises(UntranslatableError):
            tr.translate(parse_expression("i / 2"), s, primed=False)

    def test_float_constant_rejected(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        with pytest.raises(UntranslatableError):
            tr.translate(parse_expression("i + 1.5"), s, primed=False)

    def test_const_times_var_allowed_both_ways(self):
        s = _stmt()
        tr = _translator([s], ["i", "sink"])
        t1 = tr.translate(parse_expression("3 * i"), s, primed=False)
        t2 = tr.translate(parse_expression("i * 3"), s, primed=False)
        assert isinstance(t1, TMul) and isinstance(t2, TMul)
        assert t1.coeff == 3 and t2.coeff == 3


class TestRendering:
    def test_paper_style_lbm_expression(self):
        s = _stmt()
        tr = _translator([s], ["i", "w", "n_cell_entries", "sink"])
        t = tr.translate(
            parse_expression("w + n_cell_entries * -1 + i"), s, primed=False)
        assert render_term(t) == "(w_0 + n_cell_entries_0*-1 + i_0)"


class TestAccessCache:
    """``translate_access`` translates each (access, side) once per
    translator and answers every later call from what it kept."""

    def _access(self, text, arrays=()):
        s = _stmt()
        return s, ArrayAccess("y", (parse_expression(text,
                                                     array_names=arrays),),
                              AccessKind.WRITE, s)

    def test_translation_and_rendering_kept_per_side(self):
        s, access = self._access("i + 2")
        tr = _translator([s], ["i", "sink"], primed={"i"})
        plain = tr.translate_access(access, primed=False)
        assert plain == ((TAdd((TVar("i_0"), TConst(2))),), "(i_0 + 2)")
        assert tr.translate_access(access, primed=False) is plain
        primed = tr.translate_access(access, primed=True)
        assert primed[1] == "(i_0' + 2)"
        assert tr.translate_access(access, primed=True) is primed

    def test_untranslatable_outcome_kept(self):
        s, access = self._access("c(i)", arrays={"c"})
        tr = _translator([s], ["i", "sink"], written={"c"})
        for _ in range(2):
            with pytest.raises(UntranslatableError, match="'c' is written"):
                tr.translate_access(access, primed=False)
        assert list(tr._accesses.values()) == [
            "index array 'c' is written inside the region"]

    def test_tuples_render_in_paper_style(self):
        s = _stmt()
        tr = _translator([s], ["i", "j", "sink"])
        access = ArrayAccess("m", (Var("i"), Var("j") + 1),
                             AccessKind.READ, s)
        terms, rendering = tr.translate_access(access, primed=False)
        assert rendering == render_tuple(terms) == "(i_0, (j_0 + 1))"
