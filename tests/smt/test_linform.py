"""Tests for linear-form normalization and atom canonicalization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (Constraint, FAtom, Int, LinForm, NonLinearTermError,
                       Rel, TrivialConstraint, canonicalize, linearize)
from repro.smt.terms import TAdd, TApp, TConst, TMul, TVar

x, y, z = Int("x"), Int("y"), Int("z")


class TestLinForm:
    def test_linearize_simple(self):
        lf = linearize(x + 2 * y - 3)
        assert lf.coeff_dict() == {"x": 1, "y": 2}
        assert lf.const == -3

    def test_linearize_collects_like_terms(self):
        lf = linearize(x + x + x - 2 * x)
        assert lf.coeff_dict() == {"x": 1}

    def test_zero_coefficients_dropped(self):
        lf = linearize(x - x + 5)
        assert lf.is_constant and lf.const == 5

    def test_scale_and_arithmetic(self):
        a = LinForm.from_dict({"x": 2}, 1)
        b = LinForm.from_dict({"x": -2, "y": 1}, 3)
        s = a + b
        assert s.coeff_dict() == {"y": 1} and s.const == 4
        assert (a - a).is_constant

    def test_evaluate(self):
        lf = linearize(2 * x + y - 7)
        assert lf.evaluate({"x": 3, "y": 4}) == 3

    def test_uf_application_rejected(self):
        app = TApp("c", (x,))
        with pytest.raises(NonLinearTermError):
            linearize(app + 1)

    def test_nonlinear_product_rejected_at_term_level(self):
        with pytest.raises(NonLinearTermError):
            x * y

    def test_content_gcd(self):
        assert linearize(4 * x + 6 * y).content() == 2
        assert linearize(TConst(5)).content() == 0


class TestCanonicalize:
    def test_le(self):
        (c,) = canonicalize((x + 3).le(y))
        assert c.rel is Rel.LE
        assert c.form.coeff_dict() == {"x": 1, "y": -1}
        assert c.bound == -3

    def test_strict_lt_tightens(self):
        (c,) = canonicalize(x.lt(y))
        # x < y over ints is x - y <= -1
        assert c.bound == -1

    def test_ge_flips(self):
        (c,) = canonicalize(x.ge(5))
        assert c.form.coeff_dict() == {"x": -1}
        assert c.bound == -5

    def test_gt_flips_and_tightens(self):
        (c,) = canonicalize(x.gt(5))
        assert c.form.coeff_dict() == {"x": -1} and c.bound == -6

    def test_eq(self):
        (c,) = canonicalize((x + 1).eq(y))
        assert c.rel is Rel.EQ

    def test_ne_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(x.ne(y))

    def test_trivially_true(self):
        with pytest.raises(TrivialConstraint) as exc:
            canonicalize(TConst(1).le(2))
        assert exc.value.truth is True

    def test_trivially_false(self):
        with pytest.raises(TrivialConstraint) as exc:
            canonicalize(TConst(3).le(2))
        assert exc.value.truth is False

    def test_gcd_divisibility_eq_refuted(self):
        # 2x = 2y + 1 has no integer solution: caught at canonicalization.
        with pytest.raises(TrivialConstraint) as exc:
            canonicalize((2 * x).eq(2 * y + 1))
        assert exc.value.truth is False

    def test_gcd_le_tightening(self):
        (c,) = canonicalize((2 * x).le(3))
        assert c.form.coeff_dict() == {"x": 1} and c.bound == 1

    def test_gcd_le_tightening_negative_bound(self):
        (c,) = canonicalize((2 * x).le(-3))
        assert c.bound == -2  # floor(-3/2)

    def test_constraint_holds(self):
        (c,) = canonicalize(x.le(y))
        assert c.holds({"x": 1, "y": 2})
        assert not c.holds({"x": 3, "y": 2})

    def test_canonical_shape_enforced(self):
        with pytest.raises(ValueError):
            Constraint(LinForm.from_dict({"x": 1}), Rel.GT, 0)
        with pytest.raises(ValueError):
            Constraint(LinForm.from_dict({"x": 1}, 5), Rel.LE, 0)


# ----------------------------------------------------------------------
# Reference: canonicalization by LinForm arithmetic, one interned form
# per subterm, as the rules were first written down.
# ----------------------------------------------------------------------


def _reference_linearize(term):
    if isinstance(term, TConst):
        return LinForm((), term.value)
    if isinstance(term, TVar):
        return LinForm(((term.name, 1),), 0)
    if isinstance(term, TAdd):
        acc = LinForm((), 0)
        for t in term.terms:
            acc = acc + _reference_linearize(t)
        return acc
    if isinstance(term, TMul):
        return _reference_linearize(term.term).scale(term.coeff)
    raise NonLinearTermError(f"not linear: {term}")


def _reference_canonicalize(atom):
    diff = _reference_linearize(atom.left) - _reference_linearize(atom.right)
    rel = atom.rel
    if rel is Rel.GE:
        diff, rel = diff.scale(-1), Rel.LE
    elif rel is Rel.GT:
        diff, rel = diff.scale(-1), Rel.LT
    if rel is Rel.LT:
        diff = diff + LinForm((), 1)
        rel = Rel.LE
    bound = -diff.const
    form = LinForm(diff.coeffs, 0)
    if form.is_constant:
        raise TrivialConstraint(0 <= bound if rel is Rel.LE else bound == 0)
    g = form.content()
    if g > 1:
        if rel is Rel.EQ and bound % g != 0:
            raise TrivialConstraint(False)
        form = LinForm(tuple((n, c // g) for n, c in form.coeffs), 0)
        bound = bound // g
    return (Constraint(form, rel, bound),)


def _outcome(canon, atom):
    try:
        return canon(atom)
    except TrivialConstraint as t:
        return t.truth


linear_leaves = st.one_of(
    st.integers(-6, 6).map(TConst),
    st.sampled_from(("x", "y", "z")).map(TVar))
linear_terms = st.recursive(
    linear_leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=0, max_size=3).map(
            lambda ts: TAdd(tuple(ts))),
        st.tuples(st.integers(-4, 4), inner).map(lambda p: TMul(*p))),
    max_leaves=10)
ordered_rels = st.sampled_from([r for r in Rel if r is not Rel.NE])


class TestOnePassCanonicalization:
    """One walk over both sides must give exactly what LinForm
    arithmetic gives: the same interned form (``is``), relation and
    bound, or the same trivial truth."""

    @given(ordered_rels, linear_terms, linear_terms)
    @settings(max_examples=400, deadline=None)
    def test_matches_linform_arithmetic(self, rel, left, right):
        atom = FAtom(rel, left, right)
        want = _outcome(_reference_canonicalize, atom)
        got = _outcome(canonicalize, atom)
        if isinstance(want, bool):
            assert got is want
        else:
            ((w,), (g,)) = want, got
            assert g.form is w.form
            assert (g.rel, g.bound) == (w.rel, w.bound)

    @given(linear_terms)
    @settings(max_examples=200, deadline=None)
    def test_linearize_matches_linform_arithmetic(self, term):
        assert linearize(term) is _reference_linearize(term)

    @pytest.mark.parametrize("rel", [r for r in Rel if r is not Rel.NE])
    def test_nested_application_still_rejected(self, rel):
        app = TApp("c", (x,))
        with pytest.raises(NonLinearTermError):
            canonicalize(FAtom(rel, TAdd((y, TMul(2, app))), TConst(1)))
        with pytest.raises(NonLinearTermError):
            canonicalize(FAtom(rel, TConst(0), TMul(0, app)))

    def test_disequality_still_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(FAtom(Rel.NE, TAdd((x, TMul(3, y))), TConst(2)))
        with pytest.raises(ValueError):
            canonicalize(FAtom(Rel.NE, TConst(1), TConst(1)))
