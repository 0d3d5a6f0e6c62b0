"""Targeted + property tests for the integer presolve (unit-coefficient
substitution, Omega-test equality elimination, implicit equalities)."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.smt import Int, Result, canonicalize, check_int
from repro.smt.linform import Constraint, LinForm
from repro.smt.presolve import (ENTAILED, INFEASIBLE, KEPT,
                                PresolveInfeasible, _mod_hat, presolve,
                                reduce_constraint, ConstraintEntailed,
                                Substitution, literal_status)
from repro.smt.terms import Rel

x, y, z = Int("x"), Int("y"), Int("z")


def cons(*atoms):
    out = []
    for a in atoms:
        out.extend(canonicalize(a))
    return out


class TestModHat:
    def test_symmetric_range(self):
        for m in (2, 3, 5, 7):
            for a in range(-20, 21):
                r = _mod_hat(a, m)
                assert (a - r) % m == 0
                assert -m / 2 < r <= m / 2

    def test_examples(self):
        assert _mod_hat(2, 3) == -1
        assert _mod_hat(7, 3) == 1
        assert _mod_hat(-7, 3) == -1
        assert _mod_hat(4, 8) == 4


class TestPresolve:
    def test_unit_equality_substituted(self):
        res = presolve(cons(x.eq(y + 3), x.le(10)))
        # x eliminated; remaining constraint over y only.
        names = set()
        for c in res.constraints:
            names |= c.form.variables()
        assert "x" not in names
        assert len(res.substitutions) == 1

    def test_model_reconstruction(self):
        res = presolve(cons(x.eq(2 * y + 1)))
        model = res.reconstruct({"y": 4})
        assert model["x"] == 9

    def test_omega_eliminates_all_equalities(self):
        res = presolve(cons((2 * x + 3 * y).eq(7)))
        assert all(c.rel is not Rel.EQ for c in res.constraints)

    def test_infeasible_equality_detected(self):
        with pytest.raises(PresolveInfeasible):
            presolve(cons(x.eq(y), x.eq(y + 1)))

    def test_implicit_equality_folded(self):
        res = presolve(cons((2 * x - 3 * y).le(5), (2 * x - 3 * y).ge(5)))
        # Folded to an equality and eliminated by the Omega step.
        assert all(c.rel is not Rel.EQ for c in res.constraints)

    def test_reduce_constraint_paths(self):
        subs = [Substitution("x", LinForm.from_dict({"y": 1}))]  # x := y
        (lt,) = cons(x.lt(y))    # becomes y < y: false
        with pytest.raises(PresolveInfeasible):
            reduce_constraint(lt, subs)
        (le,) = cons(x.le(y))    # becomes y <= y: true
        with pytest.raises(ConstraintEntailed):
            reduce_constraint(le, subs)
        (open_,) = cons(x.le(z))  # y <= z: stays
        reduced = reduce_constraint(open_, subs)
        assert reduced.form.variables() == {"y", "z"}


def _brute_force(constraints, box=range(-6, 7), names=("x", "y", "z")):
    for values in itertools.product(box, repeat=len(names)):
        env = dict(zip(names, values))
        if all(c.holds({**env, **{n: 0 for c2 in constraints
                                  for n in c2.form.variables()
                                  if n not in env}})
               for c in constraints):
            return env
    return None


coef = st.integers(min_value=-4, max_value=4)
rhs = st.integers(min_value=-8, max_value=8)


class TestOmegaProperty:
    @given(coef, coef, coef, rhs, st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_random_diophantine_equalities(self, a, b, c, d, _seed):
        assume(any(v != 0 for v in (a, b, c)))
        atoms = [(a * x + b * y + c * z).eq(d),
                 x.ge(-6), x.le(6), y.ge(-6), y.le(6), z.ge(-6), z.le(6)]
        constraints = []
        infeasible = False
        try:
            for atom in atoms:
                constraints.extend(canonicalize(atom))
        except Exception:
            infeasible = True
        if infeasible:
            return
        out = check_int(constraints)
        witness = _brute_force(constraints)
        if witness is not None:
            assert out.result is Result.SAT
            m = out.model
            assert a * m.get("x", 0) + b * m.get("y", 0) + c * m.get("z", 0) == d
        else:
            # Solutions may exist outside the box only if the box bounds
            # don't actually constrain... they do (|v| <= 6), so:
            assert out.result is Result.UNSAT


VARS = ("x", "y", "z")
BOX = range(-5, 6)
eq_coef = st.integers(min_value=-5, max_value=5)


def _constraint(coeffs, rel, bound):
    return Constraint(LinForm.from_dict(dict(zip(VARS, coeffs))), rel, bound)


@st.composite
def equality_systems(draw):
    """One or two equalities over x, y, z; non-unit coefficients make
    presolve take Omega steps (fresh σ variables) and GCD tests."""
    eqs = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = draw(st.tuples(eq_coef, eq_coef, eq_coef))
        assume(any(coeffs))
        eqs.append(_constraint(coeffs, Rel.EQ, draw(rhs)))
    return eqs


@st.composite
def constraints(draw):
    coeffs = draw(st.tuples(coef, coef, coef))
    assume(any(coeffs))
    return _constraint(coeffs, draw(st.sampled_from([Rel.LE, Rel.EQ])),
                       draw(st.integers(-12, 12)))


def _points(substitutions):
    """Every integer point whose free (never substituted) coordinates lie
    in BOX, with the substituted ones computed from the chain — i.e. all
    points of the box that satisfy the substitutions, and more."""
    eliminated = {sub.var for sub in substitutions}
    names = set(VARS)
    for sub in substitutions:
        names |= sub.form.variables()
    free = sorted(names - eliminated)
    points = []
    for values in itertools.product(BOX, repeat=len(free)):
        point = dict(zip(free, values))
        for sub in reversed(substitutions):
            point[sub.var] = sub.form.evaluate(point)
        assert all(point[sub.var] == sub.form.evaluate(point)
                   for sub in substitutions)
        points.append(point)
    return points


class TestSubstitutionCoreProperty:
    """The dict-arithmetic substitution core (``literal_status``, the
    clause filter's entry, and ``reduce_constraint``) against brute force
    over the points that satisfy a presolve substitution chain."""

    @given(equality_systems(), st.lists(constraints(), min_size=1,
                                        max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_core_agrees_with_brute_force(self, eqs, targets):
        try:
            subs = presolve(eqs).substitutions
        except PresolveInfeasible:
            return
        points = _points(subs)
        for c in targets:
            truth = [c.holds(p) for p in points]
            status = literal_status(c, subs)
            if status == INFEASIBLE:
                assert not any(truth)
                with pytest.raises(PresolveInfeasible):
                    reduce_constraint(c, subs)
            elif status == ENTAILED:
                assert all(truth)
                with pytest.raises(ConstraintEntailed):
                    reduce_constraint(c, subs)
            else:
                assert status == KEPT
                reduced = reduce_constraint(c, subs)
                assert not reduced.form.variables() & {s.var for s in subs}
                assert [reduced.holds(p) for p in points] == truth

    def test_chains_take_omega_steps_with_gcd_tightening(self):
        """A deterministic instance of what the property draws: 3x + 5y
        = 7 needs Omega steps (σ variables), and the target's reduced
        coefficients share a factor that tightens its bound."""
        subs = presolve([_constraint((3, 5, 0), Rel.EQ, 7)]).substitutions
        assert any(n.startswith("!sigma") for s in subs
                   for n in s.form.variables())
        target = _constraint((2, 0, 0), Rel.LE, 5)
        reduced = reduce_constraint(target, subs)
        points = _points(subs)
        assert [reduced.holds(p) for p in points] \
            == [target.holds(p) for p in points]
