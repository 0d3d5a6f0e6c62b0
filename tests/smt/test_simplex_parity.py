"""Pinned answers of the one simplex engine.

Two engines used to share the simplex API: a sparse ``Fraction`` engine
and a vectorized numpy one, held to make exactly the same Bland's-rule
choices. Before the numpy engine was deleted, both were run on the
systems below and agreed on every verdict, pivot count, (basic,
entering) pivot sequence and rational model. Those common answers are
pinned here, so :class:`~repro.smt.simplex.SimplexSolver` is held to
exactly what both engines answered, and any change to its pivoting or
its arithmetic shows up as a diff against this record.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from repro.smt import Int, canonicalize
from repro.smt.linform import TrivialConstraint
from repro.smt.simplex import SimplexSolver

x, y, z = Int("x"), Int("y"), Int("z")


def cons(*atoms):
    out = []
    for a in atoms:
        try:
            for c in canonicalize(a):
                out.append(c)
        except TrivialConstraint:
            pass
    return out


#: Every constraint system TestSimplex exercises, plus shapes from the
#: integer layer (the branch & bound nodes re-check these with extra
#: bounds, so covering the roots covers the hot shapes).
SYSTEMS = {
    "satisfiable_bounds": cons(x.ge(1), x.le(10)),
    "direct_conflict": cons(x.ge(5), x.le(3)),
    "chained_inequalities": cons(x.lt(y), y.lt(z), z.lt(x)),
    "equality_propagation": cons((x + y).eq(10), (x - y).eq(4)),
    "mixed_polytope": cons((2 * x + 3 * y).le(12), (x - y).ge(-1),
                           x.ge(0), y.ge(2)),
    "shared_slack_conflict": cons((x + y).le(3), (x + y).ge(5)),
    "unconstrained": [],
    "diophantine_box": cons((2 * x + 3 * y).eq(7), x.ge(0), y.ge(0)),
    "three_var_system": cons((x + y + z).eq(6), (x - y).eq(1), (y - z).eq(1)),
    "formad_disjoint": cons(Int("ci").le(Int("cip") - 1),
                            (Int("ci") + 7).eq(Int("cip") + 7)),
}

#: (verdict, pivots, pivot_log, model) of each system; the model maps
#: each problem variable to its rational value as a string.
PINNED = {
    "chained_inequalities": (False, 2, [(0, 1), (3, 2)], None),
    "diophantine_box": (True, 1, [(0, 1)], {"x": "7/2", "y": "0"}),
    "direct_conflict": (False, 1, [(0, 1)], None),
    "equality_propagation": (True, 2, [(0, 1), (3, 2)],
                             {"x": "7", "y": "3"}),
    "formad_disjoint": (False, 0, [], None),
    "mixed_polytope": (True, 2, [(5, 2), (3, 1)], {"x": "1", "y": "2"}),
    "satisfiable_bounds": (True, 1, [(0, 1)], {"x": "1"}),
    "shared_slack_conflict": (False, 1, [(3, 1)], None),
    "three_var_system": (True, 3, [(0, 1), (4, 2), (5, 3)],
                         {"x": "3", "y": "2", "z": "1"}),
    "unconstrained": (True, 0, [], {}),
}

#: SHA-256 over the 60 trials of the seeded sweep, one JSON line each.
SWEEP_SHA256 = \
    "82ffc3c951e8d89acbc780a99b636bf0602e3523fa4a79e1c56e8ec278eaa4f4"


def _model(solver):
    return {name: str(value)
            for name, value in sorted(solver.model().items())}


def _run(constraints):
    s = SimplexSolver()
    for c in constraints:
        s.assert_constraint(c)
    verdict = s.check()
    return verdict, s.pivots, s.pivot_log, _model(s) if verdict else None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_engines_agree_pivot_for_pivot(name):
    assert _run(SYSTEMS[name]) == PINNED[name]


def test_randomized_sweep_agrees():
    rng = random.Random(20260808)
    vars_ = [Int(n) for n in "abcde"]
    digest = hashlib.sha256()
    for trial in range(60):
        atoms = []
        for _ in range(rng.randint(1, 7)):
            lhs = sum((rng.randint(-4, 4) * v for v in
                       rng.sample(vars_, rng.randint(1, 3))),
                      0 * vars_[0])
            rel = rng.choice(["le", "ge", "eq", "lt", "gt"])
            atoms.append(getattr(lhs, rel)(rng.randint(-10, 10)))
        verdict, pivots, log, model = _run(cons(*atoms))
        line = json.dumps([trial, verdict, pivots, [list(p) for p in log],
                           model], sort_keys=True)
        digest.update((line + "\n").encode())
    assert digest.hexdigest() == SWEEP_SHA256


def test_big_coefficients_stay_exact():
    """Coefficients past 2**64 pivot and solve exactly."""
    big = 3 ** 45  # ~2^71: the raw coefficients already exceed int64
    w = Int("w")
    atoms = [(big * x + (big + 1) * y).eq(1), (x + y).ge(10 ** 9),
             ((big - 1) * y + w).le(-(10 ** 12)), (w - x).ge(7)]
    assert _run(cons(*atoms)) == (
        True, 3, [(0, 1), (3, 2), (6, 5)],
        {"w": "2954312706550833698644000000006",
         "x": "2954312706550833698643999999999",
         "y": "-2954312706550833698642999999999"})


def test_copy_preserves_parity_through_branching():
    """Branch & bound copies nodes and tightens bounds: a copy starts
    with zero pivots and re-checks from the parent's tableau."""
    root = SimplexSolver()
    for c in cons((2 * x + 3 * y).eq(7), x.ge(0), y.ge(0)):
        root.assert_constraint(c)
    assert root.check() is True
    assert (root.pivots, root.pivot_log, _model(root)) \
        == (1, [(0, 1)], {"x": "7/2", "y": "0"})
    child = root.copy()
    child.assert_upper("x", Fraction(1))
    child.assert_lower("y", Fraction(2))
    assert child.check() is True
    assert (child.pivots, child.pivot_log, _model(child)) \
        == (0, [], {"x": "1/2", "y": "2"})
    assert _model(root) == {"x": "7/2", "y": "0"}
