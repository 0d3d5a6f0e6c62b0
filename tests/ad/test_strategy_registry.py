"""The safeguard-strategy registry: contract, applicability, numerics."""

import numpy as np
import pytest

from repro import differentiate
from repro.ad.strategies import (ATOMIC, PREACCUMULATE, REDUCTION, SHARED,
                                 TRANSPOSED, SafeguardStrategy, get_strategy,
                                 register_strategy, registered_strategies,
                                 resolve_strategy, strategy_names)
from repro.analysis.references import collect_region_references
from repro.audit.numcheck import gradients
from repro.experiments.specs import (gfmc_spec, greengauss_spec, lbm_spec,
                                     small_stencil_spec)
from repro.ir.builder import ProcedureBuilder
from repro.ir.expr import Var
from repro.ir.stmt import Assign, Loop, walk_stmts
from repro.ir.types import INTEGER, integer_array, real_array


def _paper_kernels():
    return [
        small_stencil_spec(n=64),
        gfmc_spec(npair=6, nwalk=4, ngroups_max=5),
        greengauss_spec(nnodes=48),
        lbm_spec(ncells=10),
    ]


class TestRegistryContract:
    def test_builtin_registration_order(self):
        assert strategy_names() == ("shared", "atomic", "reduction",
                                    "preaccumulate", "transposed")

    def test_get_strategy_roundtrip(self):
        for name, strategy in zip(strategy_names(), registered_strategies()):
            assert get_strategy(name) is strategy
            assert strategy.name == name

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="registered"):
            get_strategy("speculative")

    def test_duplicate_registration_rejected(self):
        class Clone(SafeguardStrategy):
            name = "atomic"
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Clone())


def _stencil_like():
    """Pure-read uold with unit-affine subscripts: both new strategies
    apply."""
    b = ProcedureBuilder("s")
    uold = b.param("uold", real_array((1, None)), intent="in")
    unew = b.param("unew", real_array((1, None)), intent="inout")
    b.param("n", INTEGER, intent="in")
    with b.parallel_do("i", 2, Var("n") - 1) as i:
        b.assign(unew[i], unew[i] + (uold[i - 1] + uold[i + 1]))
    proc = b.build()
    [loop] = proc.parallel_loops()
    return loop, collect_region_references(loop.body)


def _gather_like():
    """uold read through an index table: neither new strategy applies."""
    b = ProcedureBuilder("g")
    uold = b.param("uold", real_array((1, None)), intent="in")
    unew = b.param("unew", real_array((1, None)), intent="inout")
    t = b.param("t", integer_array((1, None)), intent="in")
    b.param("n", INTEGER, intent="in")
    idd = b.int_local("idd")
    with b.parallel_do("i", 1, Var("n")) as i:
        b.assign(idd, t[i])
        b.assign(unew[i], unew[i] + 2.0 * uold[idd])
    proc = b.build()
    [loop] = proc.parallel_loops()
    return loop, collect_region_references(loop.body)


class TestApplicability:
    def test_shared_and_atomic_always_apply(self):
        loop, refs = _gather_like()
        assert SHARED.applicable(loop, "uold", refs) == (True, "")
        assert ATOMIC.applicable(loop, "uold", refs) == (True, "")

    def test_new_strategies_apply_to_stencil_reads(self):
        loop, refs = _stencil_like()
        assert PREACCUMULATE.applicable(loop, "uold", refs)[0]
        assert TRANSPOSED.applicable(loop, "uold", refs)[0]

    def test_new_strategies_reject_indirect_reads(self):
        loop, refs = _gather_like()
        ok, reason = PREACCUMULATE.applicable(loop, "uold", refs)
        assert not ok and "iteration-stable" in reason
        ok, reason = TRANSPOSED.applicable(loop, "uold", refs)
        assert not ok and "loop counter" in reason

    def test_new_strategies_reject_written_arrays(self):
        loop, refs = _stencil_like()
        ok, reason = PREACCUMULATE.applicable(loop, "unew", refs)
        assert not ok and "written" in reason
        assert not TRANSPOSED.applicable(loop, "unew", refs)[0]

    def test_resolve_falls_back_to_atomic(self):
        loop, refs = _gather_like()
        strategy, reason = resolve_strategy(TRANSPOSED, loop, "uold", refs)
        assert strategy is ATOMIC and reason
        strategy, reason = resolve_strategy(REDUCTION, loop, "uold", refs,
                                            mixed=True)
        assert strategy is ATOMIC and "overwritten" in reason
        strategy, reason = resolve_strategy(REDUCTION, loop, "uold", refs)
        assert strategy is REDUCTION and reason == ""


#: Structure counts of each strategy's adjoint of the small stencil
#: (n=64). They are deterministic, so they compare exactly: atomics
#: guard every shared increment, reduction privatizes instead,
#: preaccumulate flushes once per buffered location, and the hoisted
#: transposed adjoint needs no safeguard at all.
CODEGEN_COUNTS = {
    "shared": {"atomic_statements": 0, "reduction_clauses": 0,
               "parallel_loops": 1, "preacc_temps": 0, "statements": 11},
    "atomic": {"atomic_statements": 3, "reduction_clauses": 0,
               "parallel_loops": 1, "preacc_temps": 0, "statements": 11},
    "reduction": {"atomic_statements": 0, "reduction_clauses": 1,
                  "parallel_loops": 1, "preacc_temps": 0, "statements": 11},
    "preaccumulate": {"atomic_statements": 2, "reduction_clauses": 0,
                      "parallel_loops": 1, "preacc_temps": 2,
                      "statements": 15},
    "transposed": {"atomic_statements": 0, "reduction_clauses": 0,
                   "parallel_loops": 2, "preacc_temps": 0,
                   "statements": 12},
}


class TestGeneratedCodeShape:
    @pytest.mark.parametrize("strategy", registered_strategies(),
                             ids=lambda s: s.name)
    def test_codegen_counts_are_exact(self, strategy):
        spec = small_stencil_spec(n=64)
        proc = differentiate(spec.proc, spec.independents, spec.dependents,
                             strategy=strategy.name).procedure
        stmts = list(walk_stmts(proc.body))
        parallel = [s for s in stmts if isinstance(s, Loop) and s.parallel]
        assert {
            "atomic_statements": sum(
                1 for s in stmts if isinstance(s, Assign) and s.atomic),
            "reduction_clauses": sum(len(s.reduction) for s in parallel),
            "parallel_loops": len(parallel),
            "preacc_temps": sum(
                1 for name in proc.locals if name.startswith("ad_pre")),
            "statements": len(stmts),
        } == CODEGEN_COUNTS[strategy.name]

    def test_transposed_hoists_stencil_increments(self):
        spec = small_stencil_spec(n=64)
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy="transposed")
        loops = list(adj.procedure.parallel_loops())
        # The stencil's reverse body is fully hoisted: one parallel loop
        # per distinct offset, none atomic, none with reductions.
        assert len(loops) >= 2
        from repro.ir.stmt import walk_stmts, Assign
        for loop in loops:
            assert loop.reduction == ()
        assert not any(getattr(s, "atomic", False)
                       for s in walk_stmts(adj.procedure.body))

    def test_preaccumulate_buffers_and_flushes(self):
        spec = small_stencil_spec(n=64)
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy="preaccumulate")
        from repro.ir.stmt import walk_stmts, Assign
        names = set(adj.procedure.locals)
        assert any(n.startswith("ad_pre") for n in names)
        atomics = [s for s in walk_stmts(adj.procedure.body)
                   if isinstance(s, Assign) and s.atomic]
        # Exactly one guarded flush per distinct adjoint location.
        assert len(atomics) == sum(
            1 for n in names if n.startswith("ad_pre"))


class TestRegistryNumerics:
    @pytest.mark.parametrize("spec", _paper_kernels(), ids=lambda s: s.name)
    def test_every_strategy_matches_serial_adjoint(self, spec):
        serial = differentiate(spec.proc, spec.independents,
                               spec.dependents, strategy="serial")
        ref = gradients(serial, spec.bindings, spec.independents,
                        spec.dependents, seed=7)
        for strategy in registered_strategies():
            adj = differentiate(spec.proc, spec.independents,
                                spec.dependents, strategy=strategy.name)
            got = gradients(adj, spec.bindings, spec.independents,
                            spec.dependents, seed=7)
            for name in spec.independents:
                np.testing.assert_allclose(
                    got[name], ref[name], rtol=1e-10, atol=1e-12,
                    err_msg=f"{strategy.name}:{name}")
