"""Direct tests for knowledge extraction (§5, phase 1)."""

import hashlib
import re

import pytest

from repro.analysis import ActivityAnalysis, collect_region_references
from repro.cfg import number_instances
from repro.formad import (FormADEngine, IndexTranslator,
                          disjointness_formula, extract_knowledge)
from repro.ir import parse_procedure
from repro.obs.tracer import CollectingTracer
from repro.programs import (build_gfmc, build_greengauss, build_lbm,
                            build_stencil)
from repro.smt import FOr, FAtom, Rel, TVar


def _region(src, scalars):
    proc = parse_procedure(src)
    loop = proc.parallel_loops()[0]
    refs = collect_region_references(loop.body)
    inst = number_instances(loop.body, scalars)
    assigned = {s.target.name for s in proc.statements()
                if hasattr(s, "target") and hasattr(s.target, "name")
                and not hasattr(s.target, "indices")}
    written = frozenset(n for n in refs.arrays()
                        if any(a.kind.is_write for a in refs.of_array(n)))
    primed = frozenset({loop.var} | assigned)
    return refs, IndexTranslator(inst, primed, written)


SIMPLE = """
subroutine s(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(30)
  real, intent(inout) :: y(30)
  !$omp parallel do
  do i = 1, n
    y(i) = x(i) + x(i + 1)
  end do
end subroutine s
"""


class TestExtraction:
    def test_write_self_pair_only(self):
        refs, tr = _region(SIMPLE, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        # y: one write expr -> one self pair. x: reads only, no facts.
        assert kb.size == 1
        (fact,) = kb.facts
        assert fact.source_array == "y"

    def test_write_read_pairs_same_array(self):
        src = """
subroutine s(y, n)
  integer, intent(in) :: n
  real, intent(inout) :: y(30)
  !$omp parallel do
  do i = 1, n
    y(2 * i) = y(2 * i + 1) * 0.5
  end do
end subroutine s
"""
        refs, tr = _region(src, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        # write x (write + read) pairs: (w,w) and (w,r) = 2 facts.
        assert kb.size == 2

    def test_primed_left_side(self):
        refs, tr = _region(SIMPLE, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        (fact,) = kb.facts
        (left_term,) = fact.left
        assert "'" in str(left_term)
        (right_term,) = fact.right
        assert "'" not in str(right_term)

    def test_atomic_accesses_excluded(self):
        src = """
subroutine s(y, n)
  integer, intent(in) :: n
  real, intent(inout) :: y(30)
  !$omp parallel do
  do i = 1, n
    !$omp atomic
    y(1) = y(1) + 1.0
  end do
end subroutine s
"""
        refs, tr = _region(src, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        assert kb.size == 0  # atomics may collide: no knowledge

    def test_deduplication_by_expression(self):
        src = """
subroutine s(y, n)
  integer, intent(in) :: n
  real, intent(inout) :: y(30)
  !$omp parallel do
  do i = 1, n
    y(i) = 1.0
    y(i) = 2.0
    y(i) = 3.0
  end do
end subroutine s
"""
        refs, tr = _region(src, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        assert kb.size == 1  # three writes, one unique expression

    def test_rank_mismatch_skipped(self):
        # Cannot happen with a validated program (one array has one
        # rank), so simulate via the formula helper directly instead.
        f = disjointness_formula((TVar("a"),), (TVar("b"),))
        assert isinstance(f, FAtom) and f.rel is Rel.NE

    def test_multidim_disjointness_is_a_disjunction(self):
        f = disjointness_formula((TVar("a"), TVar("b")),
                                 (TVar("c"), TVar("d")))
        assert isinstance(f, FOr) and len(f.operands) == 2

    def test_facts_for_inherits_ancestors(self):
        src = """
subroutine s(x, y, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(30)
  real, intent(inout) :: y(30)
  integer, intent(in) :: c(30)
  !$omp parallel do
  do i = 1, n
    y(i) = 0.0
    if (c(i) .gt. 0) then
      y(c(i) + 10) = x(i)
    end if
  end do
end subroutine s
"""
        refs, tr = _region(src, ["i", "n"])
        kb = extract_knowledge(refs, tr)
        root = refs.contexts.root
        branch = [c for c in refs.contexts.all_contexts() if c is not root][0]
        root_facts = kb.facts_for(root)
        branch_facts = kb.facts_for(branch)
        # The branch context sees everything the root sees (and more:
        # the branch-local write pair).
        assert set(map(id, root_facts)) <= set(map(id, branch_facts))
        assert len(branch_facts) > len(root_facts)


#: A scalar redefined inside the region: its uses get instance numbers
#: k_0, k_1, k_2 in the order translations first reach them.
REDEFINED = """
subroutine redef(x, y, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(300)
  real, intent(inout) :: y(300)
  integer, intent(in) :: c(100)
  integer :: k
  !$omp parallel do private(k)
  do i = 1, n
    k = 3 * i
    y(k) = y(k) + x(k + 1)
    if (x(i) > 0.0) then
      k = k + 1
      y(k) = y(k) + x(c(i))
    end if
    y(k + 2) = y(k + 2) * x(k)
  end do
end subroutine redef
"""

DIGEST_KERNELS = {
    "stencil 8": (lambda: build_stencil(8, name="stencil_large"),
                  ["uold"], ["unew"]),
    "GFMC": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "LBM": (build_lbm, ["srcgrid"], ["dstgrid"]),
    "GreenGauss": (build_greengauss, ["dv"], ["grad"]),
    "redefined k": (lambda: parse_procedure(REDEFINED), ["x"], ["y"]),
}

#: (line count, SHA-256) of every fact and question line, recorded
#: before index translations were cached per access.
KNOWLEDGE_DIGESTS = {
    "stencil 8": (126, "f0d3ad96ddc95676389f2634c37adc374ba0bbb33f048c2c"
                       "a99dff8367d46fce"),
    "GFMC": (38, "20ebcc127ea98c8ed30b16b2ad89e0b9cb3f90f60626b4bd"
                 "792d6960fecc17e2"),
    "LBM": (553, "054c8e3ee8560083a685478f4d8680c14830e26feb7df81f"
                 "9aac3a91d53aa216"),
    "GreenGauss": (7, "a70e37cc9067dd11fa7f0560651572a6426d3244d0c94a48"
                      "f5762772254f0814"),
    "redefined k": (14, "ac10ed95ea92c93104f955fd0acf572f2308f62bccb5b791"
                        "c1319db8925483ae"),
}


@pytest.mark.parametrize("name", list(DIGEST_KERNELS))
def test_fact_and_question_text_is_pinned(name):
    """The ordered fact strings, question strings and instance names of
    the paper kernels (and of a region whose scalar has three
    instances) are byte-identical to the uncached translator's. Instance
    numbers are handed out in the order translations first reach
    ``InstanceNumbering``, so a cache that changed that order would
    rename ``k_0``/``k_1``/``k_2`` here."""
    builder, independents, dependents = DIGEST_KERNELS[name]
    proc = builder()
    tracer = CollectingTracer()
    FormADEngine(proc, ActivityAnalysis(proc, independents, dependents),
                 tracer=tracer).analyze_all()
    # Context labels carry statement uids, which come from a
    # process-wide counter: number them in order of first appearance.
    uids = {}

    def context(path):
        return re.sub(r"(if|do)(\d+)", lambda m: "%s#%d" % (
            m.group(1), uids.setdefault(m.group(2), len(uids))), path)

    lines = []
    for e in tracer.events:
        if e["type"] == "fact":
            lines.append(" ".join(("fact", e["loop"], context(e["context"]),
                                   e["array"], e["formula"])))
        elif e["type"] == "question":
            lines.append(" ".join(("question", e["loop"], e["array"],
                                   context(e["context"]), e["write"],
                                   e["other"], e["question"],
                                   ",".join(e["instances"]))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == KNOWLEDGE_DIGESTS[name]
