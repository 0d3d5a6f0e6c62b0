"""Knowledge extraction (paper §5, phase 1).

Because the primal parallel loop is assumed correctly parallelized, for
every pair of references to one array inside the loop — at least one
being a write — the index tuples must be *disjoint across iterations*:
with the loop counter differing (``i ≠ i'``), at least one index
component differs. These facts become per-context assertion lists; a
context inherits everything attached to its ancestors.

Accesses performed under ``!$omp atomic`` are excluded: atomics are
*allowed* to collide, so they prove nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.references import AccessKind, ArrayAccess, RegionReferences
from ..cfg.contexts import Context
from ..ir.stmt import Assign
from ..smt.terms import FAtom, Formula, Or, Rel, Term
from .translate import IndexTranslator, UntranslatableError

logger = logging.getLogger(__name__)


@dataclass
class KnowledgeFact:
    """One disjointness assertion with its owning context."""

    context: Context
    formula: Formula
    source_array: str
    left: Tuple[Term, ...]   # primed side
    right: Tuple[Term, ...]
    right_rendering: str     # render_tuple(right)

    def __str__(self) -> str:
        return f"[{self.context.path()}] {self.formula}"


@dataclass
class KnowledgeBase:
    """All facts of one parallel region, grouped by context."""

    facts: List[KnowledgeFact] = field(default_factory=list)
    skipped_pairs: int = 0

    def facts_for(self, context: Context) -> List[KnowledgeFact]:
        """Facts visible in *context*: its own plus inherited ones."""
        visible = []
        ancestors = {c.uid for c in context.ancestors()}
        for fact in self.facts:
            if fact.context.uid in ancestors:
                visible.append(fact)
        return visible

    @property
    def size(self) -> int:
        """Number of assertions, root axiom excluded."""
        return len(self.facts)


def disjointness_formula(left: Sequence[Term], right: Sequence[Term]) -> Formula:
    """``∨_d left_d ≠ right_d`` — the index tuples differ somewhere."""
    parts = [FAtom(Rel.NE, l, r) for l, r in zip(left, right)]
    return Or(*parts)


def is_atomic_access(access: ArrayAccess) -> bool:
    return isinstance(access.stmt, Assign) and access.stmt.atomic


def extract_knowledge(
    refs: RegionReferences,
    translator: IndexTranslator,
    *,
    use_contexts: bool = True,
) -> KnowledgeBase:
    """Phase 1: build the knowledge base of one parallel region.

    Pairs are formed over *unique* index expressions (the paper's
    ``writeexprs``/``readexprs`` are expression sets — Table 1's model
    size is ``1 + e²`` in the unique expression count ``e``), so
    repeated accesses through the same expression contribute one fact.
    """
    seen: Set[Tuple[str, str, int]] = set()
    kb = KnowledgeBase()
    for array in refs.arrays():
        writes = [a for a in refs.writes(array) if not is_atomic_access(a)]
        reads = [a for a in refs.reads(array) if not is_atomic_access(a)]
        for w in writes:
            for other in writes + reads:
                if not use_contexts:
                    # Ablation (§5.1 disabled): attach everything to the
                    # root, including pairs no control certainly
                    # executes together — unsound by design.
                    target: Optional[Context] = refs.contexts.root
                else:
                    ctx_w = refs.context_of(w)
                    ctx_o = refs.context_of(other)
                    # Attach to the innermost context certain to
                    # execute both.
                    if ctx_w is ctx_o:
                        target = ctx_w
                    elif ctx_o.includes(ctx_w):
                        target = ctx_w
                    elif ctx_w.includes(ctx_o):
                        target = ctx_o
                    else:
                        target = None  # no control certainly executes both
                if target is None:
                    kb.skipped_pairs += 1
                    continue
                if len(w.indices) != len(other.indices):
                    kb.skipped_pairs += 1
                    continue
                try:
                    left, left_text = translator.translate_access(
                        w, primed=True)
                    right, right_text = translator.translate_access(
                        other, primed=False)
                except UntranslatableError:
                    kb.skipped_pairs += 1
                    continue
                # target.uid, not id(target): object ids are reused
                # after collection and would alias dedup entries.
                key = (left_text, right_text, target.uid)
                if key in seen:
                    continue
                seen.add(key)
                kb.facts.append(KnowledgeFact(
                    target, disjointness_formula(left, right), array,
                    left, right, right_text))
    logger.debug("extracted %d disjointness facts over %d arrays "
                 "(%d pairs skipped)", kb.size, len(refs.arrays()),
                 kb.skipped_pairs)
    return kb
