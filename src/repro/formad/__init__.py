"""FormAD: formal methods in AD (the paper's contribution).

Extracts disjointness *knowledge* from the assumed-correct
parallelization of the primal (§5), organizes it by control context
(§5.1) with instance-numbered scalars (§5.2) and primed privates
(§5.3), and asks the SMT solver whether the future adjoint accesses can
conflict (§5.5). Proven-safe adjoint arrays stay plain ``shared``; the
rest keep their safeguards.
"""

from .translate import IndexTranslator, UntranslatableError, render_term
from .knowledge import (KnowledgeBase, KnowledgeFact, disjointness_formula,
                        extract_knowledge, is_atomic_access)
from .engine import (AnalysisStats, ArrayVerdict, FormADEngine,
                     KnowledgeDegradedError, LoopAnalysis, PrimalRaceError)
from .policy import FormADGuardPolicy
from .report import AnalysisReport, format_table1, format_verdicts

__all__ = [
    "IndexTranslator", "UntranslatableError", "render_term",
    "KnowledgeBase", "KnowledgeFact", "disjointness_formula",
    "extract_knowledge", "is_atomic_access",
    "AnalysisStats", "ArrayVerdict", "FormADEngine",
    "KnowledgeDegradedError", "LoopAnalysis", "PrimalRaceError",
    "FormADGuardPolicy",
    "AnalysisReport", "format_table1", "format_verdicts",
]
