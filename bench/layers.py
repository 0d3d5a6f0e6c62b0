"""Per-layer spans recorded from outside the program.

The traced pass wraps each layer's public entry points and records one
span per call: layer name, op id, start, end and the enclosing span.
Spans stay in memory and are written out when the child exits; the
parent turns them into a per-op ledger of total time (``.s``), self
time (``.self_s``) and counts read from the calls' return values.

A function is wrapped at *every* module attribute bound to it, found by
identity after importing all ``repro`` submodules, so ``from .x import
f`` call sites are covered too. Methods are wrapped on their class.
Entry points called tens of thousands of times per op (for example
``presolve.reduce_constraint``) are deliberately not wrapped: their
cost would land in the trace overhead, not in a layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


def _search_counts(args, outcome) -> Dict[str, int]:
    decided_free = outcome.stats.theory_checks == 0
    return {"model_settled": int(decided_free and outcome.result.name == "SAT"),
            "presolve_refuted": int(decided_free
                                    and outcome.result.name == "UNSAT")}


def _codegen_counts(args, result) -> Dict[str, int]:
    from repro.ir.stmt import Assign, Loop, walk_stmts
    stmts = list(walk_stmts(result.procedure.body))
    return {
        "statements": len(stmts),
        "atomic_statements": sum(
            1 for s in stmts if isinstance(s, Assign) and s.atomic),
        "reduction_clauses": sum(
            len(s.reduction) for s in stmts
            if isinstance(s, Loop) and s.parallel),
    }


def _interp_counts(args, memory) -> Dict[str, int]:
    """Operation counts of a run made under the cost tracer; runs under
    other interpreter tracers (plain execution, race detection) are
    not counted."""
    from repro.runtime.costmodel import CostTracer, OpCounts
    tracer = args[0].tracer
    if not isinstance(tracer, CostTracer):
        return {}
    total = OpCounts()
    total.add(tracer.profile.serial)
    for record in tracer.profile.parallel_loops:
        total.add(record.total())
    return {"ops": total.total_ops, "atomics": total.atomics,
            "tape_ops": total.tape_ops}


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point of a layer."""

    layer: str
    module: str
    qualname: str
    #: ``counter(args, result) -> {name: int}``; evaluated after the
    #: span's end time is taken.
    counter: Optional[Callable] = None
    #: The names the counter returns (summed per op as
    #: ``<layer>.<name>``, 0 when the layer is not called).
    counts: Tuple[str, ...] = ()
    #: Evaluate the counter after the op instead of after the call,
    #: because it walks a large result.
    deferred: bool = False


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("ir.parser", "repro.ir.parser", "parse_program"),
    Boundary("analysis.activity", "repro.analysis.activity",
             "ActivityAnalysis.__init__"),
    Boundary("analysis.references", "repro.analysis.references",
             "collect_region_references"),
    Boundary("cfg.instances", "repro.cfg.instances", "number_instances"),
    Boundary("formad.knowledge", "repro.formad.knowledge",
             "extract_knowledge",
             lambda args, kb: {"facts": len(kb.facts)}, ("facts",)),
    # Loops are counted once however often analyze_loop answers for
    # them (see op_ledger).
    Boundary("formad.engine", "repro.formad.engine",
             "FormADEngine.analyze_loop",
             lambda args, analysis: {"loop": analysis.loop.uid,
                                     "degraded": int(analysis.degraded)}),
    Boundary("smt.solver", "repro.smt.solver", "Solver.check",
             lambda args, result: {"unknown": int(result.name == "UNKNOWN")},
             ("unknown",)),
    Boundary("smt.ackermann", "repro.smt.ackermann",
             "Ackermannizer.rewrite_formula"),
    Boundary("smt.ackermann", "repro.smt.ackermann",
             "Ackermannizer.new_congruence_axioms"),
    Boundary("smt.clausify", "repro.smt.clausify", "clausify_probe",
             lambda args, result: {"hits": int(result[1])}, ("hits",)),
    Boundary("smt.search", "repro.smt.search", "search", _search_counts,
             ("model_settled", "presolve_refuted")),
    Boundary("smt.presolve", "repro.smt.presolve", "presolve"),
    Boundary("smt.intsolver", "repro.smt.intsolver", "check_int",
             lambda args, outcome: {"nodes": outcome.nodes_explored},
             ("nodes",)),
    Boundary("smt.simplex", "repro.smt.simplex", "DenseSimplexSolver.check"),
    Boundary("ad.reverse", "repro.ad.reverse", "differentiate_reverse",
             _codegen_counts,
             ("statements", "atomic_statements", "reduction_clauses"),
             deferred=True),
    Boundary("runtime.memory", "repro.runtime.memory", "Memory.for_procedure"),
    Boundary("runtime.interp", "repro.runtime.interp", "Interpreter.run",
             _interp_counts, ("ops", "atomics", "tape_ops"), deferred=True),
    Boundary("runtime.costmodel", "repro.runtime.costmodel", "total_time"),
)



def import_all_repro() -> None:
    """Import every ``repro`` submodule (entry-point ``__main__``
    modules excepted) so that every alias of a boundary is visible."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def resolve(boundary: Boundary):
    """``(owner, attribute, original)``: the class and attribute name for
    a method, or the defining module and name for a function."""
    module = importlib.import_module(boundary.module)
    if "." in boundary.qualname:
        cls_name, attr = boundary.qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, boundary.qualname, getattr(module, boundary.qualname)


def repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Recorder:
    """In-memory span store of one child process.

    A span is ``[layer, op, start, end, parent, counts]`` with *parent*
    the index of the enclosing span (None at op level). The benchmark
    runs one thread, so a single stack gives the nesting.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._deferred: List[Tuple[list, Callable, tuple, object]] = []

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        spans, stack, deferred = self.spans, self._stack, self._deferred
        layer, counter = boundary.layer, boundary.counter
        recorder = self

        def traced(*args, **kwargs):
            span = [layer, recorder.op, 0.0, 0.0,
                    stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if counter is not None:
                if boundary.deferred:
                    deferred.append((span, counter, args, result))
                else:
                    span[5] = counter(args, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.bench_layer = layer
        return traced

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Evaluate the deferred counters of the op that just ended."""
        for span, counter, args, result in self._deferred:
            span[5] = counter(args, result)
        self._deferred.clear()
        self.op = None

    def rows(self) -> List[dict]:
        return [{"id": i, "layer": s[0], "op": s[1], "start": s[2],
                 "end": s[3], "parent": s[4], "counts": s[5] or {}}
                for i, s in enumerate(self.spans)]


class Tracing:
    """Wrappers installed over every boundary alias; ``uninstall``
    restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> "Tracing":
        import_all_repro()
        modules = repro_modules()
        for boundary in BOUNDARIES:
            owner, attr, original = resolve(boundary)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.recorder.wrap(
                    boundary, original.__func__))
                self._set(owner, attr, wrapped, original)
                continue
            wrapped = self.recorder.wrap(boundary, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped, original)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped, original)
        return self

    def _set(self, owner, attr, value, original) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
class NestingError(ValueError):
    """A span escapes its parent or its op's timer."""


def op_ledger(spans: Sequence[dict], start: float, end: float
              ) -> Dict[str, float]:
    """Per-layer totals of one op from its spans.

    ``<layer>.s`` sums the spans not nested in a span of the same layer,
    ``<layer>.self_s`` sums span durations minus the time their child
    spans cover, ``<layer>.calls`` counts spans, and each count a span
    carries is summed as ``<layer>.<count>``. ``unattributed.s`` is the
    op's wall time minus every span's self time.
    """
    out: Dict[str, float] = defaultdict(float)
    for boundary in BOUNDARIES:
        for name in ("s", "self_s", "calls") + boundary.counts:
            out[f"{boundary.layer}.{name}"] = 0.0
    index = {}
    child_time: Dict[int, float] = defaultdict(float)
    ancestors: Dict[int, frozenset] = {}
    for i, span in enumerate(spans):
        index[span["id"]] = i
    for i, span in enumerate(spans):
        dur = span["end"] - span["start"]
        if dur < 0 or span["start"] < start or span["end"] > end:
            raise NestingError(f"span {span['layer']} escapes its op")
        parent = span["parent"]
        if parent is None:
            ancestors[i] = frozenset()
        else:
            p = spans[index[parent]]
            if span["start"] < p["start"] or span["end"] > p["end"]:
                raise NestingError(
                    f"span {span['layer']} escapes parent {p['layer']}")
            child_time[index[parent]] += dur
            ancestors[i] = ancestors[index[parent]] | {p["layer"]}
    attributed = 0.0
    # analyze_loop answers repeat calls from its cache: count each
    # analyzed loop once, degraded if any answer for it was.
    loops: Dict[int, int] = {}
    for i, span in enumerate(spans):
        layer = span["layer"]
        dur = span["end"] - span["start"]
        own = dur - child_time[i]
        attributed += own
        out[f"{layer}.self_s"] += own
        if layer not in ancestors[i]:
            out[f"{layer}.s"] += dur
        out[f"{layer}.calls"] += 1
        counts = span["counts"]
        if "loop" in counts:
            loops[counts["loop"]] = (loops.get(counts["loop"], 0)
                                     or counts["degraded"])
            continue
        for name, value in counts.items():
            out[f"{layer}.{name}"] += value
    out["formad.engine.loops"] = len(loops)
    out["formad.engine.degraded"] = sum(loops.values())
    out["unattributed.s"] = (end - start) - attributed
    out["op.s"] = end - start
    return dict(out)
