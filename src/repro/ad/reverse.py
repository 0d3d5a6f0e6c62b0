"""Reverse-mode source transformation (the Tapenade role).

Given a procedure, independent inputs, and dependent outputs, produce a
new procedure computing the vector-Jacobian product: the caller seeds
the adjoints of the dependents and reads back the adjoints of the
independents (all adjoint arguments are ``intent(inout)`` accumulators,
Tapenade-style).

Structure of the generated procedure ("store-all" joint mode):

1. a **forward sweep** — the primal, augmented with ``push`` statements
   saving every overwritten value that some expression elsewhere reads
   (a conservative to-be-recorded filter), plus control-flow recording
   (branch flags, loop bounds when not loop-invariant);
2. a **reverse sweep** — statements in reverse order; each assignment
   restores the overwritten value (``pop``) and emits the local adjoint
   instructions of Fig. 1 of the paper; exact increments (§5.4) skip
   both the save and the zeroing, their adjoints only *read* the target
   adjoint.

Parallel loops map to parallel loops in both sweeps (iteration order of
the adjoint loop reversed, as in the paper's Fig. 2). Adjoint
increments to shared arrays are safeguarded according to a
:class:`~repro.ad.guards.GuardPolicy`, which picks a registered
:class:`~repro.ad.strategies.SafeguardStrategy` — atomics, reductions,
plain shared when FormAD proved safety, iteration-local
preaccumulation, or transposed (hoisted) adjoint loops. The chosen
strategy owns the generated code shape; choices whose applicability
predicate rejects the loop's access pattern fall back to atomics. Tape
channels are per-statement and, inside parallel loops, per-iteration,
so pushes and pops always align.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.activity import ActivityAnalysis
from ..analysis.increments import match_increment
from ..analysis.references import (AccessKind, collect_region_references)
from ..ir.expr import (ArrayRef, BinOp, Const, Expr, Op, UnOp, Var, names_in,
                       rename_arrays, substitute, variables_in, arrays_in)
from ..ir.program import Param, Procedure
from ..ir.stmt import Assign, If, Loop, Pop, Push, Stmt
from ..ir.stmt import walk_stmts as _walk
from ..ir.types import INTEGER, Intent, Kind, REAL, ScalarType, Type
from .guards import ALL_ATOMIC, GuardPolicy
from .partials import Contribution, partials
from .strategies import (SafeguardStrategy, TransposedSite,
                         registered_strategies, resolve_strategy)

#: Names of the scratch locals the transformation may introduce.
TMP_ADJ = "ad_tmpb"
CTL_FLAG = "ad_branch"
ADJ_LO, ADJ_HI, ADJ_ST = "ad_from", "ad_to", "ad_step"


@dataclass
class ReverseResult:
    """The generated adjoint procedure plus naming metadata."""

    procedure: Procedure
    adjoint_of: Dict[str, str]
    activity: ActivityAnalysis

    def adjoint_name(self, primal: str) -> str:
        return self.adjoint_of[primal]


def differentiate_reverse(
    proc: Procedure,
    independents: Sequence[str],
    dependents: Sequence[str],
    *,
    policy: GuardPolicy = ALL_ATOMIC,
    serial: bool = False,
    name_suffix: str = "_b",
    slice_primal: bool = True,
) -> ReverseResult:
    """Differentiate *proc* in reverse mode.

    ``policy`` selects the safeguard strategy for adjoint increments to
    shared arrays in parallel loops. ``serial=True`` strips all OpenMP
    pragmas from the generated code (the paper's "Adjoint Serial").
    ``slice_primal`` (on by default, matching Tapenade) removes primal
    computation the adjoint never needs; the generated routine then
    does not recompute the primal outputs.
    """
    activity = policy.activity
    if (activity is None or activity.proc is not proc
            or list(activity.independents) != list(independents)
            or list(activity.dependents) != list(dependents)):
        activity = ActivityAnalysis(proc, independents, dependents)
    t = _Transformer(proc, activity, policy, serial)
    adjoint = t.build(proc.name + name_suffix)
    if slice_primal:
        from .slicing import slice_adjoint
        slice_adjoint(adjoint, list(t.adjoint_of.values()))
    return ReverseResult(adjoint, dict(t.adjoint_of), activity)


# ----------------------------------------------------------------------


def _compute_read_names(proc: Procedure) -> Set[str]:
    """Names whose value is read by *some* expression in the procedure.

    Used as a conservative to-be-recorded filter: an overwritten value
    only needs saving if anything could read it. Exact-increment
    self-reads do not count (the adjoint of an increment never needs the
    old value of its own target).
    """
    reads: Set[str] = set()

    def expr_reads(e: Expr) -> None:
        reads.update(names_in(e))

    for stmt in proc.statements():
        if isinstance(stmt, Assign):
            inc = match_increment(stmt)
            if inc is not None:
                expr_reads(inc.delta)
            else:
                expr_reads(stmt.value)
            if isinstance(stmt.target, ArrayRef):
                for idx in stmt.target.indices:
                    expr_reads(idx)
        elif isinstance(stmt, If):
            expr_reads(stmt.cond)
        elif isinstance(stmt, Loop):
            for e in (stmt.start, stmt.stop, stmt.step):
                expr_reads(e)
        elif isinstance(stmt, Push):
            expr_reads(stmt.value)
        elif isinstance(stmt, Pop):
            # Pops *write* their target, but evaluating the target's
            # subscripts reads the index variables.
            if isinstance(stmt.target, ArrayRef):
                for idx in stmt.target.indices:
                    expr_reads(idx)
    return reads


def _assigned_names(proc: Procedure) -> Set[str]:
    names: Set[str] = set()
    for stmt in proc.statements():
        if isinstance(stmt, (Assign, Pop)):
            names.add(stmt.target.name)
    return names


class _Transformer:
    def __init__(self, proc: Procedure, activity: ActivityAnalysis,
                 policy: GuardPolicy, serial: bool) -> None:
        self.proc = proc
        self.activity = activity
        self.policy = policy
        self.serial = serial
        self.read_names = _compute_read_names(proc)
        self.assigned_names = _assigned_names(proc)
        self.adjoint_of: Dict[str, str] = {}
        self.new_locals: Dict[str, Type] = {}
        self._used_temps: Set[str] = set()
        self._temp_names: Dict[str, str] = {}
        # Per-parallel-loop accumulators, valid during one loop transform.
        self._loop: Optional[Loop] = None
        # Order-preserving dedup of reduction clauses: keys are
        # ("+", adjoint_name) pairs, insertion order is emission order.
        self._loop_reductions: Dict[Tuple[str, str], None] = {}
        self._loop_private_extra: Set[str] = set()
        self._loop_mixed_arrays: Set[str] = set()
        self._loop_refs = None
        self._loop_body_assigned: Set[str] = set()
        #: Primal arrays only ever *incremented* in the loop — their
        #: adjoints are read-only seeds the transposed strategy may
        #: safely reference from hoisted loops.
        self._loop_increment_only: Set[str] = set()
        #: Resolved strategy per primal array (memoized per loop).
        self._loop_strategy: Dict[str, SafeguardStrategy] = {}
        #: Preaccumulation buffers: (adj name, indices) -> (temp, ref).
        self._loop_preacc: Dict[Tuple[str, tuple], Tuple[str, ArrayRef]] = {}
        #: Hoistable transposed contribution sites, in emission order.
        self._loop_transposed: List[TransposedSite] = []
        #: Nesting depth of recorded control flow (branches, sequential
        #: loops) below the current parallel loop's adjoint body.
        self._rev_depth = 0

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def adjoint(self, name: str) -> str:
        adj = self.adjoint_of.get(name)
        if adj is None:
            adj = name + "b"
            while self.proc.has_symbol(adj) or adj in self.adjoint_of.values() \
                    or adj in self.new_locals:
                adj += "0"
            self.adjoint_of[name] = adj
        return adj

    def adjoint_ref(self, ref: Var | ArrayRef) -> Var | ArrayRef:
        if isinstance(ref, Var):
            return Var(self.adjoint(ref.name))
        return ArrayRef(self.adjoint(ref.name), ref.indices)

    def _temp(self, name: str, type_: Type) -> Var:
        unique = self._temp_names.get(name)
        if unique is None:
            unique = name
            while self.proc.has_symbol(unique) or \
                    unique in self.adjoint_of.values():
                unique += "0"
            self._temp_names[name] = unique
        self._used_temps.add(unique)
        self.new_locals[unique] = type_
        return Var(unique)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def build(self, name: str) -> Procedure:
        fwd, rev = self.transform_body(self.proc.body)
        # Requested independents/dependents always get adjoint
        # parameters, even when activity analysis finds them inactive
        # (their gradient is then simply left untouched) — callers rely
        # on the signature being determined by their request alone.
        wants_adjoint = self.activity.active \
            | set(self.activity.independents) | set(self.activity.dependents)
        params: List[Param] = []
        for p in self.proc.params:
            params.append(p if p.intent is not Intent.OUT else
                          Param(p.name, p.type, Intent.INOUT))
            if p.name in wants_adjoint:
                params.append(Param(self.adjoint(p.name), p.type, Intent.INOUT))
        locals_: Dict[str, Type] = dict(self.proc.locals)
        for lname, ltype in self.proc.locals.items():
            if lname in self.activity.active:
                locals_[self.adjoint(lname)] = ltype
        locals_.update(self.new_locals)
        return Procedure(name, params, locals_, fwd + rev)

    # ------------------------------------------------------------------
    # Body transformation
    # ------------------------------------------------------------------
    def transform_body(self, body: Sequence[Stmt]) -> Tuple[List[Stmt], List[Stmt]]:
        fwd: List[Stmt] = []
        rev: List[Stmt] = []
        for stmt in body:
            f, r = self.transform_stmt(stmt)
            fwd.extend(f)
            rev = r + rev
        return fwd, rev

    def transform_stmt(self, stmt: Stmt) -> Tuple[List[Stmt], List[Stmt]]:
        if isinstance(stmt, Assign):
            return self.transform_assign(stmt)
        if isinstance(stmt, If):
            return self.transform_if(stmt)
        if isinstance(stmt, Loop):
            if stmt.parallel:
                return self.transform_parallel_loop(stmt)
            return self.transform_sequential_loop(stmt)
        if isinstance(stmt, (Push, Pop)):
            raise TypeError("cannot differentiate code that already contains "
                            "tape operations")
        raise TypeError(f"cannot differentiate {stmt!r}")  # pragma: no cover

    # -- assignments -----------------------------------------------------
    def transform_assign(self, stmt: Assign) -> Tuple[List[Stmt], List[Stmt]]:
        target = stmt.target
        inc = match_increment(stmt)
        # Conservative TBR: save the overwritten value iff *anything* in
        # the procedure reads this name. (Exact-increment self-reads were
        # excluded when computing read_names, so pure accumulators like
        # the stencil's unew or Green-Gauss' grad are never saved.)
        save = target.name in self.read_names
        fwd: List[Stmt] = []
        rev: List[Stmt] = []
        chan = f"v{stmt.uid}"
        if save:
            fwd.append(Push(chan, target))
        fwd.append(Assign(target, stmt.value, atomic=stmt.atomic))
        if save:
            rev.append(Pop(chan, target))
        if target.name in self.activity.active:
            rev.extend(self.adjoint_of_assign(stmt, inc))
        return fwd, rev

    def adjoint_of_assign(self, stmt: Assign, inc) -> List[Stmt]:
        target = stmt.target
        zb = self.adjoint_ref(target)
        is_active = lambda n: n in self.activity.active
        out: List[Stmt] = []
        if inc is not None:
            seed: Expr = UnOp(Op.NEG, zb) if inc.negated else zb
            conts = partials(inc.delta, seed, is_active)
            for c in conts:
                out.extend(self.emit_contribution(c))
            return out
        tmp = self._temp(TMP_ADJ, REAL)
        if self._loop is not None:
            self._loop_private_extra.add(tmp.name)
        conts = partials(stmt.value, tmp, is_active)
        out.append(Assign(tmp, zb))
        out.append(Assign(zb, Const(0.0)))
        for c in conts:
            out.extend(self.emit_contribution(c))
        return out

    def add_reduction(self, adjoint_name: str) -> None:
        """Register a ``reduction(+)`` clause entry (deduplicated,
        order-preserving)."""
        self._loop_reductions.setdefault(("+", adjoint_name))

    def _strategy_for(self, loop: Loop, array: str) -> SafeguardStrategy:
        """Resolve and memoize the safeguard strategy for one primal
        array of the current loop: the policy's preference when its
        applicability predicate accepts the access pattern, atomics
        otherwise."""
        strategy = self._loop_strategy.get(array)
        if strategy is None:
            strategy, _reason = resolve_strategy(
                self.policy.decide(loop, array), loop, array,
                self._loop_refs, mixed=array in self._loop_mixed_arrays)
            self._loop_strategy[array] = strategy
        return strategy

    def emit_contribution(self, cont: Contribution) -> List[Stmt]:
        """``adjoint(ref) += expr``, safeguarded as the policy demands."""
        adj = self.adjoint_ref(cont.ref)
        plain = [Assign(adj, BinOp(Op.ADD, adj, cont.expr))]
        loop = self._loop
        if loop is None or self.serial:
            stmts: List[Stmt] = plain
        else:
            # Reduction variables of the *primal* loop are shared as far
            # as the adjoint is concerned (their adjoints are read-only
            # seeds or shared accumulators), so only strictly private
            # names count as private here.
            strictly_private = set(loop.private) | {loop.var}
            if cont.ref.name in strictly_private:
                # Adjoints of private variables are private themselves.
                self._loop_private_extra.add(adj.name)
                stmts = plain
            elif isinstance(cont.ref, Var):
                # Shared scalar adjoints always accumulate through a
                # reduction clause (cheap and standard).
                self.add_reduction(adj.name)
                stmts = plain
            else:
                strategy = self._strategy_for(loop, cont.ref.name)
                stmts = strategy.emit_increment(self, cont, adj)
        if cont.guard is not None and stmts:
            return [If(cont.guard, stmts)]
        return stmts

    # -- conditionals -----------------------------------------------------
    def transform_if(self, stmt: If) -> Tuple[List[Stmt], List[Stmt]]:
        chan = f"c{stmt.uid}"
        self._rev_depth += 1
        try:
            fwd_then, rev_then = self.transform_body(stmt.then_body)
            fwd_else, rev_else = self.transform_body(stmt.else_body)
        finally:
            self._rev_depth -= 1
        fwd = [If(stmt.cond,
                  fwd_then + [Push(chan, Const(1))],
                  fwd_else + [Push(chan, Const(0))])]
        flag = self._temp(CTL_FLAG, INTEGER)
        if self._loop is not None:
            self._loop_private_extra.add(flag.name)
        rev = [Pop(chan, flag),
               If(flag.eq(1), rev_then, rev_else)]
        return fwd, rev

    # -- sequential loops --------------------------------------------------
    def _bounds_invariant(self, loop: Loop) -> bool:
        names = (variables_in(loop.start) | variables_in(loop.stop)
                 | variables_in(loop.step))
        arrays = (arrays_in(loop.start) | arrays_in(loop.stop)
                  | arrays_in(loop.step))
        return not (names & self.assigned_names) and \
            not (arrays & self.assigned_names)

    @staticmethod
    def _reversed_bounds(start: Expr, stop: Expr, step: Expr,
                         step_const: Optional[int]) -> Tuple[Expr, Expr, Expr]:
        if step_const == 1:
            return stop, start, Const(-1)
        if step_const == -1:
            return stop, start, Const(1)
        # last = start + ((stop - start) / step) * step, Fortran integer
        # division truncating toward zero (exact for nonempty loops and
        # yielding an empty reversed loop for empty primal loops).
        trips_floor = BinOp(Op.DIV, BinOp(Op.SUB, stop, start), step)
        last = BinOp(Op.ADD, start, BinOp(Op.MUL, trips_floor, step))
        return last, start, UnOp(Op.NEG, step)

    def transform_sequential_loop(self, loop: Loop) -> Tuple[List[Stmt], List[Stmt]]:
        self._rev_depth += 1
        try:
            fwd_body, rev_body = self.transform_body(loop.body)
        finally:
            self._rev_depth -= 1
        fwd: List[Stmt] = []
        rev: List[Stmt] = []
        if self._bounds_invariant(loop):
            start, stop, step = loop.start, loop.stop, loop.step
            rev_start, rev_stop, rev_step = self._reversed_bounds(
                start, stop, step, loop.step_const)
            fwd.append(Loop(loop.var, start, stop, step, fwd_body))
            rev.append(Loop(loop.var, rev_start, rev_stop, rev_step, rev_body))
        else:
            chan = f"c{loop.uid}"
            lo = self._temp(ADJ_LO, INTEGER)
            hi = self._temp(ADJ_HI, INTEGER)
            st = self._temp(ADJ_ST, INTEGER)
            if self._loop is not None:
                self._loop_private_extra.update({lo.name, hi.name, st.name})
            fwd.append(Push(chan, loop.start))
            fwd.append(Push(chan, loop.stop))
            fwd.append(Push(chan, loop.step))
            fwd.append(Loop(loop.var, loop.start, loop.stop, loop.step, fwd_body))
            rev.append(Pop(chan, st))
            rev.append(Pop(chan, hi))
            rev.append(Pop(chan, lo))
            rev_start, rev_stop, rev_step = self._reversed_bounds(lo, hi, st, None)
            rev.append(Loop(loop.var, rev_start, rev_stop, rev_step, rev_body))
        return fwd, rev

    # -- parallel loops -----------------------------------------------------
    def transform_parallel_loop(self, loop: Loop) -> Tuple[List[Stmt], List[Stmt]]:
        if self._loop is not None:
            raise TypeError("nested parallel loops are not supported")
        refs = collect_region_references(loop.body)
        body_assigned = {s.target.name for s in _walk(loop.body)
                         if isinstance(s, (Assign, Pop))}
        body_assigned |= {s.var for s in _walk(loop.body) if isinstance(s, Loop)}
        self._loop = loop
        self._loop_refs = refs
        self._loop_reductions = {}
        self._loop_private_extra = set()
        self._loop_strategy = {}
        self._loop_preacc = {}
        self._loop_transposed = []
        self._loop_body_assigned = body_assigned
        self._loop_mixed_arrays = {
            name for name in refs.arrays()
            if any(a.kind is AccessKind.WRITE for a in refs.of_array(name))
            and name in self.activity.active
        }
        self._loop_increment_only = {
            name for name in refs.arrays()
            if all(a.kind is AccessKind.INCREMENT for a in refs.of_array(name))
        }
        saved_depth, self._rev_depth = self._rev_depth, 0
        try:
            fwd_body, rev_body = self.transform_body(loop.body)
        finally:
            self._loop = None
            self._rev_depth = saved_depth
        parallel = not self.serial
        fwd_loop = Loop(loop.var, loop.start, loop.stop, loop.step, fwd_body,
                        parallel=parallel, private=loop.private,
                        reduction=loop.reduction if parallel else ())
        # The adjoint loop re-evaluates the primal bounds. This is valid
        # because the reverse sweep reaches the loop with memory in the
        # exact state the forward loop left it in (everything after it
        # has been restored), and that state equals the state at forward
        # loop *entry* for every name the loop body itself does not
        # assign. Only body-local modification of a bound breaks this.
        # The same argument covers the hoisted loops a strategy may
        # append after the adjoint loop: the adjoint loop assigns only
        # adjoints, scratch temps, and pops of body-assigned names,
        # none of which may appear in the bounds.
        bound_names = (variables_in(loop.start) | variables_in(loop.stop)
                       | variables_in(loop.step))
        if bound_names & body_assigned:
            raise TypeError(
                f"parallel loop over {loop.var!r} modifies its own bounds "
                f"inside the loop body; this is not supported")
        rev_start, rev_stop, rev_step = self._reversed_bounds(
            loop.start, loop.stop, loop.step, loop.step_const)
        private = list(loop.private)
        zero_privates: List[Stmt] = []
        for name in loop.private:
            if name in self.activity.active:
                adj = self.adjoint(name)
                if adj not in private:
                    private.append(adj)
                # Private adjoints start each reverse iteration undefined
                # (true OpenMP privates are garbage); zero them before
                # any accumulation.
                zero_privates.append(Assign(Var(adj), Const(0.0)))
        # Strategies with deferred codegen (preaccumulation buffers,
        # hoisted transposed loops) materialize it now.
        prologue: List[Stmt] = []
        epilogue: List[Stmt] = []
        after_loop: List[Stmt] = []
        for strategy in registered_strategies():
            pro, epi, post = strategy.finalize_loop(self, loop)
            prologue.extend(pro)
            epilogue.extend(epi)
            after_loop.extend(post)
        rev_body = zero_privates + prologue + rev_body + epilogue
        for name in sorted(self._loop_private_extra):
            if name not in private:
                private.append(name)
        reductions = tuple(self._loop_reductions)
        assert len({name for _, name in reductions}) == len(reductions), \
            "duplicate reduction clause emitted"
        self._loop_reductions = {}
        self._loop_private_extra = set()
        self._loop_mixed_arrays = set()
        self._loop_increment_only = set()
        self._loop_strategy = {}
        self._loop_preacc = {}
        self._loop_transposed = []
        self._loop_refs = None
        self._loop_body_assigned = set()
        rev: List[Stmt] = []
        if rev_body:
            rev.append(Loop(loop.var, rev_start, rev_stop, rev_step, rev_body,
                            parallel=parallel, private=private,
                            reduction=reductions if parallel else ()))
        rev.extend(after_loop)
        return [fwd_loop], rev
