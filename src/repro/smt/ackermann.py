"""Ackermann elimination of uninterpreted functions.

Every distinct application ``f(t_1, ..., t_n)`` appearing in the input
formulas is replaced by a fresh integer variable ``!f@k``. Functional
consistency is restored by adding, for every pair of applications of
the same function symbol, the congruence axiom

    t_1 = u_1 ∧ ... ∧ t_n = u_n  →  !f@j = !f@k

Applications may be nested (``mss(1, ig, c(i))``); inner applications
are eliminated first so the arguments of the rewritten terms are pure
linear terms.

The :class:`Ackermannizer` is *stateful and incremental*: the Solver
keeps one instance alive across ``check()`` calls, rewriting only newly
added assertions, asking for only the congruence axioms of freshly
introduced application pairs, and unwinding applications whose owning
assertion-stack level is popped. The one-shot :func:`ackermannize`
wrapper preserves the original batch interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .terms import (And, FAnd, FAtom, FFalse, FNot, FOr, Formula, FTrue,
                    Not, Or, TAdd, TApp, TConst, Term, TMul, TVar)

#: The (rewritten application, its variable) pairs one rewrite named.
Named = Tuple[Tuple[TApp, TVar], ...]


@dataclass
class AckermannResult:
    """Rewritten formulas plus the congruence side conditions."""

    formulas: List[Formula]
    congruence: List[Formula]
    app_names: Dict[TApp, str] = field(default_factory=dict)

    @property
    def all_formulas(self) -> List[Formula]:
        return self.formulas + self.congruence


class Ackermannizer:
    """Incremental UF elimination with unwinding support.

    Invariants relied on by the incremental solver:

    * ``introduced`` lists the distinct (rewritten) applications in
      registration order; the solver snapshots ``num_apps`` around each
      formula rewrite to learn which level owns which applications.
    * :meth:`new_congruence_axioms` emits exactly the axioms for pairs
      involving at least one application registered since the previous
      call, so axioms are produced once and can be level-tagged by the
      caller (a pair's newest member determines the tag).
    * :meth:`forget_apps` removes applications again; per function
      symbol — and globally — the forgotten applications always form a
      suffix of the registration order, because assertion levels are
      translated oldest-first and popped newest-first.
    * Variable names are ``!{func}@{k}`` where ``k`` is the
      application's position in the *live* registration order. Because
      forgets are suffix-only, re-introducing an application after an
      identical pop/re-push cycle reassigns the *same* name, so the
      rewritten formulas (and therefore every SAT witness the engine
      reports) are a deterministic function of the live assertion
      prefix plus the question — independent of which other questions
      were asked in between. Question-granularity sharding relies on
      this for byte-identical ``--json`` output.
    * Instantiated congruence axioms are cached by
      ``(app_a, app_b, var_a, var_b)`` for the lifetime of the
      instance, so the push/ask/pop cycle of exploitation questions
      re-*uses* axioms across levels instead of re-building (and
      re-clausifying) them per level.
    * The rewrite of every compound term is kept with the
      ``(application, variable)`` pairs it named, and is reused only
      while each of those applications is still registered under that
      variable. Rewriting again would then register nothing and return
      the same term, so reuse never changes a name, and the names stay
      a function of the live prefix.
    """

    def __init__(self) -> None:
        # Keyed by the *rewritten* application (pure-linear arguments),
        # so syntactically identical applications share one variable.
        self._cache: Dict[TApp, TVar] = {}
        self._by_func: Dict[Tuple[str, int], List[TApp]] = {}
        self._emitted: Dict[Tuple[str, int], int] = {}
        # (app_a, app_b, var_a, var_b) -> instantiated congruence axiom;
        # survives forget_apps so popped-and-re-pushed levels hit it.
        self._axiom_cache: Dict[tuple, Formula] = {}
        # term -> (rewrite, the (application, variable) pairs it named);
        # keyed by the hash-consed term itself, which the entry keeps
        # alive, so a key can never be reused by another term.
        self._rewrites: Dict[Term, Tuple[Term, Named]] = {}
        self.introduced: List[TApp] = []

    @property
    def num_apps(self) -> int:
        return len(self.introduced)

    def name_of(self, app: TApp) -> str | None:
        """Ackermann variable name of a rewritten application."""
        var = self._cache.get(app)
        return None if var is None else var.name

    @property
    def app_names(self) -> Dict[TApp, str]:
        return {app: var.name for app, var in self._cache.items()}

    def rewrite_term(self, term: Term) -> Term:
        return self._rewrite(term)[0]

    def _rewrite(self, term: Term) -> Tuple[Term, Named]:
        """*term* rewritten, with the (application, variable) pairs the
        rewrite named."""
        if isinstance(term, (TConst, TVar)):
            return term, ()
        entry = self._rewrites.get(term)
        if entry is not None:
            cache = self._cache
            for app, var in entry[1]:
                if cache.get(app) is not var:
                    break
            else:
                return entry
        if isinstance(term, TAdd):
            done = [self._rewrite(t) for t in term.terms]
            named = _merged(done)
            if all(r is t for (r, _), t in zip(done, term.terms)):
                # Identity-preserving: keeps caches effective.
                entry = term, named
            else:
                entry = TAdd(tuple(r for r, _ in done)), named
        elif isinstance(term, TMul):
            inner, named = self._rewrite(term.term)
            entry = (term if inner is term.term else TMul(term.coeff, inner),
                     named)
        elif isinstance(term, TApp):
            done = [self._rewrite(a) for a in term.args]
            rewritten = TApp(term.func, tuple(r for r, _ in done))
            var = self._cache.get(rewritten)
            if var is None:
                # Position in the live registration order: suffix-only
                # forgets keep live positions stable and gap-free, so
                # the name is unique among live apps *and* reproducible
                # after an identical pop/re-push cycle.
                var = TVar(f"!{term.func}@{len(self.introduced)}")
                self._cache[rewritten] = var
                self._by_func.setdefault((term.func, len(term.args)), []).append(rewritten)
                self.introduced.append(rewritten)
            entry = var, _merged(done) + ((rewritten, var),)
        else:
            raise TypeError(f"not a term: {term!r}")  # pragma: no cover
        self._rewrites[term] = entry
        return entry

    def rewrite_formula(self, formula: Formula) -> Formula:
        if isinstance(formula, FAtom):
            left = self.rewrite_term(formula.left)
            right = self.rewrite_term(formula.right)
            if left is formula.left and right is formula.right:
                return formula
            return FAtom(formula.rel, left, right)
        if isinstance(formula, FAnd):
            return And(*(self.rewrite_formula(f) for f in formula.operands))
        if isinstance(formula, FOr):
            return Or(*(self.rewrite_formula(f) for f in formula.operands))
        if isinstance(formula, FNot):
            return Not(self.rewrite_formula(formula.operand))
        if isinstance(formula, (FTrue, FFalse)):
            return formula
        raise TypeError(f"not a formula: {formula!r}")  # pragma: no cover

    def new_congruence_axioms(self) -> List[Formula]:
        """Congruence axioms for pairs not yet emitted.

        Each call pairs the applications registered since the previous
        call with every older application of the same symbol (and with
        each other), then advances the per-symbol emission watermark.
        """
        axioms: List[Formula] = []
        for key, apps in self._by_func.items():
            start = self._emitted.get(key, 0)
            if start >= len(apps):
                continue
            for j in range(start, len(apps)):
                b = apps[j]
                vb = self._cache[b]
                for k in range(j):
                    a = apps[k]
                    va = self._cache[a]
                    pair = (a, b, va, vb)
                    axiom = self._axiom_cache.get(pair)
                    if axiom is None:
                        args_differ = [arg_a.ne(arg_b)
                                       for arg_a, arg_b in zip(a.args, b.args)
                                       if arg_a is not arg_b]
                        if not args_differ:
                            # Identical rewritten arguments cannot happen
                            # for distinct cache entries, but guard anyway.
                            axiom = va.eq(vb)  # pragma: no cover
                        else:
                            axiom = Or(*args_differ, va.eq(vb))
                        self._axiom_cache[pair] = axiom
                    axioms.append(axiom)
            self._emitted[key] = len(apps)
        return axioms

    def forget_apps(self, apps: Iterable[TApp]) -> None:
        """Unwind applications (their assertion level was popped)."""
        removed = set()
        for app in apps:
            if self._cache.pop(app, None) is None:
                continue
            removed.add(app)
            key = (app.func, len(app.args))
            lst = self._by_func[key]
            # Popped levels own the newest applications, so scan from
            # the tail.
            for idx in range(len(lst) - 1, -1, -1):
                if lst[idx] == app:
                    del lst[idx]
                    break
            self._emitted[key] = min(self._emitted.get(key, 0), len(lst))
        if removed:
            self.introduced = [a for a in self.introduced if a not in removed]


def _merged(done: List[Tuple[Term, Named]]) -> Named:
    """The named pairs of several rewrites, each pair once."""
    named = [pair for _, pairs in done for pair in pairs]
    return tuple(dict.fromkeys(named)) if named else ()


def ackermannize(formulas: List[Formula]) -> AckermannResult:
    """Eliminate UF applications from *formulas* (one-shot).

    Returns the rewritten formulas and the congruence clauses; the
    conjunction of both is equisatisfiable with the input.
    """
    ack = Ackermannizer()
    rewritten = [ack.rewrite_formula(f) for f in formulas]
    result = AckermannResult(rewritten, ack.new_congruence_axioms())
    result.app_names = ack.app_names
    return result
