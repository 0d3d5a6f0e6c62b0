"""The four benchmark workloads.

Each workload defines

* ``build(seed)`` — the inputs, made in the child before it reports
  ready (set-up time);
* ``op(inputs, k)`` — one timed operation, from source text to its last
  result (parse, analysis and codegen, execution, cost sweep);
* ``outputs(inputs, k, result)`` — the JSON-able outputs the parent
  verifies, extracted after the op timer stops;
* ``reference(inputs)`` — the reference child's independent answers:
  serial-adjoint gradients validated by central finite differences, and
  every generated parallel adjoint race-checked;
* ``check(out, ref, expected)`` — the parent's verdict on one op.

Ops look up every ``repro`` entry point at call time, never through a
reference captured during set-up, so the traced pass's wrappers (which
are installed after set-up) see every call.

``repro`` is imported lazily: the parent process only needs the
workload table and the checks.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Sequence

#: GFMC reduced size (``gfmc_spec(npair=...)``).
GFMC_NPAIR = 6
#: 8-point stencil reduced size (``large_stencil_spec(n)``).
STENCIL_N = 400
#: Distinct generated cases per ``audit-mix`` pass; each pass runs in a
#: fresh interpreter and every case is one op.
AUDIT_POOL = 500
#: LBM cells used to race-check the reference adjoint.
LBM_REF_CELLS = 50
#: Gradient tolerance against the serial-adjoint reference.
RTOL, ATOL = 1e-9, 1e-12
#: Simulated thread count of ``sim_speedup_formad``.
SPEEDUP_THREADS = 18

STENCIL_STRATEGIES = ("formad", "atomic", "reduction", "preaccumulate",
                      "transposed")


def vector_seed(seed: int, k: int) -> int:
    """Seed of the random adjoint seed vector of op/case *k*."""
    return seed * 1_000_003 + k


_CHANNEL = re.compile(r"(call (?:push|pop)\(')([^']+)'")


def digest(proc) -> str:
    """SHA-256 of a procedure's printed source, with tape channels
    renamed in order of first use: channel names come from a
    process-global statement counter, so they depend on what else the
    process differentiated before."""
    from repro import format_procedure
    names: Dict[str, int] = {}
    text = _CHANNEL.sub(lambda m: "%sch%d'" % (
        m.group(1), names.setdefault(m.group(2), len(names))),
        format_procedure(proc))
    return hashlib.sha256(text.encode()).hexdigest()


def allclose(got: Sequence[float], want: Sequence[float],
             rtol: float = RTOL, atol: float = ATOL) -> bool:
    """``numpy.allclose`` on two flat float lists of equal length."""
    return len(got) == len(want) and all(
        abs(a - b) <= atol + rtol * abs(b) for a, b in zip(got, want))


def _flat(memory, name: str) -> List[float]:
    if name in memory.arrays:
        return [float(v) for v in memory.array(name).data.ravel()]
    return [float(memory.get_scalar(name))]


def _gradient_lists(grads) -> Dict[str, List[float]]:
    return {n: [float(v) for v in g.ravel()] for n, g in grads.items()}


def _summary(analyses) -> dict:
    """Verdicts (safe in every loop) and Table-1 counters summed over
    loops."""
    verdicts: Dict[str, bool] = {}
    counters = dict(model_size=0, queries=0, consistency_checks=0,
                    exploitation_checks=0)
    offending: List[str] = []
    for analysis in analyses:
        for array, verdict in analysis.verdicts.items():
            verdicts[array] = verdicts.get(array, True) and verdict.safe
        for name in counters:
            counters[name] += getattr(analysis.stats, name)
        offending += analysis.offending_expressions
    return {"verdicts": verdicts, "offending": offending, **counters}


def _expected_problems(out: dict, expected: dict) -> List[str]:
    return [f"{key}: got {out[key]!r}, expected {want!r}"
            for key, want in expected.items() if out.get(key) != want]


def _formad(proc, ind, dep):
    """FormAD-differentiate *proc*: ``(adjoint, analyses)``."""
    import repro
    policy = repro.FormADGuardPolicy(proc, ind, dep)
    adj = repro.differentiate_reverse(proc, ind, dep, policy=policy)
    return adj, policy.analyses()


def _differentiate(proc, ind, dep, strategy):
    import repro
    if strategy == "formad":
        return _formad(proc, ind, dep)
    return repro.differentiate(proc, ind, dep, strategy=strategy), None


def _race_count(adj, bindings, ind, dep, vseed) -> int:
    import repro
    from repro.audit.numcheck import adjoint_bindings
    return len(repro.detect_races(
        adj.procedure, adjoint_bindings(adj, bindings, ind, dep,
                                        seed=vseed)).races)


def _validated_serial(proc, bindings, ind, dep, vseed):
    """The serial adjoint and whether it passes the finite-difference
    dot-product check."""
    import repro
    from repro.audit.numcheck import dot_product_check
    serial = repro.differentiate_reverse(proc, ind, dep, serial=True)
    fd_ok = (dot_product_check(proc, serial, bindings, ind, dep,
                               seed=vseed)[0] if ind else True)
    return serial, bool(fd_ok)


def _gradient_problems(label: str, got: Dict[str, List[float]],
                       want: Dict[str, List[float]]) -> List[str]:
    if sorted(got) != sorted(want):
        return [f"{label}: gradient names {sorted(got)} != {sorted(want)}"]
    return [f"{label}: gradient of {name} differs from the serial adjoint"
            for name in want if not allclose(got[name], want[name])]


def _adjoint_problems(label: str, got: str, ref: dict) -> List[str]:
    if got != ref["adjoints"][label]["digest"]:
        return [f"{label} adjoint differs from the race-checked reference"]
    return []


def _reference_problems(ref: dict) -> List[str]:
    problems = []
    if not ref.get("fd_ok", True):
        problems.append("reference serial adjoint fails the "
                        "finite-difference check")
    for label, adjoint in ref.get("adjoints", {}).items():
        if adjoint["races"]:
            problems.append(f"{label} adjoint races "
                            f"({adjoint['races']} race(s))")
    return problems


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""
    #: Ops per child interpreter; 1 means a fresh interpreter per op.
    ops_per_child = 1

    def build(self, seed: int) -> dict:
        raise NotImplementedError

    def op(self, inputs: dict, k: int):
        raise NotImplementedError

    def outputs(self, inputs: dict, k: int, result) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict) -> dict:
        raise NotImplementedError

    def check(self, out: dict, ref: dict, expected: dict) -> List[str]:
        raise NotImplementedError


class LbmAnalyze(Workload):
    """The paper's rejection case: one loop, 553 Table-1 queries, no
    execution."""

    name = "lbm-analyze"

    def build(self, seed: int) -> dict:
        from repro import format_procedure
        from repro.programs import build_lbm
        return {"source": format_procedure(build_lbm()), "proc": "lbm",
                "ind": ["srcgrid"], "dep": ["dstgrid"],
                "vseed": vector_seed(seed, 0)}

    def op(self, inputs: dict, k: int):
        import repro
        proc = repro.parse_program(inputs["source"])[inputs["proc"]]
        return _formad(proc, inputs["ind"], inputs["dep"])

    def outputs(self, inputs: dict, k: int, result) -> dict:
        adj, analyses = result
        return {**_summary(analyses), "adjoint": digest(adj.procedure)}

    def reference(self, inputs: dict) -> dict:
        import repro
        from repro.programs import make_lbm_workload
        ind, dep = inputs["ind"], inputs["dep"]
        proc = repro.parse_program(inputs["source"])[inputs["proc"]]
        adj, _ = _formad(proc, ind, dep)
        races = _race_count(adj, make_lbm_workload(LBM_REF_CELLS), ind, dep,
                            inputs["vseed"])
        return {"adjoints": {"formad": {"digest": digest(adj.procedure),
                                        "races": races}}}

    def check(self, out: dict, ref: dict, expected: dict) -> List[str]:
        return (_expected_problems(out, expected) + _reference_problems(ref)
                + _adjoint_problems("formad", out["adjoint"], ref))


class _SweptKernel(Workload):
    """Parse one paper kernel, differentiate it with each strategy,
    execute every adjoint under the cost tracer and sweep the simulated
    machine over the paper's thread counts."""

    strategies: Sequence[str] = ("formad",)

    def spec(self):
        raise NotImplementedError

    def build(self, seed: int) -> dict:
        from repro import format_procedure
        spec = self.spec()
        return {"spec": spec, "source": format_procedure(spec.proc),
                "vseed": vector_seed(seed, 0)}

    def op(self, inputs: dict, k: int):
        import repro
        from repro.audit.numcheck import adjoint_bindings
        from repro.experiments.paper_reference import PAPER_THREADS
        from repro.runtime.costmodel import total_time
        spec = inputs["spec"]
        ind, dep = spec.independents, spec.dependents
        proc = repro.parse_program(inputs["source"])[spec.proc.name]
        results = {}
        for strategy in self.strategies:
            adj, analyses = _differentiate(proc, ind, dep, strategy)
            run = repro.profile_run(adj.procedure, adjoint_bindings(
                adj, spec.bindings, ind, dep, seed=inputs["vseed"]))
            times = {t: total_time(run.profile, repro.BROADWELL_18, t,
                                   iter_scale=spec.iter_scale,
                                   invocation_scale=spec.invocation_scale,
                                   elem_scale=spec.elem_scale)
                     for t in PAPER_THREADS}
            results[strategy] = (adj, analyses, run, times)
        return results

    def outputs(self, inputs: dict, k: int, result) -> dict:
        spec = inputs["spec"]
        out = {}
        for strategy, (adj, analyses, run, times) in result.items():
            out[strategy] = {
                "adjoint": digest(adj.procedure),
                "gradient": {n: _flat(run.memory, adj.adjoint_name(n))
                             for n in spec.independents},
                "sim_s": times[SPEEDUP_THREADS],
            }
        return {**_summary(result["formad"][1]), "strategies": out}

    def reference(self, inputs: dict) -> dict:
        import repro
        from repro.audit.numcheck import adjoint_bindings
        spec, vseed = inputs["spec"], inputs["vseed"]
        ind, dep = spec.independents, spec.dependents
        proc = repro.parse_program(inputs["source"])[spec.proc.name]
        serial, fd_ok = _validated_serial(proc, spec.bindings, ind, dep,
                                          vseed)
        run = repro.profile_run(serial.procedure, adjoint_bindings(
            serial, spec.bindings, ind, dep, seed=vseed))
        # A pragma-free build is scaled like experiments.harness does.
        serial_s = (run.profile.serial.serial_seconds(repro.BROADWELL_18)
                    * spec.iter_scale * spec.invocation_scale)
        adjoints = {}
        for strategy in self.strategies:
            adj, _ = _differentiate(proc, ind, dep, strategy)
            adjoints[strategy] = {
                "digest": digest(adj.procedure),
                "races": _race_count(adj, spec.bindings, ind, dep, vseed)}
        return {"fd_ok": fd_ok, "serial_s": serial_s, "adjoints": adjoints,
                "gradient": {n: _flat(run.memory, serial.adjoint_name(n))
                             for n in ind}}

    def check(self, out: dict, ref: dict, expected: dict) -> List[str]:
        problems = _expected_problems(out, expected)
        problems += _reference_problems(ref)
        for strategy, got in out["strategies"].items():
            problems += _adjoint_problems(strategy, got["adjoint"], ref)
            problems += _gradient_problems(strategy, got["gradient"],
                                           ref["gradient"])
        return problems


class GfmcAdjoint(_SweptKernel):
    """Indirect gathers and tape push/pop; the interpreter dominates."""

    name = "gfmc-adjoint"

    def spec(self):
        from repro.experiments.specs import gfmc_spec
        return gfmc_spec(npair=GFMC_NPAIR)


class StencilStrategies(_SweptKernel):
    """The 8-point stencil under all five safeguard strategies."""

    name = "stencil-strategies"
    strategies = STENCIL_STRATEGIES

    def spec(self):
        from repro.experiments.specs import large_stencil_spec
        return large_stencil_spec(STENCIL_N)


def audit_draw(seed: int, count: int = AUDIT_POOL) -> List[dict]:
    """The ``audit-mix`` cases of *seed*: a pure function of it."""
    from repro import format_procedure
    from repro.audit.generator import (FAMILIES, RACY_FAMILIES,
                                       build_procedure, generate_case,
                                       make_bindings)
    families = tuple(f for f in FAMILIES if f not in RACY_FAMILIES)
    cases = []
    for k in range(count):
        spec = generate_case(k, seed=seed, families=families)
        name = f"case{k}"
        cases.append({
            "proc": name,
            "source": format_procedure(build_procedure(spec, name=name)),
            "bindings": make_bindings(spec, spec.n),
            "ind": spec.independents(), "dep": spec.dependents(),
            "vseed": vector_seed(seed, k)})
    return cases


class AuditMix(Workload):
    """Many tiny generated loops, where per-kernel fixed cost
    dominates."""

    name = "audit-mix"
    ops_per_child = AUDIT_POOL

    def build(self, seed: int) -> dict:
        return {"cases": audit_draw(seed)}

    def op(self, inputs: dict, k: int):
        import repro
        from repro.audit.numcheck import gradients
        case = inputs["cases"][k]
        proc = repro.parse_program(case["source"])[case["proc"]]
        adj, _ = _formad(proc, case["ind"], case["dep"])
        return adj, gradients(adj, case["bindings"], case["ind"],
                              case["dep"], seed=case["vseed"])

    def outputs(self, inputs: dict, k: int, result) -> dict:
        adj, grads = result
        return {"adjoint": digest(adj.procedure),
                "gradient": _gradient_lists(grads)}

    def reference(self, inputs: dict) -> dict:
        import repro
        from repro.audit.numcheck import gradients
        refs = []
        for case in inputs["cases"]:
            ind, dep, vseed = case["ind"], case["dep"], case["vseed"]
            proc = repro.parse_program(case["source"])[case["proc"]]
            serial, fd_ok = _validated_serial(proc, case["bindings"], ind,
                                              dep, vseed)
            grads = gradients(serial, case["bindings"], ind, dep, seed=vseed)
            adj, _ = _formad(proc, ind, dep)
            refs.append({
                "fd_ok": fd_ok, "gradient": _gradient_lists(grads),
                "adjoints": {"formad": {
                    "digest": digest(adj.procedure),
                    "races": _race_count(adj, case["bindings"], ind, dep,
                                         vseed)}}})
        return {"cases": refs}

    def check(self, out: dict, ref: dict, expected: dict) -> List[str]:
        case = ref["cases"][out["k"]]
        return (_reference_problems(case)
                + _adjoint_problems("formad", out["adjoint"], case)
                + _gradient_problems("formad", out["gradient"],
                                     case["gradient"]))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (LbmAnalyze(), GfmcAdjoint(), StencilStrategies(),
                        AuditMix())}
