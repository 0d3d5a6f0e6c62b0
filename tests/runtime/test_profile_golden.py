"""Golden digests of the cost profile, and an event-driven reference.

:func:`~repro.runtime.executor.profile_run` turns one interpreted run
into an :class:`~repro.runtime.costmodel.ExecutionProfile`, which the
simulated machine turns into every time in the paper's figures. These
tests pin the whole profile bit for bit: the serial counts, each
parallel loop's iteration values, per-iteration counts, reduction
arrays and distinct gather lines, and the ``total_time`` sweep over
``PAPER_THREADS``.

They also check the profile against :class:`ReferenceCostTracer`, a
counter that derives the same profile from the interpreter's per-event
callbacks, one ``on_*`` call per operation. It is kept here as the
independent statement of what each count means; the cost tracer itself
receives only the parallel-loop callbacks and gets its counts per
compiled region. Run this file as a script to print the current
digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STRATEGIES, differentiate, parse_procedure, profile_run
from repro.audit.generator import (FAMILIES, build_procedure, generate_case,
                                   make_bindings)
from repro.audit.numcheck import adjoint_bindings
from repro.experiments.paper_reference import PAPER_THREADS
from repro.experiments.specs import gfmc_spec, large_stencil_spec
from repro.ir.builder import ProcedureBuilder
from repro.ir.expr import ArrayRef
from repro.ir.stmt import Loop
from repro.ir.types import REAL, integer_array, real_array
from repro.runtime import BROADWELL_18, Interpreter, Memory, Tracer
from repro.runtime.costmodel import (ExecutionProfile, OpCounts,
                                     ParallelLoopRecord,
                                     classify_ref_streaming, total_time)

from .test_interp_golden import PROGRAMS as INTERP_PROGRAMS
from .test_interp_golden import node_positions

#: The benchmark's reduced sizes (``bench/workloads.py``).
GFMC_NPAIR = 6
STENCIL_N = 400


class ReferenceCostTracer(Tracer):
    """The cost profile, counted one callback at a time."""

    def __init__(self, counter_names: Sequence[str] = (),
                 array_sizes: Optional[Dict[str, int]] = None) -> None:
        self.profile = ExecutionProfile()
        self._current: OpCounts = self.profile.serial
        self._loop_record: Optional[ParallelLoopRecord] = None
        self._counters = frozenset(counter_names)
        self._stream_cache: Dict[int, bool] = {}
        self._array_sizes = array_sizes or {}
        self._gather_lines: set = set()

    # -- classification -------------------------------------------------
    def _is_streaming(self, ref: Optional[ArrayRef]) -> bool:
        if ref is None:
            return True
        key = id(ref)
        cached = self._stream_cache.get(key)
        if cached is None:
            cached = classify_ref_streaming(ref, self._counters)
            self._stream_cache[key] = cached
        return cached

    # -- events ----------------------------------------------------------
    def on_flop(self, n: int = 1) -> None:
        self._current.flops += n

    def on_intrinsic(self, name: str) -> None:
        self._current.intrinsics += 1

    def on_atomic_begin(self, array: str, flat: int) -> None:
        self._atomic_target = (array, flat)

    def on_atomic_end(self) -> None:
        self._atomic_target = None

    def on_read(self, array: str, flat: int, ref=None) -> None:
        if getattr(self, "_atomic_target", None) == (array, flat):
            return  # covered by the atomic RMW cost
        if self._is_streaming(ref):
            self._current.stream_mem += 1
        else:
            self._current.gather_mem += 1
            if self._loop_record is not None:
                self._gather_lines.add((array, flat >> 3))

    def on_write(self, array: str, flat: int, *, atomic: bool, ref=None) -> None:
        if atomic:
            self._current.atomics += 1
            return
        if self._is_streaming(ref):
            self._current.stream_mem += 1
        else:
            self._current.gather_mem += 1
            if self._loop_record is not None:
                self._gather_lines.add((array, flat >> 3))

    def on_scalar_read(self, name: str) -> None:
        self._current.scalar_ops += 1

    def on_scalar_write(self, name: str) -> None:
        self._current.scalar_ops += 1

    def on_push(self) -> None:
        self._current.tape_ops += 1

    def on_pop(self) -> None:
        self._current.tape_ops += 1

    def on_parallel_loop_begin(self, loop: Loop, iterations: Sequence[int]) -> None:
        self._gather_lines = set()
        record = ParallelLoopRecord(loop, list(iterations))
        for _, name in loop.reduction:
            size = self._array_sizes.get(name)
            if size is not None and size > 1:
                record.reduction_arrays.append((name, size))
        self.profile.parallel_loops.append(record)
        self._loop_record = record

    def on_parallel_iteration_begin(self, loop: Loop, value: int) -> None:
        assert self._loop_record is not None
        counts = OpCounts()
        self._loop_record.per_iteration.append(counts)
        self._current = counts

    def on_parallel_iteration_end(self, loop: Loop, value: int) -> None:
        self._current = self.profile.serial

    def on_parallel_loop_end(self, loop: Loop) -> None:
        if self._loop_record is not None:
            self._loop_record.distinct_gather_lines = len(self._gather_lines)
        self._gather_lines = set()
        self._loop_record = None
        self._current = self.profile.serial


def profile_items(proc, profile: ExecutionProfile) -> List[tuple]:
    """Every number of *profile* (loops keyed by preorder position) and
    its simulated time at each of the paper's thread counts."""
    positions = node_positions(proc)
    items = [("serial", astuple(profile.serial))]
    for record in profile.parallel_loops:
        items.append(("loop", positions[id(record.loop)],
                      tuple(record.iteration_values),
                      tuple(astuple(c) for c in record.per_iteration),
                      tuple(record.reduction_arrays),
                      record.distinct_gather_lines))
    items += [("time", t, total_time(profile, BROADWELL_18, t))
              for t in PAPER_THREADS]
    return items


def profile_digest(proc, bindings) -> str:
    """SHA-256 of :func:`profile_items` of one ``profile_run``."""
    items = profile_items(proc, profile_run(proc, bindings).profile)
    return hashlib.sha256(repr(items).encode()).hexdigest()


def reference_items(proc, bindings) -> List[tuple]:
    """:func:`profile_items` of the run under the reference counter."""
    memory = Memory.for_procedure(proc, bindings)
    tracer = ReferenceCostTracer(
        [s.var for s in proc.statements() if isinstance(s, Loop)],
        {name: storage.size for name, storage in memory.arrays.items()})
    Interpreter(proc, memory, tracer).run()
    return profile_items(proc, tracer.profile)


def assert_matches_reference(proc, bindings) -> None:
    got = profile_items(proc, profile_run(proc, bindings).profile)
    assert got == reference_items(proc, bindings)


def _bench_kernel(spec_fn, strategy: str):
    def build():
        spec = spec_fn()
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy=strategy)
        return adj.procedure, adjoint_bindings(
            adj, spec.bindings, spec.independents, spec.dependents, seed=0)
    return build


PROGRAMS: Dict[str, Callable] = {
    **INTERP_PROGRAMS,
    **{f"gfmc{GFMC_NPAIR}-{s}": _bench_kernel(
        lambda: gfmc_spec(npair=GFMC_NPAIR), s) for s in STRATEGIES},
    **{f"stencil8n{STENCIL_N}-{s}": _bench_kernel(
        lambda: large_stencil_spec(STENCIL_N), s)
       for s in STRATEGIES},
}


#: ``program -> profile digest``, recorded from the per-event counter.
GOLDEN: Dict[str, str] = {
    "audit0-formad":
        "1b309d3ddf046fb7759c91fb97c13c79fe68ea0212879bfc112b767e2a9ad79f",
    "audit0-primal":
        "f4f102d4a0456957462342100e0ac1e89d654c07c16e2ee6cac30733782159e7",
    "audit1-formad":
        "a1c2813721024684dfbf7c830e7e0a24b1a3540c04e9692cabda6cb4c50bfac8",
    "audit1-primal":
        "ecaa6b412aad8699f05cb497036eab629ee4c0745350ea7a86f8c41beb94afdd",
    "audit10-formad":
        "5a7ddc8343990e9da8bceef379de79396f6297bc6f15d2c7ba45d974127f9b57",
    "audit10-primal":
        "cd3c1d1f27c2bd161ca432d12fee58ecd387af43fdcd7bfc0516bda45076f56a",
    "audit11-formad":
        "49e5242ef2139922a28d9161b070bd3587a9b9f3d585dd6e514452ad0b299f29",
    "audit11-primal":
        "8a73e7ac343cdb96f89c4a7fecbdf0056916deb97881b867f284cb52a6901cae",
    "audit12-formad":
        "4cd8975e93634a02958cf826a807beaf51462f405e47809d0194bb58bac55a37",
    "audit12-primal":
        "82d6f619f3bf5e645af21f18d76e527517a578643918d397dc2eb8a2622bad1e",
    "audit13-formad":
        "13e960c917caffcd1179211a9ac89d4bcf5cda5d6191a1fb7f8a5a376baa2d80",
    "audit13-primal":
        "0f76d1569ce132a190345971ff9452d28eb27bbb3e81d0872ca95268dc70c19a",
    "audit14-formad":
        "4f4cd1d65f9ee937735b913f954aba6d5e628340f5473904cdb1a31c30890f00",
    "audit14-primal":
        "1fa657ffd4e44a2b3eedde79fabcf1ca6cb5d4143258574339969203a3d8764e",
    "audit15-formad":
        "613ffb20521bfc1be14934d54c07a32ae3a529877a5961a31cb2cbb3d1cb9fa8",
    "audit15-primal":
        "13a6dbc0dc85ab43346a8e198cbf74b4c9105fad4b35fd60f5efd7775c4971e6",
    "audit16-formad":
        "3a94d99af43b5f6ef0478b69b6214212c4932371c4905baf9feacaaa5fc0fb79",
    "audit16-primal":
        "f8fd6c9388579b8582caef7cf04a987313a37e661e1800bcec3630325cc0ba83",
    "audit17-formad":
        "a54cef72d0dd92885c8a5fcc7d251e197072e69585277b4add1e991bd521e89c",
    "audit17-primal":
        "2d02b688bec515ebb6b9d5d08b925445ba42ca7452f61a6d120a431810184093",
    "audit18-formad":
        "37f9fc359c5694be6b65ddfefb0abead9073f5988e1582471bfb7158e2469d03",
    "audit18-primal":
        "5ed56dcbc79d0c9b6f7e3f9c7e48fb7c3b31477175dae10dcd7b6a0d9986f46a",
    "audit19-formad":
        "a1c2813721024684dfbf7c830e7e0a24b1a3540c04e9692cabda6cb4c50bfac8",
    "audit19-primal":
        "ecaa6b412aad8699f05cb497036eab629ee4c0745350ea7a86f8c41beb94afdd",
    "audit2-formad":
        "5d83f7ef6962d9a45617d42418323ee712c6a810fc7b956ef0ab94335fbe329d",
    "audit2-primal":
        "c4479a2d8b27cce77df6b328b19b07eda2e76404dae67912f858ca627f951f54",
    "audit3-formad":
        "31ea2911132151205b0f7a63cd1442815b349274b2a9eae018ad1aa3360d6453",
    "audit3-primal":
        "60c255a49ab6c490bbeedf2af87fff06d5543406d83af546badd7b56f30a4be6",
    "audit4-formad":
        "3ba8c11d53ba32a6961509eaafa3634ecfc66112f773975c21d69c95f38b9011",
    "audit4-primal":
        "23efc8218f9717736400751d4eded24e70820374cd908f8183ddf15e233c9d27",
    "audit5-formad":
        "cc27781e6d046eb823429a9b0865a738b3056eb9ea3e65a5d346627da98bac75",
    "audit5-primal":
        "033e410fa15c953a92a9e8f179709a160a6ea224a318d8673c53fe767e8c6015",
    "audit6-formad":
        "2889121aceb68491897553866651dc5ec21122cc62704424fd5a4cca22f8b2b0",
    "audit6-primal":
        "af74be8c7a233fc9c8274b5ad45ee4c1a61e8da1fbce39fd6ec6f6ccfdf86415",
    "audit7-formad":
        "892b5f030c76cd49edc4d9406d3bb8efb43d1e1979e3f79a72adee37fbbe3769",
    "audit7-primal":
        "98e864d843b20c76486e85f33c7049649ec4a497d549dc1d1effb173c37d9d3a",
    "audit8-formad":
        "b4ee5f7d91fce7ae3d759549541c3e92eec8289b5477b03fd63b3e2205f85bb6",
    "audit8-primal":
        "fe7df0e043159aef064204646e5849fa7083fd42adf3926ab4af91a48662cc23",
    "audit9-formad":
        "552ebe07a3b9081c4c705337f7d5e327f7d90bcb8b8d4a9d2abcf1bd71836e17",
    "audit9-primal":
        "319729a07d6c756478acd24a2caf71b06061986365f68f6b5eef8567b3aff6fe",
    "gfmc-formad":
        "70ae867b7506289250a412abe7f30ff3bac1a314b7e64beb53d4e004e7d622ec",
    "gfmc-primal":
        "8b3f88645c27a934206666d0b4f27e43b76eca3c104a422e468b5435538bf4f7",
    "gfmc6-atomic":
        "9db5c9927518e353641fd4bfa01c174f602886947e01bd99d54391bff41c9c6f",
    "gfmc6-formad":
        "9fcbc4a128f44cb63d64b423d26b17b35edfa40bc8247de6134afe101336323f",
    "gfmc6-preaccumulate":
        "9db5c9927518e353641fd4bfa01c174f602886947e01bd99d54391bff41c9c6f",
    "gfmc6-reduction":
        "d2598497622f335b477254277e6d51468c28adb2318cb5bcefa8de28a0f6b950",
    "gfmc6-serial":
        "6abe1f519d9fc188cfabe09212d41f470272a5eac4b2152c78a6d0fbcaa33b51",
    "gfmc6-shared":
        "9fcbc4a128f44cb63d64b423d26b17b35edfa40bc8247de6134afe101336323f",
    "gfmc6-transposed":
        "9db5c9927518e353641fd4bfa01c174f602886947e01bd99d54391bff41c9c6f",
    "greengauss-formad":
        "304f23fa33afbfaee1f751eb71f5cd77b849289bf0a108c2fb0f31b44470e0d5",
    "greengauss-primal":
        "831170d6a62e66b46c38cfd4a0c3a7727e7de7ce7b450fc5d7146eca07b4c4ac",
    "lbm-formad":
        "ac5554af8426123846e3e51f5e2242db9308b87d8fa4c14362d7e2f63aa26582",
    "lbm-primal":
        "740b2fd6891a03c4e29c45917520c0a5b4707284b121822cef1c81dd174f719a",
    "stencil8-atomic":
        "2fb4f96673b64ea43d81b64a1757b05684f3ce50b65316c84e489530e7b2fc5b",
    "stencil8-formad":
        "602ccadb46e2165b43b7455c304e04509625906df6af97613d59f21bcdbc817d",
    "stencil8-preaccumulate":
        "0cec9cd3a2e30b92d412e3fa9613531c2ea94e8828b034f6c904d0f988d45f39",
    "stencil8-primal":
        "b3cabd1bc492a8250d8761e07f9eab2e84f797b9d42da4bbcb61e48fb60a48c1",
    "stencil8-reduction":
        "b35bcddf35844d14df762d49cdf2de09ffaa33abd62a69d4657a87a581796f02",
    "stencil8-transposed":
        "8844a5c86c3b743d007f7fbb6bfb1fd989f447b78063cf94c6498ec67bac38af",
    "stencil8n400-atomic":
        "65dda13e9cb310cb3593111d0ade544fbe70513d2d74fbce32b12dc19f126788",
    "stencil8n400-formad":
        "4c3f17e740980cacbafc3d408b7228096ec36250c6c0c8883c6dc97698d8dfff",
    "stencil8n400-preaccumulate":
        "b78c45e7a15ca409a822a098df9ef87d7d2f7ce43d105f6ea46d5aacc42e8990",
    "stencil8n400-reduction":
        "a5f981e9473b489d62ac3ecf21b8bde392ca5be6df72e082c0e516613d83791f",
    "stencil8n400-serial":
        "a96d0c7e5a3fbacb403fb563180b600764eb59d78d95946e88799cf9a94a855b",
    "stencil8n400-shared":
        "4c3f17e740980cacbafc3d408b7228096ec36250c6c0c8883c6dc97698d8dfff",
    "stencil8n400-transposed":
        "238148011e5f58a64a64f54b5da90eacf3b9c99a6b499911cc5ac92b968d0242",
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_profile_matches_golden(name):
    assert profile_digest(*PROGRAMS[name]()) == GOLDEN[name]


# ----------------------------------------------------------------------
# The reference counter on shaped and generated programs
# ----------------------------------------------------------------------
N = 24
#: Index table with collisions and repeats within a cache line
#: (flat >> 3). Some entries are their own position and some are not,
#: so an atomic target ``y(c(i))`` sometimes meets ``y(i)`` and
#: ``y(c(c(i)))`` and sometimes does not.
C = np.array([1, 2, 3, 1, 9, 17, 2, 8, 5, 10, 24, 12, 13, 1, 17, 16,
              6, 18, 3, 20, 21, 9, 23, 11], dtype=np.int64)


def _arrays(seed: int = 0) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal(N), "y": rng.standard_normal(N),
            "c": C.copy(), "n": N}


SHORT_CIRCUIT = """
subroutine shortcircuit(x, y, c, n)
  real, intent(in) :: x(*)
  real, intent(inout) :: y(*)
  integer, intent(in) :: c(*)
  integer, intent(in) :: n
  do i = 1, n
    if (x(i) > 0.0 .and. sqrt(abs(x(c(i)))) > 0.5) then
      y(i) = y(i) + 1.0
    end if
    if (x(i) < 0.0 .or. abs(x(c(i))) + y(c(i)) > 1.0) then
      y(i) = y(i) - x(c(i))
    else
      y(i) = y(i) * 2.0
    end if
  end do
  !$omp parallel do
  do i = 1, n
    if (x(c(i)) > 0.0 .and. max(x(i), x(c(i))) > 0.3 .or. &
        .not. (y(i) > 0.0 .and. y(c(i)) < x(c(i)))) then
      y(i) = y(i) + exp(-abs(x(c(i))))
    end if
  end do
end subroutine shortcircuit
"""

ATOMICS = """
subroutine atomics(x, y, c, n)
  real, intent(in) :: x(*)
  real, intent(inout) :: y(*)
  integer, intent(in) :: c(*)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    !$omp atomic
    y(c(i)) = y(c(i)) + x(i) * y(c(i))
    !$omp atomic
    y(c(i)) = y(c(i)) + y(i) * x(c(i)) + y(c(c(i)))
  end do
  !$omp atomic
  y(1) = y(1) + y(2) + 0.5 * y(1)
end subroutine atomics
"""

SHAPES = """
subroutine shapes(x, y, c, n, m)
  real, intent(inout) :: x(*)
  real, intent(inout) :: y(*)
  integer, intent(in) :: c(*)
  integer, intent(in) :: n
  integer, intent(in) :: m
  real :: t
  do i = 1, size(x)
    if (mod(i, 2) == 0) then
      x(i) = x(i) * 2.0
    else
      x(i) = -x(i) + real(size(y, 1))
    end if
  end do
  do i = n, 1
    x(i) = 0.0
  end do
  !$omp parallel do private(t)
  do i = 1, n
    do k = 1, 0
      y(i) = 1.0
    end do
    t = 0.0
    do k = 1, 3
      t = t + x(c(i)) * k
    end do
    y(i) = y(i) + t + size(c)
  end do
  !$omp parallel do
  do i = m, 1
    y(i) = 0.0
  end do
  do k = 1, 3
    !$omp parallel do
    do i = 1, n - c(m)
      y(i) = y(i) + x(c(i)) * k
    end do
    x(c(k)) = x(c(k)) + y(k)
  end do
end subroutine shapes
"""


def _gathers():
    """2-D gathers with repeated lines, inside and outside a parallel
    loop, through a subscript scalar and through an index table."""
    src = """
subroutine gathers(a, b, c, n)
  real, intent(inout) :: a(4, 24)
  real, intent(inout) :: b(24, 4)
  integer, intent(in) :: c(*)
  integer, intent(in) :: n
  integer :: k
  do j = 1, n
    k = c(j)
    a(1, k) = a(2, k) + b(k, 1)
  end do
  !$omp parallel do private(k)
  do j = 1, n
    k = c(j)
    b(k, 2) = b(k, 2) + a(3, k) * b(c(j), 3)
    b(j, 4) = a(4, c(j)) + b(j, 1)
  end do
end subroutine gathers
"""
    rng = np.random.default_rng(1)
    return parse_procedure(src), {
        "a": rng.standard_normal((4, N)), "b": rng.standard_normal((N, 4)),
        "c": (np.arange(N) % 5 + 1).astype(np.int64), "n": N}


def _tape():
    """Push/pop (into a scalar and into an array element) inside and
    outside a parallel loop, and scalar and array reduction clauses."""
    b = ProcedureBuilder("tape")
    x = b.param("x", real_array(N), intent="in")
    y = b.param("y", real_array(N), intent="inout")
    c = b.param("c", integer_array(N), intent="in")
    s = b.param("s", REAL, intent="inout")
    t = b.local("t")
    with b.parallel_do("i", 1, N, private=["t"],
                       reduction=[("+", "s")]) as i:
        b.assign(t, x[i])
        b.push("a", t)
        b.assign(t, t * 2.0)
        b.assign(s, s + t * x[c[i]])
        b.pop("a", t)
        b.assign(y[i], y[i] + t)
    with b.parallel_do("i", 1, N, reduction=[("+", "y")]) as i:
        b.push("g", y[c[i]])
        b.assign(y[c[i]], y[c[i]] + x[i])
        b.pop("g", y[i])
    b.push("h", x[2])
    b.pop("h", y[1])
    rng = np.random.default_rng(2)
    return b.build(), {"x": rng.standard_normal(N),
                       "y": rng.standard_normal(N), "c": C.copy(), "s": 0.5}


SHAPED: Dict[str, Callable] = {
    "short-circuit": lambda: (parse_procedure(SHORT_CIRCUIT), _arrays()),
    "atomics": lambda: (parse_procedure(ATOMICS), _arrays()),
    "shapes": lambda: (parse_procedure(SHAPES), {**_arrays(), "m": 5}),
    "gathers": _gathers,
    "tape": _tape,
}


@pytest.mark.parametrize("name", sorted(SHAPED))
def test_shaped_program_matches_reference(name):
    assert_matches_reference(*SHAPED[name]())


@pytest.mark.parametrize("name", ["gfmc-formad", "stencil8-atomic",
                                  "stencil8-reduction",
                                  "stencil8-transposed", "audit8-formad"])
def test_kernel_matches_reference(name):
    assert_matches_reference(*INTERP_PROGRAMS[name]())


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=3, deadline=None)
@given(k=st.integers(0, 10_000), seed=st.integers(0, 3))
def test_generated_case_matches_reference(family, k, seed):
    """Cases of each generator family as a primal and as atomic,
    reduction and FormAD adjoints."""
    spec = generate_case(k, seed=seed, families=(family,))
    proc = build_procedure(spec, name="case")
    bindings = make_bindings(spec, spec.n)
    assert_matches_reference(proc, bindings)
    ind, dep = spec.independents(), spec.dependents()
    for strategy in ("atomic", "reduction", "formad"):
        adj = differentiate(proc, ind, dep, strategy=strategy)
        assert_matches_reference(adj.procedure, adjoint_bindings(
            adj, bindings, ind, dep, seed=k))


if __name__ == "__main__":
    for program in sorted(PROGRAMS):
        print(f'    "{program}":\n'
              f'        "{profile_digest(*PROGRAMS[program]())}",')
