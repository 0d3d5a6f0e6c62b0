"""The interpreter's cooperative deadline.

The deadline is polled once per iteration of every loop, before the
counter is set, so a timed-out run leaves memory holding exactly the
writes of the iterations that finished and emits no iteration-end or
loop-end event for the interrupted parallel loop.
"""

import numpy as np
import pytest

from repro.ir import ProcedureBuilder, real_array
from repro.runtime import Interpreter, InterpreterTimeout, Memory, Tracer


class StubDeadline:
    """Expires on the *k*-th ``expired()`` call (never if ``k`` is None)."""

    def __init__(self, k=None) -> None:
        self.k = k
        self.polls = 0

    def expired(self) -> bool:
        self.polls += 1
        return self.polls == self.k


class LoopEvents(Tracer):
    def __init__(self) -> None:
        self.events = []

    def on_write(self, array, flat, *, atomic, ref=None) -> None:
        self.events.append(("write", flat))

    def on_parallel_loop_begin(self, loop, iterations) -> None:
        self.events.append(("loop_begin",))

    def on_parallel_iteration_begin(self, loop, value) -> None:
        self.events.append(("iteration_begin", value))

    def on_parallel_iteration_end(self, loop, value) -> None:
        self.events.append(("iteration_end", value))

    def on_parallel_loop_end(self, loop) -> None:
        self.events.append(("loop_end",))


def _flat_loop(parallel: bool):
    """``a(i) = i`` for ``i = 1..5``."""
    b = ProcedureBuilder("p")
    a = b.param("a", real_array(5))
    loop = b.parallel_do if parallel else b.do
    with loop("i", 1, 5) as i:
        b.assign(a[i], i * 1.0)
    return b.build()


def _nested_loop():
    """``a(i, j) = 10*i + j`` for a parallel ``i = 1..3`` around a
    sequential ``j = 1..4``."""
    b = ProcedureBuilder("p")
    a = b.param("a", real_array(3, 4))
    with b.parallel_do("i", 1, 3) as i:
        with b.do("j", 1, 4) as j:
            b.assign(a[i, j], 10.0 * i + j)
    return b.build()


def _run(proc, deadline, tracer=None):
    memory = Memory.for_procedure(proc)
    interp = Interpreter(proc, memory, tracer or Tracer(), deadline=deadline)
    return interp, memory


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_flat_loop_times_out_on_poll_k(parallel, k):
    proc = _flat_loop(parallel)
    deadline = StubDeadline(k)
    tracer = LoopEvents()
    interp, memory = _run(proc, deadline, tracer)
    with pytest.raises(InterpreterTimeout):
        interp.run()
    assert deadline.polls == k
    want = np.zeros(5)
    want[:k - 1] = np.arange(1.0, k)
    np.testing.assert_array_equal(memory.array("a").data, want)
    # The counter is set after the poll, so it holds the last finished
    # iteration (its initial 0 when none finished).
    assert memory.get_scalar("i") == k - 1
    writes = [e for e in tracer.events if e[0] == "write"]
    assert writes == [("write", v) for v in range(k - 1)]
    if parallel:
        assert tracer.events[-1] == (
            ("iteration_end", k - 1) if k > 1 else ("loop_begin",))
        assert ("loop_end",) not in tracer.events


def test_sequential_loop_inside_parallel_times_out_on_poll_k():
    proc = _nested_loop()
    # Polls: i=1 (1), j=1..4 (2-5), i=2 (6), j=1 (7), j=2 (8).
    deadline = StubDeadline(8)
    tracer = LoopEvents()
    interp, memory = _run(proc, deadline, tracer)
    with pytest.raises(InterpreterTimeout):
        interp.run()
    assert deadline.polls == 8
    want = np.zeros((3, 4))
    want[0, :] = [11.0, 12.0, 13.0, 14.0]
    want[1, 0] = 21.0
    np.testing.assert_array_equal(memory.array("a").data, want)
    assert tracer.events[-2:] == [("iteration_begin", 2), ("write", 4)]
    assert ("iteration_end", 2) not in tracer.events
    assert ("loop_end",) not in tracer.events


@pytest.mark.parametrize("build, polls", [
    (lambda: _flat_loop(False), 5),
    (lambda: _flat_loop(True), 5),
    (_nested_loop, 3 + 3 * 4),
])
def test_polls_once_per_iteration(build, polls):
    proc = build()
    deadline = StubDeadline()
    interp, _ = _run(proc, deadline)
    interp.run()
    assert deadline.polls == polls


def test_timed_out_parallel_loop_does_not_poison_the_next_run():
    proc = _nested_loop()
    interp, memory = _run(proc, StubDeadline(3))
    with pytest.raises(InterpreterTimeout):
        interp.run()
    interp.deadline = None
    interp.run()
    want = 10.0 * np.arange(1, 4)[:, None] + np.arange(1, 5)[None, :]
    np.testing.assert_array_equal(memory.array("a").data, want)


@pytest.mark.parametrize("build", [lambda: _flat_loop(False),
                                   lambda: _flat_loop(True), _nested_loop])
def test_no_deadline_runs_to_completion(build):
    interp, memory = _run(build(), None)
    interp.run()
    assert memory.array("a").data.all()
