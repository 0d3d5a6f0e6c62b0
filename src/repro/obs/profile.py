"""``repro profile`` — render a trace as a per-phase time tree.

Spans reconstruct the call hierarchy (kernel → loop analysis → model
build → per-array testing); ``solver_check`` events attach the solver's
translate/clausify/search phase split to the span they ran under. The
views that come out:

* the **span tree** — every span path with call count, total wall
  time, and the solver phase seconds spent directly inside it;
* the **context table** — exploitation-question time grouped by
  control-flow context path, the "where does solver time go as the
  incremental pipeline evolves" view;
* the **worker lanes** — per-``worker_id`` activity of a distributed
  (``analyze --jobs``) trace: events, questions, solver checks, and
  in-solver seconds on each worker's normalized timeline;
* the **utilization table** — busy/idle seconds per worker from the
  scheduler's registry counters (the "why is the 1-CPU speedup 0.79x"
  view);
* the **critical path** — the longest chain of nested spans, the lower
  bound no amount of extra workers can beat;
* the **audit accounting** — the ``audit.*`` counters of a ``repro
  audit`` trace, inline or ``--jobs``: units settled per status,
  confirmed violations, the classification tally, retries, respawns;
* the **slowest audit units** — the ``audit_case`` events with the
  longest run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class SpanNode:
    """Aggregated statistics of one span path in the tree."""

    name: str
    count: int = 0
    total_s: float = 0.0
    translate_s: float = 0.0
    clausify_s: float = 0.0
    search_s: float = 0.0
    checks: int = 0
    children: Dict[str, "SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node


def _span_label(event: dict) -> str:
    attrs = event.get("attrs") or {}
    detail = ",".join(str(v) for k, v in sorted(attrs.items())
                      if k in ("loop", "array", "kernel", "variant", "proc"))
    return f"{event['name']}{{{detail}}}" if detail else event["name"]


def build_span_tree(events: Sequence[dict]) -> SpanNode:
    """Fold a trace's span and solver_check events into one tree."""
    root = SpanNode("trace")
    nodes: Dict[int, SpanNode] = {}          # open span id -> node
    parents: Dict[int, Optional[int]] = {}
    for event in events:
        etype = event["type"]
        if etype == "span_begin":
            parent = event["parent"]
            holder = nodes[parent] if parent in nodes else root
            node = holder.child(_span_label(event))
            node.count += 1
            nodes[event["id"]] = node
            parents[event["id"]] = parent
        elif etype == "span_end":
            node = nodes.pop(event["id"], None)
            parents.pop(event["id"], None)
            if node is not None:
                node.total_s += event["dur_s"]
        elif etype == "solver_check":
            node = nodes.get(event["span"])
            if node is None:
                node = root
            node.checks += 1
            node.translate_s += event["translate_s"]
            node.clausify_s += event["clausify_s"]
            node.search_s += event["search_s"]
    return root


def _render_node(node: SpanNode, indent: str, lines: List[str]) -> None:
    phases = ""
    if node.checks:
        phases = (f"  [checks {node.checks} | translate "
                  f"{node.translate_s * 1000:.1f} ms | clausify "
                  f"{node.clausify_s * 1000:.1f} ms | search "
                  f"{node.search_s * 1000:.1f} ms]")
    lines.append(f"{indent}{node.name}  x{node.count}  "
                 f"{node.total_s * 1000:.1f} ms{phases}")
    for child in node.children.values():
        _render_node(child, indent + "  ", lines)


def context_table(events: Sequence[dict]) -> List[Tuple[str, int, int, float]]:
    """(context path, questions, memo hits, seconds) rows, slowest first."""
    rows: Dict[str, List[float]] = {}
    for event in events:
        if event["type"] != "question":
            continue
        row = rows.setdefault(event["context"], [0, 0, 0.0])
        row[0] += 1
        row[1] += 1 if event["memo_hit"] else 0
        row[2] += event["dur_s"]
    out = [(ctx, int(r[0]), int(r[1]), r[2]) for ctx, r in rows.items()]
    out.sort(key=lambda r: (-r[3], r[0]))
    return out


def resilience_table(events: Sequence[dict]) -> List[Tuple[str, int]]:
    """Resilience tallies of one trace, empty when nothing happened:
    UNKNOWN questions by structured reason (timeout / budget /
    solver-unknown — docs/RESILIENCE.md), escalation retries,
    store-answered questions/loops, degraded loops, and worker
    outcomes."""
    counts: Dict[str, int] = {}

    def bump(name: str, by: int = 1) -> None:
        counts[name] = counts.get(name, 0) + by

    for event in events:
        etype = event["type"]
        if etype == "question":
            if event.get("reason"):
                bump(f"unknown[{event['reason']}]")
            if event.get("attempts", 1) > 1:
                bump("escalated questions")
            if event.get("cached"):
                bump("cached questions")
        elif etype == "degraded":
            bump(f"degraded loops[{event.get('phase', '?')}]")
        elif etype == "worker" and event.get("status") != "ok":
            bump(f"workers[{event.get('status', '?')}]")
        elif etype == "cached":
            bump("cached loops")
    return sorted(counts.items())


def worker_lanes(events: Sequence[dict]
                 ) -> List[Tuple[str, int, int, int, float, float, float]]:
    """Per-worker activity rows of a distributed trace:
    ``(worker_id, events, questions, checks, solver_s, first_t,
    last_t)``, sorted by worker id — empty when no event carries a
    ``worker_id`` (a single-process trace)."""
    lanes: Dict[str, List[float]] = {}
    for event in events:
        wid = event.get("worker_id")
        if wid is None:
            continue
        lane = lanes.setdefault(str(wid), [0, 0, 0, 0.0, float("inf"), 0.0])
        lane[0] += 1
        etype = event["type"]
        if etype == "question":
            lane[1] += 1
        elif etype == "solver_check":
            lane[2] += 1
            lane[3] += event.get("dur_s", 0.0)
        t = event.get("t")
        if isinstance(t, (int, float)):
            lane[4] = min(lane[4], t)
            lane[5] = max(lane[5], t)
    return [(wid, int(l[0]), int(l[1]), int(l[2]), l[3],
             (0.0 if l[4] == float("inf") else l[4]), l[5])
            for wid, l in sorted(lanes.items())]


def utilization_table(events: Sequence[dict]
                      ) -> List[Tuple[str, float, float, float]]:
    """``(worker_id, busy_s, idle_s, utilization)`` rows from the
    scheduler's ``worker.<id>.busy_seconds``/``idle_seconds`` registry
    counters (carried by the final ``metrics`` event)."""
    counters: Dict[str, float] = {}
    for event in events:
        if event["type"] == "metrics":
            counters = event.get("counters") or {}
    busy: Dict[str, float] = {}
    idle: Dict[str, float] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "worker":
            if parts[2] == "busy_seconds":
                busy[parts[1]] = float(value)
            elif parts[2] == "idle_seconds":
                idle[parts[1]] = float(value)
    rows = []
    for wid in sorted(set(busy) | set(idle)):
        b, i = busy.get(wid, 0.0), idle.get(wid, 0.0)
        rows.append((wid, b, i, (b / (b + i) if b + i > 0 else 0.0)))
    return rows


def audit_table(events: Sequence[dict]) -> List[Tuple[str, float]]:
    """The soundness-accounting rows of a ``repro audit`` trace: the
    ``audit.*`` registry counters (cases settled per status,
    violations, classification histogram, retries, worker respawns,
    cases/sec) carried by the final ``metrics`` event. Empty for
    non-audit traces."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for event in events:
        if event["type"] == "metrics":
            counters = event.get("counters") or {}
            gauges = event.get("gauges") or {}
    rows = [(name, float(value)) for name, value in counters.items()
            if name.startswith("audit.")]
    rows += [(name, float(value)) for name, value in gauges.items()
             if name.startswith("audit.")]
    return sorted(rows)


def slowest_units(events: Sequence[dict], limit: int = 10
                  ) -> List[Tuple[str, str, float]]:
    """``(case, family, dur_s)`` of the *limit* slowest settled units
    of an audit trace, slowest first. Empty for other traces, and for
    audit traces older than the ``dur_s`` field."""
    rows = [(str(e["case"]), str(e["family"]), float(e["dur_s"]))
            for e in events
            if e["type"] == "audit_case" and "dur_s" in e]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:limit]


def critical_path(events: Sequence[dict]) -> List[Tuple[int, str, float]]:
    """The longest root-to-leaf chain of nested spans:
    ``(depth, label, dur_s)`` rows, outermost first. Every span keeps
    its own wall time (children overlap it), so the chain reads as
    "the run is at least as long as its head, and inside it the
    slowest child, and so on" — the serial backbone parallelism cannot
    remove."""
    spans: Dict[int, dict] = {}
    children: Dict[Optional[int], List[int]] = {}
    for event in events:
        if event["type"] == "span_begin":
            spans[event["id"]] = {"label": _span_label(event),
                                  "parent": event["parent"], "dur": 0.0}
            children.setdefault(event["parent"], []).append(event["id"])
        elif event["type"] == "span_end" and event["id"] in spans:
            spans[event["id"]]["dur"] = event["dur_s"]

    path: List[Tuple[int, str, float]] = []
    candidates = children.get(None, [])
    depth = 0
    while candidates:
        sid = max(candidates, key=lambda s: spans[s]["dur"])
        path.append((depth, spans[sid]["label"], spans[sid]["dur"]))
        candidates = children.get(sid, [])
        depth += 1
    return path


def format_profile(events: Sequence[dict]) -> str:
    """The full ``repro profile`` rendering of one trace."""
    lines: List[str] = ["span tree (count, wall time, solver phases):"]
    root = build_span_tree(events)
    if not root.children and not root.checks:
        lines.append("  (no spans recorded)")
    for child in root.children.values():
        _render_node(child, "  ", lines)
    if root.checks:
        lines.append(f"  (outside any span)  checks {root.checks}  "
                     f"[translate {root.translate_s * 1000:.1f} ms | "
                     f"clausify {root.clausify_s * 1000:.1f} ms | "
                     f"search {root.search_s * 1000:.1f} ms]")
    rows = context_table(events)
    if rows:
        lines.append("")
        lines.append("exploitation-question time by control context:")
        width = max(len(r[0]) for r in rows)
        lines.append(f"  {'context':<{width}}  {'questions':>9} "
                     f"{'memo':>5} {'time':>10}")
        for ctx, count, memo, seconds in rows:
            lines.append(f"  {ctx:<{width}}  {count:>9d} {memo:>5d} "
                         f"{seconds * 1000.0:>7.2f} ms")
    lanes = worker_lanes(events)
    if lanes:
        lines.append("")
        lines.append("worker lanes (distributed trace):")
        lines.append(f"  {'worker':<8} {'events':>7} {'questions':>9} "
                     f"{'checks':>7} {'solver':>10} {'lane':>19}")
        for wid, count, questions, checks, solver_s, first, last in lanes:
            lines.append(
                f"  {wid:<8} {count:>7d} {questions:>9d} {checks:>7d} "
                f"{solver_s * 1000.0:>7.2f} ms "
                f"{first:>8.3f}s..{last:<8.3f}s")
    utilization = utilization_table(events)
    if utilization:
        lines.append("")
        lines.append("worker utilization (busy vs idle in the pool):")
        lines.append(f"  {'worker':<8} {'busy':>10} {'idle':>10} "
                     f"{'util':>6}")
        for wid, busy, idle, util in utilization:
            lines.append(f"  {wid:<8} {busy:>9.3f}s {idle:>9.3f}s "
                         f"{util * 100.0:>5.1f}%")
    path = critical_path(events)
    if path:
        lines.append("")
        lines.append("critical path (longest chain of nested spans):")
        for depth, label, dur_s in path:
            lines.append(f"  {'  ' * depth}{label}  "
                         f"{dur_s * 1000.0:.1f} ms")
    resilience = resilience_table(events)
    if resilience:
        lines.append("")
        lines.append("resilience (timeouts, degradation, recovery):")
        for name, value in resilience:
            lines.append(f"  {name} = {value}")
    audit = audit_table(events)
    if audit:
        lines.append("")
        lines.append("soundness audit accounting:")
        for name, value in audit:
            rendered = int(value) if value == int(value) else round(value, 3)
            lines.append(f"  {name} = {rendered}")
    units = slowest_units(events)
    if units:
        lines.append("")
        lines.append("slowest audit units (run time per unit):")
        width = max(len(case) for case, _, _ in units)
        for case, family, dur_s in units:
            lines.append(f"  {case:<{width}}  {dur_s * 1000.0:>9.1f} ms  "
                         f"{family}")
    for event in events:
        if event["type"] == "metrics" and event["counters"]:
            lines.append("")
            lines.append("counters:")
            for name, value in event["counters"].items():
                lines.append(f"  {name} = {value}")
    return "\n".join(lines)
