"""Per-layer spans recorded from outside the program.

:func:`traced` patches the names the engine actually calls (class methods,
and module-level names in the ``vanetim.netsim``, ``vanetim.protocol`` and
``vanetim.cli`` namespaces) with wrappers that record one span per call:
name, start, end and parent span. Spans stay in memory; a layer's self
time is its spans' durations minus the durations of their direct child
spans. The simulator is single-threaded, so no layer ever waits on
another and there is no wait time to report.

An entry point that no longer exists is reported as missing and skipped.
Test-only module functions (``vanetim.mobility.step``,
``vanetim.netsim.broadcast``, ``vanetim.metrics.count``, ...) are never
wrapped: the engine does not call them.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: the nine protocol handlers netsim imports by name; summed as protocol.handlers
HANDLERS = (
    "relay_decision", "handle_rsu", "handle_official", "handle_rsu_timer",
    "handle_official_timer", "handle_ta", "handle_ta_timer",
    "handle_service_query", "rsu_scripted_resolution",
)


@dataclass(frozen=True)
class EntryPoint:
    span: str      # span name
    owner: str     # "module" or "module:Class" whose attribute is patched
    attr: str


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("mobility.step", "vanetim.mobility:CircularWorld", "step"),
    EntryPoint("mobility.neighbours_within", "vanetim.mobility:CircularWorld",
               "neighbours_within"),
    EntryPoint("domain.relayed_copy", "vanetim.netsim", "relayed_copy"),
    EntryPoint("netsim.broadcast", "vanetim.netsim:Engine", "broadcast"),
    EntryPoint("netsim.wired_send", "vanetim.netsim:Engine", "wired_send"),
    EntryPoint("netsim.run", "vanetim.netsim:Engine", "run"),
    *(EntryPoint(f"protocol.{name}", "vanetim.netsim", name) for name in HANDLERS),
    EntryPoint("relay.should_relay", "vanetim.protocol", "should_relay"),
    EntryPoint("metrics.count", "vanetim.metrics:TrialMetrics", "count"),
    EntryPoint("netsim.write_trace", "vanetim.cli", "write_trace"),
    EntryPoint("scenarios.check_conformance", "vanetim.cli", "check_conformance"),
    EntryPoint("metrics.export_csv", "vanetim.cli", "export_csv"),
)


class SpanRecorder:
    """Spans in parallel arrays: name index, parent span index, start, end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self.counters: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span per call; ``after(self, args, result)`` runs
        outside the span, for counts taken from arguments or results. A
        count that no longer fits the call's arguments or result is skipped
        and tallied as ``<name>.uncounted``."""
        nid = self.name_id(name)
        open_, clock = self._open, self.clock
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError):  # the boundary changed shape
                    self.add(f"{name}.uncounted", 1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name_of:
            counts[nid] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.name_of[i]] += self.end[i] - self.start[i] - child[i]
        return {name: totals[i] for i, name in enumerate(self.names)}

    def clear(self) -> None:
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("span,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                handle.write(f"{i},{self.names[self.name_of[i]]},{self.parent[i]},"
                             f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


# ---------------------------------------------------------------------------
# counts taken at the boundaries, outside the spans


def _count_scanned(rec: SpanRecorder, args, result) -> None:
    world = args[0]
    rec.add("neighbours_within.returned", len(result))
    rec.add("neighbours_within.scanned", len(world.entities()) - 1)


def _count_deliveries(rec: SpanRecorder, args, result) -> None:
    rec.add("broadcast.deliveries", len(result))


def _count_admitted(rec: SpanRecorder, args, result) -> None:
    rec.add("relay_decision.admitted",
            sum(1 for action in result if type(action).__name__ == "Broadcast"))


AFTER = {
    "mobility.neighbours_within": _count_scanned,
    "netsim.broadcast": _count_deliveries,
    "protocol.relay_decision": _count_admitted,
}


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(target, class_name, None) if class_name else target


@contextlib.contextmanager
def traced(rec: SpanRecorder,
           entry_points: Tuple[EntryPoint, ...] = ENTRY_POINTS,
           on_run: Optional[Callable] = None) -> Iterator[List[str]]:
    """Install wrappers for the block; yields the names found missing.

    ``on_run(result)`` is called with every ``Engine.run`` return value.
    """
    missing: List[str] = []
    restore: List[Tuple[object, str, object, bool]] = []
    try:
        for ep in entry_points:
            owner = _resolve_owner(ep.owner)
            fn = getattr(owner, ep.attr, None) if owner is not None else None
            if fn is None:
                missing.append(ep.span)
                continue
            after = AFTER.get(ep.span)
            if ep.span == "netsim.run" and on_run is not None:
                after = lambda _rec, _args, result: on_run(result)  # noqa: E731
            # an inherited method is removed again, not copied onto the subclass
            put_back = not isinstance(owner, type) or ep.attr in vars(owner)
            restore.append((owner, ep.attr, fn, put_back))
            setattr(owner, ep.attr, rec.wrap(ep.span, fn, after))
        yield missing
    finally:
        for owner, attr, fn, put_back in reversed(restore):
            if put_back:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(calls: Dict[str, int], self_s: Dict[str, float],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    handlers = [f"protocol.{h}" for h in HANDLERS]
    broadcasts = c("netsim.broadcast")
    deliveries = counters.get("broadcast.deliveries", 0)
    return {
        "mobility.step.calls": c("mobility.step"),
        "mobility.step.self_s": s("mobility.step"),
        "mobility.neighbours_within.calls": c("mobility.neighbours_within"),
        "mobility.neighbours_within.self_s": s("mobility.neighbours_within"),
        "mobility.neighbours_within.scan_hit_ratio": _ratio(
            counters.get("neighbours_within.returned", 0),
            counters.get("neighbours_within.scanned", 0)),
        "domain.relayed_copy.calls": c("domain.relayed_copy"),
        "domain.relayed_copy.self_s": s("domain.relayed_copy"),
        "domain.relayed_copy.per_broadcast": _ratio(c("domain.relayed_copy"), broadcasts),
        "netsim.broadcast.calls": broadcasts,
        "netsim.broadcast.self_s": s("netsim.broadcast"),
        "netsim.deliveries": deliveries,
        "netsim.fanout": _ratio(deliveries, broadcasts),
        "netsim.wired_send.calls": c("netsim.wired_send"),
        "netsim.wired_send.self_s": s("netsim.wired_send"),
        "netsim.run.calls": c("netsim.run"),
        "netsim.run.self_s": s("netsim.run"),
        "protocol.handlers.calls": sum(c(h) for h in handlers),
        "protocol.handlers.self_s": sum(s(h) for h in handlers),
        "protocol.relay_decision.calls": c("protocol.relay_decision"),
        "protocol.relay_decision.admit_ratio": _ratio(
            counters.get("relay_decision.admitted", 0), c("protocol.relay_decision")),
        "relay.should_relay.calls": c("relay.should_relay"),
        "relay.should_relay.self_s": s("relay.should_relay"),
        "metrics.count.calls": c("metrics.count"),
        "netsim.write_trace.self_s": s("netsim.write_trace"),
        "scenarios.check_conformance.self_s": s("scenarios.check_conformance"),
        "metrics.export_csv.self_s": s("metrics.export_csv"),
    }
