"""Per-layer host-time tracing from outside the program.

:class:`SpanTracer` replaces public methods of the simulator's classes
with timing wrappers for the length of a ``with`` block and restores the
originals afterwards; nothing under ``src/`` changes.  Every wrapped call
is a span.  A span's *self time* is its duration minus the durations of
the wrapped calls made beneath it, so a layer's self times add up to the
host time spent in that layer's own code.  Work a wrapped call schedules
on the event kernel runs later, under ``Simulator.run``, and counts as
kernel self time there: event callbacks and process bodies cannot be
split from outside the program.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, module, class or None for a module function, attributes)``.
#: The layer names are the per-layer metric prefixes; ``core.build`` and
#: ``core.warm`` are reported inclusive, every other layer as self time.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", ("run", "run_until")),
    ("net.lookup", "repro.net.flowtable", "FlowTable", ("lookup",)),
    ("net.switch", "repro.net.switch", "OpenFlowSwitch", ("handle_packet", "apply_actions")),
    ("net.link", "repro.net.link", "Channel", ("transmit",)),
    ("net.host", "repro.net.host", "Host", ("send", "handle_packet")),
    ("transport", "repro.transport.reliable_multicast", "MulticastSender", ("send",)),
    ("transport", "repro.transport.tcp", "TcpLayer", ("send_message",)),
    ("transport", "repro.transport.sockets", "ProtocolStack", ("udp_send", "deliver")),
    ("kv", "repro.kv.disk", "Disk", ("write", "read")),
    ("kv", "repro.kv.wal", "WriteAheadLog", ("append",)),
    ("kv", "repro.kv.store", "ObjectStore", ("put", "get")),
    ("kv", "repro.kv.locks", "LockTable",
     ("acquire", "request", "release", "cancel", "force_release")),
    ("core.build", "repro.core.system", "NiceCluster", ("__init__",)),
    ("core.warm", "repro.core.system", "NiceCluster", ("warm_up",)),
    ("core.controller", "repro.core.controller", "NiceControllerApp",
     ("sync_all", "sync_partition", "reconcile", "on_packet_in")),
    ("check", "repro.check", None, ("check_linearizable", "check_monotonic")),
)

#: Spans kept for the written trace; totals cover every span regardless.
SPAN_CAP = 20_000


class SpanTracer:
    """Self-time accounting over wrapped callables.

    ``clock`` is injectable so tests can drive nested spans by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: label -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        #: ``(label, start, end, depth)`` of the first :data:`SPAN_CAP` spans.
        self.spans: List[Tuple[str, float, float, int]] = []
        self._child_time: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn: Callable, label: str, layer: str) -> Callable:
        """A timing wrapper around ``fn`` that books its spans to ``label``."""
        self.layer_of[label] = layer
        stats = self.totals.setdefault(label, [0, 0.0, 0.0])
        clock = self.clock
        child_time = self._child_time
        spans = self.spans

        def timed(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                below = child_time.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - below
                if child_time:
                    child_time[-1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((label, start, end, len(child_time)))

        timed.__wrapped__ = fn
        return timed

    def install(self, targets=TARGETS) -> "SpanTracer":
        for layer, module_name, class_name, attrs in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                # Restore exactly what the owner held itself: an inherited
                # method is removed again rather than pinned on the class.
                own = vars(owner).get(attr)
                self._restore.append((owner, attr, own))
                label = f"{class_name}.{attr}" if class_name else f"{module_name}.{attr}"
                setattr(owner, attr, self.wrap(getattr(owner, attr), label, layer))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, own = self._restore.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------
    def _layer_sum(self, layer: str, field: int) -> float:
        return sum(s[field] for label, s in self.totals.items()
                   if self.layer_of[label] == layer)

    def calls(self, layer: str) -> int:
        return int(self._layer_sum(layer, 0))

    def inclusive_s(self, layer: str) -> float:
        return self._layer_sum(layer, 1)

    def self_s(self, layer: str) -> float:
        return self._layer_sum(layer, 2)

    def write(self, path, **meta) -> None:
        """Write totals and the kept spans (Chrome trace-event format)."""
        t0 = min((start for _, start, _, _ in self.spans), default=0.0)
        events = [
            {"name": label, "cat": self.layer_of[label], "ph": "X", "pid": 0,
             "tid": 0, "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"depth": depth}}
            for label, start, end, depth in self.spans
        ]
        totals = {
            label: {"layer": self.layer_of[label], "calls": int(s[0]),
                    "inclusive_s": s[1], "self_s": s[2]}
            for label, s in sorted(self.totals.items())
        }
        with open(path, "w") as fh:
            json.dump({"meta": meta, "totals": totals, "traceEvents": events}, fh)
