"""Turn measured cases (and, for a traced run, the span totals) into the
benchmark's end-to-end and per-layer metrics."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from .stats import median, nearest_rank, share, tail_percentile

#: A get that finds no object is an answer, not a failure.
SUCCESS = ("ok", "miss")

def succeeded(op) -> bool:
    return op.completed and op.status in SUCCESS


def failed_count(ops: Sequence) -> int:
    """Ops that errored, timed out or never returned."""
    return sum(1 for op in ops if not succeeded(op))


def unsafe_count(verdicts: Iterable[Dict]) -> int:
    """Cases the checker rejected or could not decide."""
    return sum(1 for v in verdicts if v["unsafe"])


def latencies_ms(ops: Iterable, kind: str) -> List[float]:
    return [(op.return_ts - op.invoke_ts) * 1e3 for op in ops
            if op.kind == kind and succeeded(op)]


def _sum(counters: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(cases: Sequence, peak_rss_mb: float) -> Tuple[Dict[str, float], List[str]]:
    """The ten user-facing metrics, plus notes on the samples behind them."""
    ops = [op for c in cases for op in c.ops]
    done = sum(1 for op in ops if op.completed)
    verdicts = [c.verdict for c in cases if c.verdict is not None]
    metrics = {
        "host_ops_per_s": median(sum(op.completed for op in c.ops) / c.host_s for c in cases),
        "setup_s": median(c.setup_s for c in cases),
        "peak_rss_mb": peak_rss_mb,
        "modeled_ops_per_s": done / sum(c.sim_s for c in cases),
        "ok_frac": 1.0 - share(failed_count(ops), len(ops)),
        # Where no checker runs, no case can be unsafe.
        "safe_frac": 1.0 - share(unsafe_count(verdicts), len(verdicts)) if verdicts else 1.0,
    }
    notes = []
    for kind in ("get", "put"):
        samples = latencies_ms(ops, kind)
        metrics[f"{kind}_ms_p50"] = median(samples)
        value, q, n = tail_percentile(samples)
        metrics[f"{kind}_ms_p99"] = value
        notes.append(f"{kind}_ms_p99 is p{q:.2f} of {n} samples")
    notes.append("unpaced: host_ops_per_s %.6g, setup_s %.6g" % (
        median(sum(op.completed for op in c.ops) / c.raw_host_s for c in cases),
        median(c.raw_setup_s for c in cases)))
    notes.append(f"{len(ops)} simulated ops in {len(cases)} cases, "
                 f"{failed_count(ops)} failed, {unsafe_count(verdicts)} unsafe of "
                 f"{len(verdicts)} checked")
    return metrics, notes


def per_layer(cases: Sequence, tracer, overhead: float) -> Dict[str, float]:
    """Per-layer counts from the simulated counters and self times from the
    traced pass (``tracer``)."""
    ops = [op for c in cases for op in c.ops]
    done = sum(1 for op in ops if op.completed)
    puts_ok = sum(1 for op in ops if op.kind == "put" and succeeded(op))
    put_bytes = sum(c.object_bytes * sum(1 for op in c.ops if op.kind == "put" and succeeded(op))
                    for c in cases)
    events = sum(c.events for c in cases)

    def counter(prefix: str, suffix: str) -> float:
        return sum(_sum(c.counters, prefix, suffix) for c in cases)

    def output(name: str) -> float:
        return sum(c.outputs[name] for c in cases)

    hits, misses = output("flow_cache_hits"), output("flow_cache_misses")
    verdicts = [c.verdict for c in cases if c.verdict is not None]
    lin_s = sorted(v["lin_s"] for v in verdicts)
    checked_ops = sum(len(c.ops) for c in cases if c.verdict is not None)
    lookups = tracer.calls("net.lookup")
    return {
        "sim.events_per_op": _ratio(events, done),
        "sim.us_per_event": _ratio(sum(c.sim_host_s for c in cases) * 1e6, events),
        "sim.self_s": tracer.self_s("sim"),
        "net.lookups_per_op": _ratio(lookups, done),
        "net.lookup_us": _ratio(tracer.inclusive_s("net.lookup") * 1e6, lookups),
        "net.lookup_s": tracer.self_s("net.lookup"),
        "net.cache_hit_rate": _ratio(hits, hits + misses),
        "net.rules_max": max(c.outputs["rules_max"] for c in cases),
        "net.switch_self_s": tracer.self_s("net.switch"),
        "net.transmits_per_op": _ratio(tracer.calls("net.link"), done),
        "net.link_s": tracer.self_s("net.link"),
        "net.host_s": tracer.self_s("net.host"),
        "net.link_bytes_per_op": _ratio(counter("link.", ".tx_bytes"), done),
        "net.packet_ins": counter("switch.", ".table_misses"),
        "transport.calls_per_op": _ratio(tracer.calls("transport"), done),
        "transport.self_s": tracer.self_s("transport"),
        "kv.self_s": tracer.self_s("kv"),
        "kv.disk_bytes_per_put_byte": _ratio(counter("node.", ".disk.bytes_written"), put_bytes),
        "kv.flushes_per_put": _ratio(counter("node.", ".disk.flushes"), puts_ok),
        "kv.wal_appends_per_put": _ratio(counter("node.", ".wal.appended"), puts_ok),
        "core.build_s": tracer.inclusive_s("core.build"),
        "core.warm_s": tracer.inclusive_s("core.warm"),
        "core.controller_s": tracer.self_s("core.controller"),
        "core.plan_recomputes": output("plan_recomputes"),
        "core.retries_per_op": _ratio(counter("client.", ".retries"), len(ops)),
        "core.failures_declared": output("failures_declared"),
        "core.rejoins_completed": output("rejoins_completed"),
        "core.failed_frac": share(failed_count(ops), len(ops)),
        # The checker runs on chaos-check only; elsewhere these read 0.
        "check.lin_s_p50": median(lin_s) if lin_s else 0.0,
        "check.lin_s_p90": nearest_rank(lin_s, math.ceil(0.9 * len(lin_s))) if lin_s else 0.0,
        "check.mono_s": median(v["mono_s"] for v in verdicts) if verdicts else 0.0,
        "check.states_per_op": _ratio(sum(v["states"] for v in verdicts), checked_ops),
        "check.inconclusive": sum(1 for v in verdicts if v["inconclusive"]),
        "check.unsafe_frac": share(unsafe_count(verdicts), len(verdicts)) if verdicts else 0.0,
        "chaos.faults": sum(c.faults for c in cases),
        "trace_overhead": overhead,
    }
