"""The NICE client library (§3.2, §5 Request Routing).

The client addresses the *virtual* storage system: it hashes the object
name, finds the responsible vnode, and fires a UDP request at the vnode
address — the unicast vring for gets, the multicast vring for puts (with
the object data on the reliable multicast transport).  Replies arrive on a
client-side TCP socket.  Failed operations are retried after a fixed
back-off (Fig 11 uses 2 s); retried puts reuse the original client
timestamp, so commits are idempotent across retries (§4.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..net import Host, IPv4Address
from ..sim import AnyOf, Counter, Event, Simulator, Tally
from ..transport import MulticastSender, ProtocolStack
from .config import (
    CLIENT_PORT,
    ClusterConfig,
    GET_PORT,
    PUT_PORT,
    REQUEST_BYTES,
)
from .vring import VirtualRing

__all__ = ["NiceClient", "OpResult"]


class OpResult:
    """Outcome of one client operation."""

    __slots__ = ("ok", "latency", "retries", "value", "status")

    def __init__(self, ok: bool, latency: float, retries: int, value=None, status=""):
        self.ok = ok
        self.latency = latency
        self.retries = retries
        self.value = value
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover
        return f"<OpResult {'ok' if self.ok else self.status} {self.latency * 1e3:.3f}ms>"


class NiceClient:
    """One client machine's NICEKV library instance."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: ClusterConfig,
        unicast_vring: VirtualRing,
        multicast_vring: VirtualRing,
    ):
        self.sim = sim
        self.host = host
        self.config = config
        self.uni = unicast_vring
        self.mc = multicast_vring
        self.stack = ProtocolStack(sim, host)
        self.mc_sender = MulticastSender(self.stack)
        self._reply_inbox = self.stack.tcp.listen(CLIENT_PORT)
        self._waiters: Dict[Tuple, Event] = {}
        self._op_seq = itertools.count(1)
        self.put_latency = Tally(f"{host.name}.put")
        self.get_latency = Tally(f"{host.name}.get")
        self.failures = Counter(f"{host.name}.failures")
        self.retries = Counter(f"{host.name}.retries")
        #: Optional :class:`~repro.check.HistoryRecorder`; when set, every
        #: op is captured with invoke/return stamps for consistency checks.
        self.recorder = None
        sim.process(self._reply_loop())

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    def _traced(self, kind: str, key: str, value, gen):
        if self.recorder is not None:
            gen = self.recorder.record(self.host.name, kind, key, value, self.sim, gen)
        return self.sim.process(gen)

    def _reply_loop(self):
        while True:
            msg = yield self._reply_inbox.get()
            body = msg.payload or {}
            op_id = tuple(body.get("op_id", ()))
            waiter = self._waiters.pop(op_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(body)
            # Late duplicates (replies to retried ops) are dropped.

    def _new_op(self) -> Tuple:
        return (str(self.ip), next(self._op_seq))

    # -- public API -----------------------------------------------------------
    def put(self, key: str, value, size: int, max_retries: int = 3):
        """Store ``value`` under ``key``; returns a Process → :class:`OpResult`."""
        return self._traced("put", key, value, self._put(key, value, size, max_retries))

    def get(self, key: str, max_retries: int = 3):
        """Fetch ``key``; returns a Process → :class:`OpResult`."""
        return self._traced("get", key, None, self._get(key, max_retries))

    def put_anyk(self, key: str, value, size: int, quorum: int):
        """Quorum-mode put (§5): the reliable any-k multicast returns when
        ``quorum`` replicas hold the data; no 2PC round (Fig 8's NICE side)."""
        return self._traced("put", key, value, self._put_anyk(key, value, size, quorum))

    # -- implementations ----------------------------------------------------------
    def _put(self, key: str, value, size: int, max_retries: int):
        t0 = self.sim.now
        client_ts = self.sim.now  # reused across retries: idempotence token
        vaddr = self.mc.vnode_for_key(key)
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("vnode_resolve", "client", node=self.host.name,
                       key=key, vnode=str(vaddr), kind="put")
        for attempt in range(max_retries + 1):
            op_id = self._new_op()
            span = None
            if tr is not None:
                span = tr.begin("put", "op", node=self.host.name, op=op_id,
                                key=key, attempt=attempt)
            waiter = Event(self.sim)
            self._waiters[op_id] = waiter
            self.mc_sender.send(
                vaddr,
                PUT_PORT,
                {
                    "type": "put",
                    "op_id": op_id,
                    "key": key,
                    "value": value,
                    "size": size,
                    "client_ip": str(self.ip),
                    "client_ts": client_ts,
                    "client_port": CLIENT_PORT,
                },
                size,
                n_receivers=self.config.replication_level,
                quorum=1,
            )
            got = yield AnyOf(
                self.sim, [waiter, self.sim.timeout(self.config.client_retry_timeout_s)]
            )
            self._waiters.pop(op_id, None)
            replied = waiter in got
            if replied and got[waiter].get("status") == "ok":
                latency = self.sim.now - t0
                self.put_latency.observe(latency)
                if span is not None:
                    span.end(status="ok")
                return OpResult(True, latency, attempt)
            if span is not None:
                span.end(
                    status=got[waiter].get("status", "error") if replied
                    else "timeout"
                )
            if attempt < max_retries:
                self.retries.add()
                if replied:
                    # A rejection (e.g. an aborted 2PC) arrives well before
                    # the retry timeout fires; without this wait the client
                    # re-multicasts in the same sim instant, so a rejecting
                    # replica set sees max_retries+1 puts in zero sim time.
                    yield self.sim.timeout(self.config.client_retry_timeout_s)
        self.failures.add()
        return OpResult(False, self.sim.now - t0, max_retries, status="timeout")

    def _resolve_get_route(self, key: str, attempt: int):
        """Vnode address for one get attempt.

        Attempt 0 is the canonical hash-resolved vnode.  Retries
        *re-resolve*: they rotate deterministically to a different vnode
        address of the same subgroup, so a retry never re-presents the
        byte-identical header tuple its failed predecessor used — the
        switches must classify it against their *current* tables instead
        of serving whatever per-flow state (in-flight buffered copies) the
        pre-flap/pre-reconcile route left behind.  The subgroup — and
        therefore the partition and every rule that can match — is
        unchanged; only the flow identity moves.
        """
        vaddr = self.uni.vnode_for_key(key)
        if attempt == 0:
            return vaddr
        prefix = self.uni.subgroup_prefix(self.uni.subgroup_of_key(key))
        offset = (vaddr - prefix.address + attempt) % prefix.num_addresses
        return prefix.address + offset

    def _get(self, key: str, max_retries: int):
        t0 = self.sim.now
        tr = self.sim.tracer
        for attempt in range(max_retries + 1):
            vaddr = self._resolve_get_route(key, attempt)
            if tr is not None:
                tr.instant("vnode_resolve", "client", node=self.host.name,
                           key=key, vnode=str(vaddr), kind="get",
                           attempt=attempt)
            op_id = self._new_op()
            span = None
            if tr is not None:
                span = tr.begin("get", "op", node=self.host.name, op=op_id,
                                key=key, attempt=attempt)
            waiter = Event(self.sim)
            self._waiters[op_id] = waiter
            self.stack.udp_send(
                vaddr,
                GET_PORT,
                {
                    "type": "get",
                    "op_id": op_id,
                    "key": key,
                    "client_ip": str(self.ip),
                    "client_port": CLIENT_PORT,
                },
                REQUEST_BYTES,
            )
            got = yield AnyOf(
                self.sim, [waiter, self.sim.timeout(self.config.client_retry_timeout_s)]
            )
            self._waiters.pop(op_id, None)
            replied = waiter in got
            if replied:
                body = got[waiter]
                status = body.get("status", "error")
                latency = self.sim.now - t0
                if status == "ok":
                    self.get_latency.observe(latency)
                    if span is not None:
                        span.end(status="ok")
                    return OpResult(True, latency, attempt, value=body.get("value"))
                if status == "miss":
                    # An authoritative miss is an answer (the checker reads
                    # it as "initial value"), not a failure to reach the
                    # store — returned as-is, no retry.
                    if span is not None:
                        span.end(status="miss")
                    return OpResult(False, latency, attempt, status="miss")
            if span is not None:
                span.end(
                    status=got[waiter].get("status", "error") if replied
                    else "timeout"
                )
            if attempt < max_retries:
                self.retries.add()
                if replied:
                    # Mirror of _put: an early error reply must still honor
                    # the fixed back-off before the next attempt.
                    yield self.sim.timeout(self.config.client_retry_timeout_s)
        self.failures.add()
        return OpResult(False, self.sim.now - t0, max_retries, status="timeout")

    def _put_anyk(self, key: str, value, size: int, quorum: int):
        t0 = self.sim.now
        vaddr = self.mc.vnode_for_key(key)
        op_id = self._new_op()
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("put_anyk", "op", node=self.host.name, op=op_id,
                            key=key, quorum=quorum)
        sender = self.mc_sender.send(
            vaddr,
            PUT_PORT,
            {
                "type": "put_anyk",
                "op_id": op_id,
                "key": key,
                "value": value,
                "size": size,
                "client_ip": str(self.ip),
                "client_ts": t0,
                "client_port": CLIENT_PORT,
            },
            size,
            n_receivers=self.config.replication_level,
            quorum=quorum,
        )
        # Same timeout contract as _put: if quorum replicas are unreachable
        # (crash/partition) the reliable multicast never completes — without
        # this bound the op would hang forever and still report ok=True.
        got = yield AnyOf(
            self.sim, [sender, self.sim.timeout(self.config.client_retry_timeout_s)]
        )
        if sender not in got:
            self.failures.add()
            if span is not None:
                span.end(status="timeout")
            return OpResult(False, self.sim.now - t0, 0, status="timeout")
        acks = got[sender]
        latency = self.sim.now - t0
        self.put_latency.observe(latency)
        if span is not None:
            span.end(status="ok", acks=len(acks))
        return OpResult(True, latency, 0, value=len(acks))
