"""OpenFlow-style flow tables: matches, actions, rules and groups.

This mirrors the OpenFlow 1.3 feature subset the paper uses (§2.2, §5):
prefix wildcards on IP source/destination, exact matches on protocol and
ports, set-field rewrites of destination IP/MAC, unicast output, group
(multicast) output, and send-to-controller.  Rules carry priorities and
optional idle timeouts; the controller owns rule lifecycle.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .addressing import IPv4Address, IPv4Network, MacAddress
from .packet import Packet, Proto

__all__ = [
    "Match",
    "Rule",
    "FlowTable",
    "Group",
    "Bucket",
    "Action",
    "SetIpDst",
    "SetIpSrc",
    "SetEthDst",
    "Output",
    "OutputGroup",
    "ToController",
    "Drop",
    "HarmoniaRead",
]


def _as_network(value: Union[IPv4Address, IPv4Network, str, None]) -> Optional[IPv4Network]:
    if value is None or isinstance(value, IPv4Network):
        return value
    if isinstance(value, IPv4Address):
        return IPv4Network(value, 32)
    if isinstance(value, str):
        return IPv4Network(value) if "/" in value else IPv4Network(IPv4Address(value), 32)
    raise TypeError(f"cannot interpret {value!r} as an IP match")


@dataclass(frozen=True)
class Match:
    """Wildcard match over header fields; ``None`` means "don't care"."""

    in_port: Optional[int] = None
    eth_dst: Optional[MacAddress] = None
    ip_src: Optional[IPv4Network] = None
    ip_dst: Optional[IPv4Network] = None
    proto: Optional[Proto] = None
    dport: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip_src", _as_network(self.ip_src))
        object.__setattr__(self, "ip_dst", _as_network(self.ip_dst))
        # Precompiled (mask, value) int pairs: the flow table's signatures
        # and hash keys are built from them, and ``matches`` uses them so
        # the prefix checks do not pay IPv4Network.__contains__'s dispatch.
        src, dst = self.ip_src, self.ip_dst
        object.__setattr__(self, "_src_mask", None if src is None else src._netmask)
        object.__setattr__(self, "_src_val", None if src is None else src._value)
        object.__setattr__(self, "_dst_mask", None if dst is None else dst._netmask)
        object.__setattr__(self, "_dst_val", None if dst is None else dst._value)

    def matches(self, packet: Packet, in_port: Optional[int] = None) -> bool:
        if self.in_port is not None and in_port != self.in_port:
            return False
        mask = self._dst_mask
        if mask is not None and (packet.dst_ip._value & mask) != self._dst_val:
            return False
        mask = self._src_mask
        if mask is not None and (packet.src_ip._value & mask) != self._src_val:
            return False
        if self.eth_dst is not None and packet.dst_mac != self.eth_dst:
            return False
        if self.proto is not None and packet.proto is not self.proto:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        for name in ("in_port", "eth_dst", "ip_src", "ip_dst", "proto", "dport"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"


class Action:
    """Base class for flow actions (applied in list order)."""

    __slots__ = ()


@dataclass(frozen=True)
class SetIpDst(Action):
    ip: IPv4Address

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", IPv4Address(self.ip))


@dataclass(frozen=True)
class SetIpSrc(Action):
    ip: IPv4Address

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", IPv4Address(self.ip))


@dataclass(frozen=True)
class SetEthDst(Action):
    mac: MacAddress


@dataclass(frozen=True)
class Output(Action):
    port: int


@dataclass(frozen=True)
class OutputGroup(Action):
    group_id: int


@dataclass(frozen=True)
class ToController(Action):
    pass


@dataclass(frozen=True)
class Drop(Action):
    pass


@dataclass(frozen=True)
class HarmoniaRead(Action):
    """Dirty-set-aware replica selection for gets (DESIGN.md §5j).

    ``choices`` holds one pre-planned action tuple per consistent replica
    of ``partition`` (each ends in an :class:`Output`); index 0 is the
    primary.  The switch resolves the choice *per packet* against its
    shared dirty-set registry: clean keys round-robin across all choices,
    dirty (or pinned) keys always take ``choices[0]`` — the conflict-free
    read rule of Harmonia (arXiv 1904.08964) on NICE's vring rules.
    """

    partition: int
    choices: tuple  # tuple of action tuples, primary first


_rule_seq = itertools.count(1)


@dataclass
class Rule:
    """A flow entry: priority + match + actions (+ optional idle timeout)."""

    match: Match
    actions: List[Action]
    priority: int = 100
    idle_timeout: Optional[float] = None
    cookie: str = ""
    seq: int = field(default_factory=lambda: next(_rule_seq))
    packets: int = 0
    bytes: int = 0
    last_used: float = 0.0

    def touch(self, packet: Packet, now: float) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes
        self.last_used = now


def _rule_sort_key(rule: Rule) -> tuple:
    return (-rule.priority, rule.seq)


def _signature(match: Match) -> tuple:
    """Which header fields ``match`` inspects, with its prefix masks.

    Rules that share a signature are found by one hash probe on the
    packet's header values under that signature."""
    return (
        match.in_port is not None,
        match.eth_dst is not None,
        match._src_mask,
        match._dst_mask,
        match.proto is not None,
        match.dport is not None,
    )


def _match_key(match: Match):
    """The index key of ``match``: the values it requires, in signature
    order; a bare value when the signature has one field."""
    parts = []
    if match.in_port is not None:
        parts.append(match.in_port)
    if match.eth_dst is not None:
        parts.append(match.eth_dst)
    if match._src_mask is not None:
        parts.append(match._src_val)
    if match._dst_mask is not None:
        parts.append(match._dst_val)
    if match.proto is not None:
        parts.append(match.proto._value_)
    if match.dport is not None:
        parts.append(match.dport)
    return parts[0] if len(parts) == 1 else tuple(parts)


@functools.lru_cache(maxsize=None)
def _compile_packet_key(signature: tuple):
    """Build ``f(packet, in_port)`` giving a packet's key under
    ``signature`` — equal to :func:`_match_key` of exactly the matches of
    that signature the packet satisfies.

    The function is generated with its masks inlined, because it runs once
    per probed signature on every switch hop.  ``Proto`` members key on
    their string value, whose hash is cached, instead of the enum's
    Python-level ``__hash__``.  Memoized: a cluster's switches share a
    handful of signatures, and compiling one costs as much as indexing
    dozens of rules."""
    in_port, eth_dst, src_mask, dst_mask, proto, dport = signature
    parts = []
    if in_port:
        parts.append("in_port")
    if eth_dst:
        parts.append("p.dst_mac")
    if src_mask is not None:
        parts.append(f"p.src_ip._value & {src_mask}")
    if dst_mask is not None:
        parts.append(f"p.dst_ip._value & {dst_mask}")
    if proto:
        parts.append("p.proto._value_")
    if dport:
        parts.append("p.dport")
    body = parts[0] if len(parts) == 1 else "(" + "".join(f"{x}, " for x in parts) + ")"
    return eval(f"lambda p, in_port: {body}")


class _Subtable:
    """The rules of one signature, hashed on their match key."""

    __slots__ = ("key", "rules", "tied", "priorities", "top")

    def __init__(self, signature: tuple):
        self.key = _compile_packet_key(signature)
        #: match key -> the winning rule for that key.
        self.rules: dict = {}
        #: match key -> every rule with that key, winner first; only for
        #: keys held by more than one rule.
        self.tied: dict = {}
        #: priority -> rule count; ``top`` is its largest key, the best
        #: priority a probe of this subtable can return.
        self.priorities: dict = {}
        self.top = 0


class FlowTable:
    """Priority-ordered rule set with OpenFlow-like lookup semantics.

    Lookup returns the highest-priority matching rule; ties break on
    insertion order (deterministic).  The table enforces a capacity so the
    §4.6 switch-scalability analysis can be exercised for real.

    Lookup is a tuple-space search (Srinivasan, Suri and Varghese,
    SIGCOMM '99; the Open vSwitch classifier, NSDI '15).  Rules are
    grouped by signature — which fields they match and the masks of
    their prefixes — into one hash subtable each.  A lookup probes the
    subtables in descending order of their best priority and stops once
    no remaining subtable can beat the rule already found.  NICE's rule
    census has 7 signatures per leaf and 4 per spine however many rules
    there are, so a lookup costs at most that many dict probes.  Every
    mutation keeps the subtables current; the sorted rule list is kept
    beside them for iteration and for the linear-scan oracle.
    """

    def __init__(self, capacity: int = 128 * 1024, owner=None):
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        #: The device (switch) this table belongs to, if any.  Only used to
        #: reach ``owner.sim.tracer`` for flow-mod trace events — the table
        #: itself has no simulator reference.
        self.owner = owner
        self._rules: List[Rule] = []
        self._subtables: dict = {}
        #: ``(top, rules, key)`` of every subtable in descending order of
        #: ``top`` — what ``lookup`` walks.
        self._probe: List[tuple] = []

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> tuple:
        """Public snapshot of the rule list (copy; safe to hold)."""
        return tuple(self._rules)

    def iter_rules(self):
        """Internal read-only view for iteration-only callers (no copy).

        Callers must not mutate the table while iterating.
        """
        return iter(self._rules)

    def _tracer(self):
        """The owning switch's tracer, or None when nothing traces."""
        owner = self.owner
        return None if owner is None else owner.sim.tracer

    def _reorder(self) -> None:
        subs = sorted(self._subtables.values(), key=lambda t: -t.top)
        self._probe = [(sub.top, sub.rules, sub.key) for sub in subs]

    def _index(self, rule: Rule) -> None:
        match = rule.match
        signature = _signature(match)
        sub = self._subtables.get(signature)
        prio = rule.priority
        reorder = sub is None or prio > sub.top
        if sub is None:
            sub = self._subtables[signature] = _Subtable(signature)
        key = _match_key(match)
        held = sub.rules.get(key)
        if held is None:
            sub.rules[key] = rule
        else:
            tied = sub.tied.get(key) or [held]
            insort(tied, rule, key=_rule_sort_key)
            sub.tied[key] = tied
            sub.rules[key] = tied[0]
        sub.priorities[prio] = sub.priorities.get(prio, 0) + 1
        if reorder:
            sub.top = prio
            self._reorder()

    def _unindex(self, rule: Rule) -> bool:
        """Drop ``rule`` from its subtable; False if the table lacks it."""
        match = rule.match
        signature = _signature(match)
        sub = self._subtables.get(signature)
        if sub is None:
            return False
        key = _match_key(match)
        tied = sub.tied.get(key)
        if tied is None:
            if sub.rules.get(key) is not rule:
                return False
            del sub.rules[key]
        else:
            for i, held in enumerate(tied):
                if held is rule:
                    break
            else:
                return False
            del tied[i]
            sub.rules[key] = tied[0]
            if len(tied) == 1:
                del sub.tied[key]
        prio = rule.priority
        left = sub.priorities[prio] - 1
        if left:
            sub.priorities[prio] = left
        else:
            del sub.priorities[prio]
            if not sub.rules:
                del self._subtables[signature]
                self._reorder()
            elif prio == sub.top:
                sub.top = max(sub.priorities)
                self._reorder()
        return True

    def add(self, rule: Rule) -> Rule:
        if len(self._rules) >= self.capacity:
            raise OverflowError(
                f"flow table full ({self.capacity} entries) — see §4.6 scalability"
            )
        insort(self._rules, rule, key=_rule_sort_key)
        self._index(rule)
        tr = self._tracer()
        if tr is not None:
            tr.instant(
                "flow_add", "flowtable", node=self.owner.name, cookie=rule.cookie,
                priority=rule.priority, match=str(rule.match), rules=len(self._rules),
            )
        return rule

    def remove(self, rule: Rule) -> None:
        """Delete this very rule object (a no-op if the table lacks it)."""
        if not self._unindex(rule):
            return
        rules = self._rules
        i = bisect_left(rules, _rule_sort_key(rule), key=_rule_sort_key)
        while rules[i] is not rule:
            i += 1
        del rules[i]
        tr = self._tracer()
        if tr is not None:
            tr.instant(
                "flow_remove", "flowtable", node=self.owner.name,
                cookie=rule.cookie, rules=len(rules),
            )

    def _remove_where(self, doomed) -> List[Rule]:
        """Delete every rule for which ``doomed(rule)`` holds."""
        keep, gone = [], []
        for r in self._rules:
            (gone if doomed(r) else keep).append(r)
        if gone:
            self._rules = keep
            for r in gone:
                self._unindex(r)
        return gone

    def remove_by_cookie(self, cookie: str) -> int:
        """Delete all rules tagged with ``cookie``; returns removal count."""
        removed = len(self._remove_where(lambda r: r.cookie == cookie))
        if removed:
            tr = self._tracer()
            if tr is not None:
                tr.instant(
                    "flow_remove_cookie", "flowtable", node=self.owner.name,
                    cookie=cookie, removed=removed, rules=len(self._rules),
                )
        return removed

    def lookup(self, packet: Packet, in_port: Optional[int] = None) -> Optional[Rule]:
        best = None
        for top, rules, key in self._probe:
            if best is not None and top < best.priority:
                break
            rule = rules.get(key(packet, in_port))
            if rule is not None and (
                best is None or _rule_sort_key(rule) < _rule_sort_key(best)
            ):
                best = rule
        return best

    def _scan(self, packet: Packet, in_port: Optional[int]) -> Optional[Rule]:
        """Linear scan in priority order: the test oracle for ``lookup``."""
        for rule in self._rules:
            if rule.match.matches(packet, in_port):
                return rule
        return None

    def expire_idle(self, now: float) -> int:
        """Evict rules idle past their timeout; returns eviction count."""
        evicted = len(self._remove_where(
            lambda r: r.idle_timeout is not None and now - r.last_used > r.idle_timeout
        ))
        if evicted:
            tr = self._tracer()
            if tr is not None:
                tr.instant(
                    "flow_expire", "flowtable", node=self.owner.name,
                    evicted=evicted, rules=len(self._rules),
                )
        return evicted


@dataclass(frozen=True)
class Bucket:
    """One multicast replication leg: rewrite actions then an output port."""

    actions: tuple
    port: int


@dataclass
class Group:
    """An OpenFlow ALL-type group: the packet is cloned into every bucket.

    This is the switch-level multicast primitive NICE uses for replication
    (§4.2): one ingress packet, one egress copy per replica port.
    """

    group_id: int
    buckets: List[Bucket] = field(default_factory=list)
    packets: int = 0

    def __len__(self) -> int:
        return len(self.buckets)
