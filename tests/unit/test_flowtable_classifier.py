"""The FlowTable tuple-space classifier against its linear-scan oracle.

``FlowTable.lookup`` probes one hash subtable per match signature;
``FlowTable._scan`` walks the priority-sorted rule list.  They must
return the very same rule object for every packet, on random tables
under interleaved flow-mods and on the real leaf-spine rule census.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.harness import build_nice
from repro.net import (
    Drop,
    FlowTable,
    IPv4Address,
    IPv4Network,
    MacAddress,
    Match,
    Output,
    Packet,
    Proto,
    Rule,
)


def pkt(src="10.0.0.1", dst="10.10.1.5", proto=Proto.UDP, dport=4000, dst_mac=None):
    return Packet(
        src_ip=IPv4Address(src),
        dst_ip=IPv4Address(dst),
        proto=proto,
        dport=dport,
        payload_bytes=10,
        dst_mac=dst_mac,
    )


# ------------------------------------------------------------ flow-mod edges
def test_add_takes_effect_on_the_next_lookup():
    table = FlowTable()
    low = table.add(Rule(Match(), [Drop()], priority=1))
    assert table.lookup(pkt()) is low
    high = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], priority=10))
    assert table.lookup(pkt()) is high


def test_remove_falls_back_to_the_next_rule():
    table = FlowTable()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    fallback = table.add(Rule(Match(), [Drop()], priority=1))
    table.remove(rule)
    assert table.lookup(pkt()) is fallback
    table.remove(rule)  # already gone: a no-op
    assert len(table) == 1


def test_remove_by_cookie_takes_effect():
    table = FlowTable()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], cookie="uni:x"))
    assert table.remove_by_cookie("no-such-cookie") == 0
    assert table.lookup(pkt()) is rule
    assert table.remove_by_cookie("uni:x") == 1
    assert table.lookup(pkt()) is None
    assert len(table) == 0 and not table._subtables


def test_idle_expiry_takes_effect():
    table = FlowTable()
    kept = table.add(Rule(Match(ip_dst="10.10.1.0/24"), [Output(1)], priority=1))
    idle = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(2)], idle_timeout=5.0))
    assert table.expire_idle(now=4.0) == 0
    assert table.lookup(pkt()) is idle
    assert table.expire_idle(now=10.0) == 1
    assert table.lookup(pkt()) is kept


def test_distinct_flows_select_distinct_rules():
    table = FlowTable()
    r1 = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    r2 = table.add(Rule(Match(ip_dst="10.10.1.6"), [Output(2)]))
    for _ in range(2):
        assert table.lookup(pkt(dst="10.10.1.5")) is r1
        assert table.lookup(pkt(dst="10.10.1.6")) is r2
        assert table.lookup(pkt(dst="10.10.1.7")) is None


def test_in_port_and_eth_dst_select_rules():
    mac = MacAddress("02:00:00:00:00:07")
    table = FlowTable()
    by_port = table.add(Rule(Match(in_port=3), [Output(1)], priority=5))
    by_mac = table.add(Rule(Match(eth_dst=mac), [Output(2)], priority=4))
    assert table.lookup(pkt(), in_port=3) is by_port
    assert table.lookup(pkt(dst_mac=mac), in_port=4) is by_mac
    assert table.lookup(pkt(), in_port=4) is None
    assert table.lookup(pkt()) is None


def test_equal_priority_ties_break_on_insertion_order():
    table = FlowTable()
    first = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    second = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(2)]))
    wide = table.add(Rule(Match(ip_dst="10.10.0.0/16"), [Output(3)]))
    assert table.lookup(pkt()) is first
    table.remove(first)
    assert table.lookup(pkt()) is second
    table.remove(second)
    assert table.lookup(pkt()) is wide


def test_equal_priority_ties_break_across_subtables():
    """The lower-seq rule wins even when its subtable is probed second."""
    table = FlowTable()
    # The /24 subtable exists first, so once its top rises to 5 it is
    # probed ahead of the proto subtable.
    table.add(Rule(Match(ip_dst="10.10.2.0/24"), [Drop()], priority=1))
    first = table.add(Rule(Match(proto=Proto.UDP), [Output(1)], priority=5))
    later = table.add(Rule(Match(ip_dst="10.10.1.0/24"), [Output(2)], priority=5))
    assert [top for top, _, _ in table._probe] == [5, 5]
    assert table.lookup(pkt()) is first
    table.remove(first)
    assert table.lookup(pkt()) is later


def test_subtables_follow_signatures_not_rule_count():
    table = FlowTable()
    for i in range(64):
        table.add(Rule(Match(ip_dst=f"10.10.1.{i}"), [Output(1)], priority=200))
        table.add(
            Rule(Match(ip_src=f"10.0.{i}.0/26", ip_dst=f"10.20.{i}.0/25",
                       proto=Proto.UDP, dport=4000), [Output(2)], priority=300)
        )
    assert len(table) == 128
    assert len(table._subtables) == 2
    assert [top for top, _, _ in table._probe] == [300, 200]


# ------------------------------------------------ property: lookup == scan
# Nested and disjoint prefixes: most prefix lengths cover several of
# these addresses, the long ones tell them apart.
_ADDRS = ["10.0.0.1", "10.0.0.2", "10.0.1.130", "10.1.0.1", "192.168.0.1"]
_MACS = [MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")]
_PROTOS = [Proto.UDP, Proto.TCP, Proto.ARP]
_DPORTS = [4000, 4001]
_PORTS = [None, 1, 2, 3]

# A table draws its rules from a few shapes (signatures), as a switch's
# table does, so subtables hold several rules, equal keys collide, and
# equal priorities tie within and across subtables.
_shapes = st.tuples(
    st.booleans(),                                           # in_port
    st.booleans(),                                           # eth_dst
    st.one_of(st.none(), st.integers(min_value=0, max_value=32)),  # ip_src
    st.one_of(st.none(), st.integers(min_value=0, max_value=32)),  # ip_dst
    st.booleans(),                                           # proto
    st.booleans(),                                           # dport
)

_values = st.tuples(
    st.sampled_from(_PORTS[1:]),
    st.sampled_from(_MACS),
    st.sampled_from(_ADDRS),
    st.sampled_from(_ADDRS),
    st.sampled_from(_PROTOS),
    st.sampled_from(_DPORTS),
)


def _match(shape, values):
    in_port, eth_dst, src_len, dst_len, proto, dport = shape
    v_port, v_mac, v_src, v_dst, v_proto, v_dport = values
    return Match(
        in_port=v_port if in_port else None,
        eth_dst=v_mac if eth_dst else None,
        ip_src=None if src_len is None else IPv4Network(IPv4Address(v_src), src_len),
        ip_dst=None if dst_len is None else IPv4Network(IPv4Address(v_dst), dst_len),
        proto=v_proto if proto else None,
        dport=v_dport if dport else None,
    )


_rule_specs = st.tuples(
    st.integers(min_value=0, max_value=3),                   # shape index
    _values,
    st.sampled_from([1, 5, 5, 5, 9]),                        # priority
    st.sampled_from(["a", "b", "c"]),                        # cookie
    st.sampled_from([None, None, 1.0, 3.0]),                 # idle timeout
)

_packets = st.tuples(
    st.builds(
        pkt,
        src=st.sampled_from(_ADDRS),
        dst=st.sampled_from(_ADDRS),
        proto=st.sampled_from(_PROTOS),
        dport=st.sampled_from(_DPORTS),
        dst_mac=st.sampled_from([None] + _MACS),
    ),
    st.sampled_from(_PORTS),
)

_add = st.tuples(st.just("add"), _rule_specs)
# A lookup built to hit one of the last few rules added.
_lookup_hit = st.tuples(st.just("lookup_hit"), st.integers(min_value=1, max_value=4), _packets)
# Adds and lookups outnumber removals, so tables grow to many rules.
_ops = st.one_of(
    _add,
    _add,
    _add,
    _lookup_hit,
    _lookup_hit,
    st.tuples(st.just("lookup"), _packets),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("remove_by_cookie"), st.sampled_from(["a", "b", "c", "z"])),
    st.tuples(st.just("expire_idle"), st.sampled_from([0.5, 2.0, 10.0])),
)


def _packet_for(match, packet, in_port):
    """``packet`` rewritten to satisfy ``match``, so that the lookup hits it
    and, often, overlapping rules of other signatures too."""
    out = packet.copy()
    if match.ip_src is not None:
        out.src_ip = match.ip_src.address
    if match.ip_dst is not None:
        out.dst_ip = match.ip_dst.address
    if match.proto is not None:
        out.proto = match.proto
    if match.dport is not None:
        out.dport = match.dport
    if match.eth_dst is not None:
        out.dst_mac = match.eth_dst
    return out, in_port if match.in_port is None else match.in_port


def _check_all(table, packets):
    for packet, in_port in packets:
        assert table.lookup(packet, in_port) is table._scan(packet, in_port)


def _check_index(table):
    """Every rule is indexed once; each subtable's ``top`` is its best
    priority; the probe list runs in descending ``top``."""
    indexed = []
    for sub in table._subtables.values():
        held = [r for key, r in sub.rules.items() if key not in sub.tied]
        held += [r for tied in sub.tied.values() for r in tied]
        assert sub.top == max(r.priority for r in held)
        indexed += held
    assert sorted(r.seq for r in indexed) == sorted(r.seq for r in table.iter_rules())
    tops = [top for top, _, _ in table._probe]
    assert tops == sorted((sub.top for sub in table._subtables.values()), reverse=True)


@given(
    shapes=st.lists(_shapes, min_size=2, max_size=4),
    ops=st.lists(_ops, min_size=10, max_size=80),
    probes=st.lists(_packets, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_lookup_agrees_with_scan_under_mutation(shapes, ops, probes):
    table = FlowTable()
    added = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            shape, values, prio, cookie, timeout = op[1]
            match = _match(shapes[shape % len(shapes)], values)
            rule = Rule(match, [Drop()], priority=prio, cookie=cookie, idle_timeout=timeout)
            added.append(table.add(rule))
        elif kind == "remove":
            if added:
                table.remove(added[op[1] % len(added)])
        elif kind == "remove_by_cookie":
            table.remove_by_cookie(op[1])
        elif kind == "expire_idle":
            table.expire_idle(now=op[1])
        else:
            packet, in_port = op[-1]
            if kind == "lookup_hit" and added:
                match = added[-min(op[1], len(added))].match
                packet, in_port = _packet_for(match, packet, in_port)
            assert table.lookup(packet, in_port) is table._scan(packet, in_port)
        _check_all(table, probes)
        _check_index(table)


# ------------------------------------------------------- the real census
def _census_packets(switch, cluster):
    """Packets to both ends of every destination prefix the switch has a
    rule for, from every host, with and without an ingress port — plus
    packets that match nothing."""
    rules = list(switch.table.iter_rules())
    dsts = {r.match.ip_dst for r in rules if r.match.ip_dst is not None}
    dports = sorted({r.match.dport for r in rules if r.match.dport is not None})
    srcs = sorted(rec.ip for rec in cluster.controller.hosts.values())
    in_ports = [None] + sorted(switch.ports)[:1]
    for net in sorted(dsts, key=str):
        last = IPv4Address(net.address.value | (~net._netmask & 0xFFFFFFFF))
        for dst in sorted({net.address, last}):
            for src in srcs:
                for proto in (Proto.UDP, Proto.ARP):
                    for dport in dports[:1] + [1]:
                        for in_port in in_ports:
                            yield Packet(src_ip=src, dst_ip=dst, proto=proto, dport=dport), in_port
    for dst in ("192.0.2.1", "203.0.113.77"):
        for proto in (Proto.UDP, Proto.TCP):
            yield pkt(src="198.51.100.3", dst=dst, proto=proto, dport=9), None


def test_classifier_matches_scan_on_leaf_spine_census():
    cluster = build_nice(n_storage_nodes=6, n_clients=2, n_racks=2)
    signatures = {sw.name: len(sw.table._subtables) for sw in cluster.switches}
    assert {n for name, n in signatures.items() if name.startswith("leaf")} == {7}
    assert {n for name, n in signatures.items() if name.startswith("spine")} == {4}
    misses, hit_priorities = 0, set()
    for switch in cluster.switches:
        for packet, in_port in _census_packets(switch, cluster):
            rule = switch.table.lookup(packet, in_port)
            assert rule is switch.table._scan(packet, in_port)
            if rule is None:
                misses += 1
            else:
                hit_priorities.add(rule.priority)
    # Every rule shape of the census selected some packet.
    assert hit_priorities == {r.priority for sw in cluster.switches for r in sw.table.iter_rules()}
    assert misses > 0
