"""Links and disks are analytic FIFO servers (DESIGN.md §5, §5g, §5k).

A fixed-rate FIFO server is fully described by the instant it next goes
free: a job enqueued at ``t`` finishes at ``max(t, free_at) + service``.
These tests pin the channel's and the disk's completion instants to that
recurrence *exactly* (same float expressions, no tolerance), and pin the
instants at which the channel's fault draws happen: loss, jitter and the
link-down check run at the end of serialization, in wire order.

The service time of a job is fixed when it is enqueued, so
``Link.set_bandwidth`` and ``Disk.set_degraded`` apply to work enqueued
after the call; work already queued keeps its original timeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kv import Disk
from repro.net import HEADER_BYTES, IPv4Address, Link, Packet, Proto
from repro.net.topology import Device
from repro.obs import install as install_tracer
from repro.sim import Simulator


class Sink(Device):
    """Records ``(arrival time, packet)`` for every delivered packet."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, in_port):
        self.received.append((self.sim.now, packet))


def make_packet(wire_bytes):
    """A packet occupying exactly ``wire_bytes`` on the wire."""
    return Packet(
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("10.0.0.2"),
        proto=Proto.UDP,
        payload_bytes=wire_bytes - HEADER_BYTES,
    )


def make_link(sim, bandwidth_bps=1e6, latency_s=0.0):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    return Link(sim, a.new_port(), b.new_port(), bandwidth_bps, latency_s), b


class RecordingRng:
    """A shared loss RNG that logs the sim time of every draw."""

    def __init__(self, sim, seed):
        self.sim = sim
        self.rng = np.random.default_rng(seed)
        self.draw_times = []

    def random(self):
        self.draw_times.append(self.sim.now)
        return self.rng.random()


def schedule_transmits(sim, channel, jobs, log):
    """Transmit ``(slot, wire_bytes)`` jobs at ``slot * 1e-4`` s; ``log``
    collects ``(actual enqueue time, packet)`` in enqueue order."""

    def send(packet):
        log.append((sim.now, channel, packet))
        channel.transmit(packet)

    for slot, wire_bytes in jobs:
        sim.call_at(slot * 1e-4, send, make_packet(wire_bytes))


def fifo_ends(log, channel):
    """The FIFO recurrence over one channel's enqueues, in enqueue order."""
    free, ends = 0.0, []
    for t, ch, packet in log:
        if ch is channel:
            start = free if free > t else t
            free = start + packet._wire_size * 8.0 / channel.bandwidth_bps
            ends.append((free, packet))
    return ends


jobs_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(HEADER_BYTES, 3000)),
    min_size=1, max_size=25,
)


# ------------------------------------------------------------------ links


@settings(max_examples=60, deadline=None)
@given(
    jobs=jobs_strategy,
    bandwidth=st.sampled_from([1e6, 1e8, 1e9, 3.3e7]),
    latency=st.sampled_from([0.0, 50e-6, 1e-3]),
)
def test_channel_delivery_times_follow_fifo_recurrence(jobs, bandwidth, latency):
    sim = Simulator()
    link, sink = make_link(sim, bandwidth, latency)
    log = []
    schedule_transmits(sim, link.ab, sorted(jobs, key=lambda j: j[0]), log)
    sim.run()
    expected = [(end + latency, packet) for end, packet in fifo_ends(log, link.ab)]
    assert [(t, p.uid) for t, p in sink.received] == [(t, p.uid) for t, p in expected]
    assert link.ab.queued == 0
    assert link.ab.tx_packets.value == len(jobs)


@settings(max_examples=60, deadline=None)
@given(
    jobs_ab=jobs_strategy,
    jobs_ba=jobs_strategy,
    bw_ab=st.sampled_from([1e6, 2e6, 5e5]),
    bw_ba=st.sampled_from([1e6, 2e6, 5e5]),
    seed=st.integers(0, 2**16),
)
def test_shared_loss_rng_draws_in_end_of_serialization_order(
    jobs_ab, jobs_ba, bw_ab, bw_ba, seed
):
    """Two channels share one loss RNG: the draws happen at each packet's
    end of serialization, ordered by that instant (ties by enqueue order),
    so a replay of the RNG stream in that order predicts every drop."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bw_ab, 0.0)
    link.ba.bandwidth_bps = bw_ba
    rng = RecordingRng(sim, seed)
    link.set_loss(0.4, rng)
    log = []
    merged = sorted(
        [(slot, size, link.ab) for slot, size in jobs_ab]
        + [(slot, size, link.ba) for slot, size in jobs_ba],
        key=lambda j: j[0],
    )

    def send(channel, packet):
        log.append((sim.now, channel, packet))
        channel.transmit(packet)

    for slot, size, channel in merged:
        sim.call_at(slot * 1e-4, send, channel, make_packet(size))
    sim.run()

    order = {id(p): i for i, (_, _, p) in enumerate(log)}
    finishes = sorted(
        fifo_ends(log, link.ab) + fifo_ends(log, link.ba),
        key=lambda e: (e[0], order[id(e[1])]),
    )
    assert rng.draw_times == [end for end, _ in finishes]
    replay = np.random.default_rng(seed)
    survivors = {p.uid for _, p in finishes if not replay.random() < 0.4}
    delivered = {p.uid for _, p in a.received + b.received}
    assert delivered == survivors
    dropped = link.ab.dropped_packets.value + link.ba.dropped_packets.value
    assert dropped == len(finishes) - len(survivors)


def test_set_down_mid_serialization_drops_only_later_finishes():
    """The link-down check runs at end of serialization: a packet that
    finished before the cut is delivered (even though it lands after the
    cut), the one still serializing when the cut happens is dropped."""
    sim = Simulator()
    link, sink = make_link(sim, bandwidth_bps=1e6, latency_s=0.01)
    first, second = make_packet(1000), make_packet(1000)  # 8 ms each
    link.ab.transmit(first)
    link.ab.transmit(second)
    sim.call_at(0.012, link.set_down, True)  # mid-serialization of `second`
    sim.run()
    assert [(t, p.uid) for t, p in sink.received] == [(0.008 + 0.01, first.uid)]
    assert link.ab.tx_packets.value == 2
    assert link.ab.dropped_packets.value == 1


def test_queued_counter_and_trace_depth():
    sim = Simulator()
    tracer = install_tracer(sim)
    link, sink = make_link(sim)
    for _ in range(3):
        link.ab.transmit(make_packet(1000))
    assert link.ab.queued == 2
    depths = [e.args["depth"] for e in tracer.events if e.name == "queued"]
    assert depths == [1, 2]
    sim.run(until=0.009)  # the first packet has finished serializing
    assert link.ab.queued == 1
    sim.run()
    assert link.ab.queued == 0
    assert len(sink.received) == 3


def test_set_bandwidth_applies_to_later_transmits():
    sim = Simulator()
    link, sink = make_link(sim, bandwidth_bps=1e6)
    link.ab.transmit(make_packet(1000))  # 8 ms at the old rate
    link.set_bandwidth(2e6)
    link.ab.transmit(make_packet(1000))  # 4 ms at the new rate, queued
    sim.run()
    assert [t for t, _ in sink.received] == [0.008, 0.008 + 0.004]


# ------------------------------------------------------------------ disks


def make_disk(sim, flush_latency_s=1.0):
    # 1 MB/s writes, 2 MB/s reads, 1 ms base latency.
    return Disk(
        sim, write_bandwidth_bps=8e6, read_bandwidth_bps=16e6,
        base_latency_s=1e-3, flush_latency_s=flush_latency_s,
    )


@settings(max_examples=60, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 5000), st.booleans()),
        min_size=1, max_size=25,
    )
)
def test_disk_completion_times_follow_fifo_recurrence(jobs):
    sim = Simulator()
    disk = make_disk(sim)
    issued, done = [], {}

    def io(i, nbytes, write):
        issued.append((sim.now, nbytes, write))
        event = disk.write(nbytes) if write else disk.read(nbytes)
        event.add_callback(lambda ev: done.__setitem__(i, sim.now))

    for i, (slot, nbytes, write) in enumerate(sorted(jobs, key=lambda j: j[0])):
        sim.call_at(slot * 1e-4, io, i, nbytes, write)
    sim.run()
    free, expected = 0.0, []
    for t, nbytes, write in issued:
        bw = disk.write_bandwidth_bps if write else disk.read_bandwidth_bps
        service = disk.base_latency_s + nbytes * 8.0 / bw
        start = free if free > t else t
        free = start + service
        expected.append(free)
    assert [done[i] for i in range(len(jobs))] == expected
    writes = [j for j in jobs if j[2]]
    assert disk.writes.value == len(writes)
    assert disk.dirty_bytes == sum(n for _, n, _ in writes)


def test_group_commit_covers_writes_finished_before_cycle_start():
    """Cycle 1 starts when A finishes; B and C finish during it, so cycle
    1 covers A only and C's flush (cycle 2) carries B down too."""
    sim = Simulator()
    disk = make_disk(sim)
    resumed, durable_mid = {}, []

    def io(tag, forced):
        yield disk.write(1000, forced=forced)
        resumed[tag] = sim.now

    sim.process(io("A", True))    # seq 1: transfer ends 2 ms
    sim.process(io("B", False))   # seq 2: transfer ends 4 ms, unforced
    sim.process(io("C", True))    # seq 3: transfer ends 6 ms
    sim.call_at(0.5, lambda: durable_mid.append(disk.durable_seq))
    sim.run()
    assert resumed["B"] == 0.002 + 0.002
    assert resumed["A"] == 0.002 + 1.0
    assert resumed["C"] == 0.002 + 1.0 + 1.0
    assert durable_mid == [0]
    assert disk.durable_seq == 3 and disk.dirty_bytes == 0
    assert disk.flushes.value == 2
    assert disk.flush_cycles_started == disk.flush_cycles_done == 2


def test_group_commit_barrier_after_first_cycle():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write(1000, forced=True)   # seq 1
    disk.write(1000)                # seq 2, finishes mid-cycle 1
    sim.run(until=1.5)              # cycle 1 done (1.002), nothing else forced
    assert disk.durable_seq == 1
    assert disk.is_durable(1) and not disk.is_durable(2)
    assert disk.dirty_bytes == 1000


def test_io_in_flight_across_crash_keeps_timeline_not_durability():
    sim = Simulator()
    disk = make_disk(sim)
    resumed = {}

    def io(tag, nbytes, forced):
        yield disk.write(nbytes, forced=forced)
        resumed[tag] = sim.now

    sim.process(io("pre", 4000, True))            # transfer ends at 5 ms
    sim.run(until=0.002)
    assert disk.crash() == 0
    sim.process(io("post", 1000, False))          # queues behind: ends 7 ms
    sim.run()
    # The pre-crash IO and its flush cycle fire on their original timeline ...
    assert resumed["pre"] == 0.005 + 1.0
    assert resumed["post"] == 0.005 + 0.002
    # ... but the pre-crash completion never dirtied the new epoch, and the
    # cycle it started (barrier snapshot: the post-crash ``_completed_seq``
    # at 5 ms, i.e. 0) cannot advance post-crash durability.
    assert disk.durable_seq == 0
    assert disk.dirty_bytes == 1000


def test_set_degraded_applies_to_later_io():
    sim = Simulator()
    disk = make_disk(sim)
    done = []
    disk.write(1000).add_callback(lambda ev: done.append(sim.now))  # 2 ms
    disk.set_degraded(4.0)
    disk.write(1000).add_callback(lambda ev: done.append(sim.now))  # 8 ms
    sim.run()
    assert done == [0.002, 0.002 + 0.008]
    # One nominal and one 4x-degraded transfer in the health window.
    assert disk.consume_service_ratio() == pytest.approx((1.0 + 4.0) / 2)
