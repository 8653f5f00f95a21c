"""Simulated persistent storage device.

Models an SSD (the testbed nodes have 120 GB SSDs, §6) as a FIFO server
with per-op base latency plus byte-rate service time.  Like a link, the
device is fully described by the instant it next goes free (``_free_at``):
an IO issued at ``now`` completes at ``max(now, free_at) + service``, and
that completion is ONE kernel call.  The service time is fixed when the IO
is *issued*, so :meth:`Disk.set_degraded` applies to IO issued after the
call.  *Forced* writes (the gray boxes of Fig 3 — log appends and object
writes that must be durable before acknowledging) additionally wait for a
flush.

Flushes are *group-committed*: concurrent forced writes share one flush
cycle, as real write-ahead logs do — a lone put still pays the full flush
latency, but a node absorbing hundreds of concurrent puts is not
flush-count-bound.

Crash consistency (DESIGN.md §5k): completed writes land in a modeled
volatile cache first.  Every write is issued a monotonically increasing
sequence number; a flush cycle advances the *durability barrier*
``durable_seq`` to the highest sequence whose transfer had completed
before the cycle started (the FIFO device guarantees writes complete in
issue order).  ``dirty_bytes`` tracks the unflushed window.
``crash()`` models power loss: everything above the barrier is gone.
A *process* crash, by contrast, does not touch the disk at all — the
write cache is below the failing software, exactly as an OS page cache
survives an application crash.

The epoch guard keeps chaos runs bit-reproducible: in-flight IO and
flush cycles continue on their original timeline across a crash (their
events fire exactly when they would have), but completions from a
pre-crash epoch no longer advance the post-crash durability state.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..sim import Counter, Event, Simulator

__all__ = ["Disk"]


class Disk:
    """One node's storage device; all IO serializes through it."""

    def __init__(
        self,
        sim: Simulator,
        write_bandwidth_bps: float = 400e6 * 8,
        read_bandwidth_bps: float = 900e6 * 8,
        base_latency_s: float = 60e-6,
        flush_latency_s: float = 300e-6,
        name: str = "disk",
    ):
        if write_bandwidth_bps <= 0 or read_bandwidth_bps <= 0:
            raise ValueError("disk bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.write_bandwidth_bps = write_bandwidth_bps
        self.read_bandwidth_bps = read_bandwidth_bps
        self.base_latency_s = base_latency_s
        self.flush_latency_s = flush_latency_s
        #: Factory parameters; ``set_degraded`` scales away from these and
        #: the fail-slow health signal is measured against them.
        self._nominal = (write_bandwidth_bps, read_bandwidth_bps, base_latency_s)
        self.degraded_factor = 1.0
        #: Absolute sim time at which every IO issued so far has finished
        #: its transfer (the FIFO device's horizon).
        self._free_at = 0.0
        self._flush_waiters: List[Event] = []
        self._flusher_running = False
        # -- durability state (§5k) ------------------------------------
        self._epoch = 0
        self._issued_seq = 0
        self._completed_seq = 0
        #: Highest write sequence covered by a completed flush; writes at
        #: or below the barrier survive power loss.
        self.durable_seq = 0
        self.dirty_bytes = 0
        self._dirty: Deque[Tuple[int, int]] = deque()
        # -- fail-slow health signal -----------------------------------
        self._ratio_sum = 0.0
        self._ratio_n = 0
        #: Flush-cycle clock for cache-resident metadata (WAL removals):
        #: an update made at time T is durable once a cycle that *started*
        #: after T completes — ``done > started_at_T``.
        self.flush_cycles_started = 0
        self.flush_cycles_done = 0
        self.bytes_written = Counter(f"{name}.bytes_written")
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.writes = Counter(f"{name}.writes")
        self.reads = Counter(f"{name}.reads")
        self.flushes = Counter(f"{name}.flushes")
        self.power_losses = Counter(f"{name}.power_losses")

    @property
    def issued_seq(self) -> int:
        """Sequence number of the most recently issued write.  Read this
        immediately after ``write()`` returns to tag the write."""
        return self._issued_seq

    def is_durable(self, seq: int) -> bool:
        """Whether write ``seq`` has been covered by a flush.  Only
        meaningful for sequences issued in the current power epoch."""
        return seq <= self.durable_seq

    def write(self, nbytes: int, forced: bool = False) -> Event:
        """Persist ``nbytes``; returns an Event to ``yield`` on."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        self._issued_seq += 1
        return self._io(nbytes, forced, True, self._issued_seq)

    def read(self, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        return self._io(nbytes, False, False, 0)

    def _io(self, nbytes: int, forced: bool, write: bool, seq: int) -> Event:
        sim = self.sim
        bw = self.write_bandwidth_bps if write else self.read_bandwidth_bps
        service = self.base_latency_s + nbytes * 8.0 / bw
        start = self._free_at
        if start < sim._now:
            start = sim._now
        self._free_at = end = start + service
        done = Event(sim)
        sim._schedule_call_at(
            end, self._complete, done, nbytes, forced, write, seq, service, self._epoch
        )
        return done

    def _complete(
        self, done: Event, nbytes: int, forced: bool, write: bool, seq: int,
        service: float, epoch: int,
    ) -> None:
        """End of transfer: counters, health signal, dirty bookkeeping."""
        if write:
            self.bytes_written.add(nbytes)
            self.writes.add()
        else:
            self.bytes_read.add(nbytes)
            self.reads.add()
        # Health signal: observed service time over the factory-spec
        # expectation for the same transfer (queueing excluded, so a
        # degraded device reads as exactly its slowdown factor).
        nom_w, nom_r, nom_base = self._nominal
        expected = nom_base + nbytes * 8.0 / (nom_w if write else nom_r)
        if expected > 0.0:  # zero-cost transfers carry no signal
            self._ratio_sum += service / expected
            self._ratio_n += 1
        if write and epoch == self._epoch:
            self._completed_seq = seq
            self._dirty.append((seq, nbytes))
            self.dirty_bytes += nbytes
        if not forced:
            done.succeed()
            return
        # Group commit: join the next flush cycle.
        self._flush_waiters.append(done)
        if not self._flusher_running:
            self._flusher_running = True
            self.sim.process(self._flusher())

    def _flusher(self):
        """Back-to-back flush cycles while demand exists; each cycle covers
        every write that finished its transfer before the cycle started."""
        while self._flush_waiters:
            covered, self._flush_waiters = self._flush_waiters, []
            epoch, barrier = self._epoch, self._completed_seq
            self.flush_cycles_started += 1
            yield self.sim.timeout(self.flush_latency_s)
            self.flushes.add()
            if epoch == self._epoch:
                self._advance_barrier(barrier)
                self.flush_cycles_done += 1
            for ev in covered:
                ev.succeed()
        self._flusher_running = False

    def _advance_barrier(self, barrier: int):
        if barrier <= self.durable_seq:
            return
        self.durable_seq = barrier
        dirty = self._dirty
        while dirty and dirty[0][0] <= barrier:
            self.dirty_bytes -= dirty.popleft()[1]

    def crash(self) -> int:
        """Power loss: the volatile write cache is discarded.  Returns the
        durability barrier — everything issued above it never reached the
        platter.  In-flight IO and flush cycles keep their original
        timeline (their waiters fire on schedule; the resumed processes
        observe the dead host and bail), but pre-crash completions no
        longer advance post-crash durability state.  The device horizon
        ``_free_at`` is untouched: post-crash IO still queues behind the
        in-flight transfers."""
        self._epoch += 1
        self._dirty.clear()
        self.dirty_bytes = 0
        self._completed_seq = self.durable_seq
        self._ratio_sum = 0.0
        self._ratio_n = 0
        self.power_losses.add()
        return self.durable_seq

    # -- fail-slow -----------------------------------------------------
    def set_degraded(self, factor: float = 1.0) -> None:
        """Scale service times by ``factor`` (the chaos ``disk_slow``
        knob); ``factor <= 1`` restores the factory parameters.  IO already
        issued keeps its service time; the new one applies to IO issued
        after the call."""
        factor = max(1.0, float(factor))
        nom_w, nom_r, nom_base = self._nominal
        self.degraded_factor = factor
        self.write_bandwidth_bps = nom_w / factor
        self.read_bandwidth_bps = nom_r / factor
        self.base_latency_s = nom_base * factor

    def consume_service_ratio(self) -> Optional[float]:
        """Mean observed/nominal service-time ratio since the last call
        (the heartbeat-driven fail-slow detector's input), or ``None``
        when no IO completed in the window."""
        if self._ratio_n == 0:
            return None
        ratio = self._ratio_sum / self._ratio_n
        self._ratio_sum = 0.0
        self._ratio_n = 0
        return ratio
