"""The benchmark's three workloads.

Each workload turns the workload seed and the run length into a fixed
list of *cases*; a case builds a fresh cluster, runs one simulation
(timed) and, for chaos-check, checks its history (also timed).  Host
times are paced (see ``pace.py``): the simulation runs in short slices
of simulated time with a reference sample between slices.  The
simulated inputs depend only on the seed and the run length, never on
host speed, so two runs of the same code give the same simulated
results.  Everything runs inline in one process and one thread; the
bench layer's process pool and cell cache are not used.

* ``fig11-failover`` loads the event kernel, links, transport and the
  replication protocol; its flow tables are small and mostly served from
  the exact-match cache.  A secondary crashes and rejoins mid-run.
* ``fabric-300`` loads ``FlowTable.lookup`` (about 3,200 rules per leaf)
  and, in set-up, cluster build and rule planning.
* ``chaos-check`` is the only workload where fault handling and the
  consistency checkers run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import check
from repro.chaos import ChaosEngine, FaultSchedule, standard_schedules
from repro.core import ClusterConfig, NiceCluster
from repro.obs import MetricsRegistry
from repro.sim import AllOf
from repro.workloads import (
    closed_loop_gets,
    closed_loop_puts,
    keys_in_partition,
    run_fault_timeline,
)

from .pace import Pacer, run_sliced, run_until_sliced
from .stats import derive_seed, digest

#: Host-time gauges in the metrics registry; never part of a digest.
HOST_TIME_METRICS = ("controlplane.plan.sync_ms",)


@dataclass
class Case:
    """One simulation run: its label, what it cost and what it produced."""

    label: str
    #: Paced host seconds (``pace.py``) of set-up, of the timed phase
    #: (simulation plus, for chaos-check, checking) and of the simulation.
    setup_s: float = 0.0
    host_s: float = 0.0
    sim_host_s: float = 0.0
    #: The same, unpaced.
    raw_setup_s: float = 0.0
    raw_host_s: float = 0.0
    sim_s: float = 0.0
    events: int = 0
    #: Payload bytes of one put (all puts of a workload share a size).
    object_bytes: int = 0
    ops: list = field(default_factory=list)
    counters: Dict[str, object] = field(default_factory=dict)
    outputs: Dict = field(default_factory=dict)
    faults: int = 0
    #: chaos-check only: checker verdict and host times.
    verdict: Optional[Dict] = None
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest({
            "ops": [op.as_tuple() for op in self.ops],
            "counters": self.counters,
            "outputs": self.outputs,
            "verdict": None if self.verdict is None else {
                k: v for k, v in self.verdict.items() if not k.endswith("_s")
            },
        })


def _scheduled(sim) -> int:
    """Events the kernel has scheduled so far (one heap record each)."""
    pool = sim.pool_stats()["entry_pool"]
    return pool["hits"] + pool["misses"]


def _build(case: Case, **cfg) -> NiceCluster:
    def build():
        cluster = NiceCluster(ClusterConfig(**cfg))
        cluster.warm_up()
        return cluster

    pacer = Pacer()
    cluster = pacer.step(build)
    case.setup_s, case.raw_setup_s = pacer.paced_s, pacer.raw_s
    return cluster


def _book(case: Case, pacer: Pacer) -> None:
    case.host_s += pacer.paced_s
    case.raw_host_s += pacer.raw_s


def _simulate(case: Case, sim, body: Callable[[Pacer], None]) -> None:
    """Run ``body``, which drives ``sim`` through the pacer it is given."""
    events, now = _scheduled(sim), sim.now
    pacer = Pacer()
    body(pacer)
    case.sim_host_s += pacer.paced_s
    _book(case, pacer)
    case.events += _scheduled(sim) - events
    case.sim_s += sim.now - now


def _flat(tree: Dict, prefix: str = "") -> Dict[str, object]:
    """Flatten a registry snapshot to ``dotted.name -> value`` (a counter's
    value, or a tally's whole snapshot)."""
    out: Dict[str, object] = {}
    for key, node in tree.items():
        name = f"{prefix}{key}"
        if "type" in node:
            out[name] = node.get("value", node)
        else:
            out.update(_flat(node, name + "."))
    return out


def _finish(case: Case, cluster, recorder: check.HistoryRecorder) -> None:
    """Collect the case's simulated outputs once the timed phase is over."""
    case.ops = recorder.ops
    counters = _flat(MetricsRegistry.from_cluster(cluster).snapshot())
    for name in HOST_TIME_METRICS:
        counters.pop(name, None)
    case.counters = counters
    tables = [sw.table for sw in cluster.switches]
    # The flow cache may not exist in every version of the program.
    case.outputs["flow_cache_hits"] = sum(getattr(t, "cache_hits", 0) for t in tables)
    case.outputs["flow_cache_misses"] = sum(getattr(t, "cache_misses", 0) for t in tables)
    case.outputs["rules_max"] = max(len(t) for t in tables)
    case.outputs["plan_recomputes"] = cluster.controller.plan_recomputes.value
    meta = cluster.metadata_active
    case.outputs["failures_declared"] = meta.failures_declared.value
    case.outputs["rejoins_completed"] = meta.rejoins_completed.value


# ---------------------------------------------------------------- fig11-failover
#: The paper's Fig 11 timeline (crash at 30 s, rejoin at 90 s of 120 s)
#: scaled to 10 simulated seconds so a run holds several scenarios.
FIG11 = dict(duration=10.0, fail_at=2.5, recover_at=7.5)
#: Simulated seconds per paced slice (about 60 ms of host time).
FIG11_SLICE_S = 0.25
#: Host seconds one case takes on a 2-core x86 box with Python 3.11 (each
#: workload has one): ``--seconds`` divided by it gives the case count, so
#: a run's simulated work is fixed by ``--seconds`` and never by host speed.
FIG11_CASE_HOST_S = 2.5


def fig11_plan(seed: int, seconds: int) -> List[Dict]:
    n = max(2, round(seconds / FIG11_CASE_HOST_S))
    return [dict(seed=derive_seed(seed, "fig11", i)) for i in range(n)]


def fig11_case(spec: Dict) -> Case:
    case = Case(f"fig11 seed={spec['seed']}", object_bytes=1000)
    cluster = _build(case, n_storage_nodes=15, n_clients=3, seed=spec["seed"])
    n_partitions = cluster.config.n_partitions
    keys = keys_in_partition(
        spec["seed"] % n_partitions, n_partitions, 64, prefix=f"f{spec['seed']}-"
    )
    recorder = check.HistoryRecorder().attach(*cluster.clients)
    result = {}

    def body(pacer):
        # The timeline runs the simulator itself; slice that one call.
        sim = cluster.sim
        sim.run = lambda until: run_sliced(sim, pacer, until, FIG11_SLICE_S)
        try:
            result["timeline"] = run_fault_timeline(
                cluster, keys, seed=spec["seed"], object_bytes=case.object_bytes, **FIG11
            )
        finally:
            del sim.run

    _simulate(case, cluster.sim, body)
    marks = result["timeline"].events
    case.outputs["marks"] = marks
    seen = {label.split()[-1]: when for when, label in marks}
    for mark in ("fails", "rejoins", "consistent"):
        if not seen.get(mark, FIG11["duration"]) < FIG11["duration"]:
            case.problems.append(f"{case.label}: '{mark}' mark not inside the run: {marks}")
    _finish(case, cluster, recorder)
    return case


# -------------------------------------------------------------------- fabric-300
#: The 15x20 leaf-spine rung, exact mode, 4096-rule budget per switch.
FABRIC = dict(n_storage_nodes=300, n_clients=10, n_racks=15, switch_rule_budget=4096)
FABRIC_OPS_PER_PHASE = 10
FABRIC_CASE_HOST_S = 5.0
#: Simulated seconds per paced slice (about 90 ms of host time).
FABRIC_SLICE_S = 0.002


def fabric_plan(seed: int, seconds: int) -> List[Dict]:
    n = max(2, round(seconds / FABRIC_CASE_HOST_S))
    return [dict(seed=derive_seed(seed, "fabric", i)) for i in range(n)]


def fabric_case(spec: Dict) -> Case:
    case = Case(f"fabric-300 seed={spec['seed']}", object_bytes=1024)
    cluster = _build(case, seed=spec["seed"], **FABRIC)
    sim = cluster.sim
    recorder = check.HistoryRecorder().attach(*cluster.clients)
    keys = [f"fab{spec['seed']}-{i}" for i in range(2 * len(cluster.clients))]
    seeded = []

    def per_client(client, my_keys):
        yield closed_loop_puts(client, sim, FABRIC_OPS_PER_PHASE, case.object_bytes,
                               keys=my_keys)
        yield closed_loop_gets(client, sim, FABRIC_OPS_PER_PHASE, my_keys)

    def workload(sim):
        for key in keys:
            r = yield cluster.clients[0].put(key, "seed", case.object_bytes)
            seeded.append(r.ok)
        yield AllOf(sim, [
            sim.process(per_client(c, keys[2 * i: 2 * i + 2]))
            for i, c in enumerate(cluster.clients)
        ])

    proc = sim.process(workload(sim))
    _simulate(case, sim, lambda pacer: run_until_sliced(
        sim, pacer, proc, sim.now + 1000.0, FABRIC_SLICE_S))
    if not proc.triggered:
        case.problems.append(f"{case.label}: workload did not finish")
    if not (len(seeded) == len(keys) and all(seeded)):
        case.problems.append(f"{case.label}: seed puts acked {sum(seeded)}/{len(keys)}")
    counts = cluster.controller.rule_counts_by_switch()
    over = {sw: n for sw, n in counts.items() if n > FABRIC["switch_rule_budget"]}
    if over:
        case.problems.append(f"{case.label}: rule budget exceeded on {over}")
    case.outputs["rule_counts"] = counts
    _finish(case, cluster, recorder)
    return case


# ------------------------------------------------------------------- chaos-check
#: The chaos suite's cluster and fault schedules (the standard suite plus
#: two seeded random ones), 10 simulated seconds per case.
CHAOS_CLUSTER = dict(n_storage_nodes=6, n_clients=3)
CHAOS_DURATION = 10.0
CHAOS_THINK_S = 0.03
#: Simulated seconds per paced slice (about 45 ms of host time).
CHAOS_SLICE_S = 1.0
CHAOS_SCHEDULES = (
    "crash_rejoin", "primary_crash", "partition_rejoin", "isolate_rejoin",
    "lossy_network", "random[101]", "random[202]",
)
#: One round (every schedule once) per this many seconds of ``--seconds``.
#: A round takes about 3.5 host seconds on a 2-core x86 box, but
#: ``safe_frac`` is a binomial share of a few percent and needs about 50
#: cases to be steady from seed to seed, so a run holds more rounds than
#: its host time alone would give.
CHAOS_SECONDS_PER_ROUND = 2.2


def chaos_plan(seed: int, seconds: int) -> List[Dict]:
    rounds = max(1, round(seconds / CHAOS_SECONDS_PER_ROUND))
    return [
        dict(schedule=name, seed=derive_seed(seed, "chaos", j))
        for j in range(rounds)
        for name in CHAOS_SCHEDULES
    ]


def _chaos_schedule(name: str, key: str) -> FaultSchedule:
    if name.startswith("random["):
        return FaultSchedule.random(int(name[len("random["):-1]), key)
    return standard_schedules(key)[name]


def _chaos_clients(cluster, keys: List[str], seed: int, size: int) -> None:
    """One paced writer and paced readers; every written value is unique.

    The chaos suite's workload, kept here so that the benchmark's inputs
    stay fixed when the suite changes."""
    sim = cluster.sim

    def writer(client, stream):
        seq = 0
        while sim.now < CHAOS_DURATION:
            yield sim.timeout(stream.exponential(CHAOS_THINK_S))
            seq += 1
            key = keys[seq % len(keys)]
            yield client.put(key, f"{client.host.name}:{seq}", size, max_retries=1)

    def reader(client, stream):
        while sim.now < CHAOS_DURATION:
            yield sim.timeout(stream.exponential(CHAOS_THINK_S))
            yield client.get(keys[int(stream.integers(len(keys)))], max_retries=1)

    for idx, client in enumerate(cluster.clients):
        loop = writer if idx == 0 else reader
        sim.process(loop(client, np.random.default_rng([seed, idx])))


def chaos_case(spec: Dict) -> Case:
    case = Case(f"chaos {spec['schedule']} seed={spec['seed']}", object_bytes=1000)
    cluster = _build(case, seed=spec["seed"], **CHAOS_CLUSTER)
    sim = cluster.sim
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    recorder = check.HistoryRecorder().attach(*cluster.clients)
    _chaos_clients(cluster, keys, spec["seed"], case.object_bytes)
    engine = ChaosEngine(cluster, _chaos_schedule(spec["schedule"], keys[0]), seed=spec["seed"])
    engine.start()
    _simulate(case, sim, lambda pacer: run_sliced(sim, pacer, CHAOS_DURATION, CHAOS_SLICE_S))

    pacer = Pacer()
    mono = pacer.step(check.check_monotonic, recorder.ops)
    mono_s = pacer.paced_s
    try:
        lin = pacer.step(check.check_linearizable, recorder.ops)
        linearizable, states, inconclusive = lin.ok, lin.states, False
    except check.CheckLimitExceeded:
        linearizable, states, inconclusive = False, 0, True
    _book(case, pacer)
    case.verdict = dict(
        monotonic=bool(mono.ok), linearizable=bool(linearizable),
        inconclusive=inconclusive, states=states,
        unsafe=bool(inconclusive or not linearizable or not mono.ok),
        mono_s=mono_s, lin_s=pacer.paced_s - mono_s,
    )
    case.faults = len(engine.events)
    case.outputs["chaos_events"] = engine.events
    _finish(case, cluster, recorder)
    return case


#: name -> (plan, case runner)
WORKLOADS: Dict[str, tuple] = {
    "fig11-failover": (fig11_plan, fig11_case),
    "fabric-300": (fabric_plan, fabric_case),
    "chaos-check": (chaos_plan, chaos_case),
}
