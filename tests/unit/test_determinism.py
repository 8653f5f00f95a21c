"""Determinism regression: performance machinery must not change results.

Each knob that exists purely for speed — the vectorized multicast
fan-out batching, the approx simulation mode's *exact* setting — runs a
small fig5-style put leg twice with the same seed, once per path, and
asserts bit-identical result rows and final simulated time.  This is the
contract that lets each optimization ship at all: a batched schedule,
never a semantic change.
"""

from repro.bench.harness import build_nice, run_to_completion
from repro.core import set_default_sim_mode
from repro.workloads import closed_loop_puts


def _fig5_leg(n_ops=8, sizes=(4, 1 << 14)):
    """A miniature fig5 put leg; returns (result rows, final sim time)."""
    cluster = build_nice(n_storage_nodes=15, n_clients=1)
    client = cluster.clients[0]
    rows = []

    def driver(sim):
        for size in sizes:
            key = f"repl-{size}"
            seed = yield client.put(key, "x", size)
            assert seed.ok
            tally = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            rows.append(
                {
                    "size_bytes": size,
                    "put_ms": tally.mean * 1e3,
                    "stdev_ms": tally.stdev * 1e3,
                    "count": tally.count,
                }
            )

    run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return rows, cluster.sim.now


def test_same_seed_same_results():
    """Two identical runs agree with themselves (sanity)."""
    a = _fig5_leg(n_ops=4, sizes=(1 << 10,))
    b = _fig5_leg(n_ops=4, sizes=(1 << 10,))
    assert a[0] == b[0]
    assert a[1] == b[1]


# -- multicast fan-out batching (DESIGN.md §5g) -------------------------------------


def test_fig5_leg_identical_with_and_without_tx_batching(monkeypatch):
    """Vectorized group fan-out vs per-receiver transmit chains.

    ``REPRO_NO_TX_BATCH=1`` makes every switch built afterwards schedule a
    full per-receiver grant/serialize/finish/deliver chain per multicast
    leg; the default shares one chain across the R legs.  Both paths must
    draw per-receiver loss/jitter in the same RNG order, so every result
    bit must agree.
    """
    monkeypatch.delenv("REPRO_NO_TX_BATCH", raising=False)
    rows_batched, now_batched = _fig5_leg()
    monkeypatch.setenv("REPRO_NO_TX_BATCH", "1")
    rows_unbatched, now_unbatched = _fig5_leg()
    assert rows_batched == rows_unbatched
    assert now_batched == now_unbatched


# -- sim_mode (flow approximation, DESIGN.md §5g) -----------------------------------


def _sim_mode_leg(mode, n_ops=8, sizes=(4, 1 << 14)):
    prior = set_default_sim_mode(mode)
    try:
        return _fig5_leg(n_ops=n_ops, sizes=sizes)
    finally:
        set_default_sim_mode(prior)


def test_sim_mode_approx_is_deterministic():
    """Same seed, same approx run — approximate but reproducible."""
    rows_a, now_a = _sim_mode_leg("approx")
    rows_b, now_b = _sim_mode_leg("approx")
    assert rows_a == rows_b
    assert now_a == now_b


def test_sim_mode_exact_untouched_by_approx_plumbing():
    """Explicitly-requested exact mode equals the pre-knob default path.

    Building a cluster with ``sim_mode="exact"`` (the default) must give
    results bit-identical to a run where the approx default was toggled
    on and back off around it — the process-global default must leak into
    nothing but configs built while it is set.
    """
    rows_a, now_a = _fig5_leg()
    set_default_sim_mode("approx")
    set_default_sim_mode("exact")
    rows_b, now_b = _fig5_leg()
    assert rows_a == rows_b
    assert now_a == now_b


def test_sim_mode_approx_tracks_exact_closely():
    """Approx results are not required to be identical, but must stay
    within the ±5% envelope the mode advertises (EXPERIMENTS.md)."""
    rows_exact, now_exact = _sim_mode_leg("exact")
    rows_approx, now_approx = _sim_mode_leg("approx")
    assert abs(now_approx - now_exact) <= 0.05 * now_exact
    for re_, ra in zip(rows_exact, rows_approx):
        assert ra["count"] == re_["count"]
        assert abs(ra["put_ms"] - re_["put_ms"]) <= 0.05 * re_["put_ms"]


# -- chaos-engine determinism (the reproducibility contract of repro.chaos) ---------


def _chaos_run(seed, schedule_seed):
    """One chaos case: NICE cluster + random schedule + recorded history.

    Returns (chaos event log, canonical op-history tuples, final sim time).
    """
    from repro.bench.chaos import rebuild_for_key, run_case  # noqa: F401
    from repro.bench.harness import build_nice
    from repro.chaos import ChaosEngine, FaultSchedule
    from repro.check import HistoryRecorder
    from repro.workloads.synthetic import keys_in_partition

    import numpy as np

    cluster = build_nice(n_storage_nodes=6, n_clients=2, seed=seed)
    keys = keys_in_partition(0, cluster.config.n_partitions, 2)
    schedule = FaultSchedule.random(schedule_seed, keys[0], horizon=4.0, n_episodes=2)
    recorder = HistoryRecorder()
    sim = cluster.sim

    def loop(client, stream):
        seq = 0
        while sim.now < 5.0:
            yield sim.timeout(stream.exponential(0.05))
            seq += 1
            if stream.random() < 0.5:
                yield client.put(keys[seq % 2], f"{client.host.name}:{seq}", 500, max_retries=1)
            else:
                yield client.get(keys[seq % 2], max_retries=1)

    for idx, client in enumerate(cluster.clients):
        recorder.attach(client)
        sim.process(loop(client, np.random.default_rng([seed, idx])))
    engine = ChaosEngine(cluster, schedule, seed=seed)
    engine.start()
    sim.run(until=5.0)
    return engine.events, recorder.as_tuples(), sim.now


def test_chaos_same_seed_bit_identical():
    """Same (seed, schedule) => identical event log AND identical history."""
    events_a, history_a, now_a = _chaos_run(seed=3, schedule_seed=11)
    events_b, history_b, now_b = _chaos_run(seed=3, schedule_seed=11)
    assert events_a == events_b
    assert history_a == history_b
    assert now_a == now_b
    assert events_a, "schedule should have fired at least one fault"
    assert len(history_a) > 10


def test_chaos_different_schedule_seed_diverges():
    """A different schedule seed must actually change the fault sequence."""
    events_a, _, _ = _chaos_run(seed=3, schedule_seed=11)
    events_b, _, _ = _chaos_run(seed=3, schedule_seed=12)
    assert events_a != events_b


def test_random_schedule_is_deterministic():
    from repro.chaos import FaultSchedule

    a = FaultSchedule.random(99, "k0")
    b = FaultSchedule.random(99, "k0")
    assert a.events == b.events
    assert FaultSchedule.random(100, "k0").events != a.events


# -- leaf-spine fabric (DESIGN.md §5h) ----------------------------------------------


_SCALE_KW = dict(
    n_ops=4,
    configs=[dict(racks=2, hosts_per_rack=3, n_clients=2, budget=512)],
    chaos_duration=4.0,
)


def test_scale_cells_identical_across_jobs_and_warm_cache(tmp_path):
    """Multi-switch cells honor the same contract as the figure suite:
    --jobs 1, --jobs 2 and a warm-cache rerun are bit-identical."""
    from repro.bench import figures, parallel

    parallel.drain_records()
    seq = figures.scale_fabric(**_SCALE_KW)
    parallel.drain_records()
    prior = parallel.configure(jobs=2, cache_dir=str(tmp_path / "bc"))
    try:
        par = figures.scale_fabric(**_SCALE_KW)
        parallel.drain_records()
        warm = figures.scale_fabric(**_SCALE_KW)
        rec_warm = parallel.drain_records()
    finally:
        parallel.configure(**prior)
    assert par.rows == seq.rows
    assert warm.rows == seq.rows
    assert rec_warm and all(r["cache_hit"] for r in rec_warm)


def test_fabric_leg_repeatable():
    """Same seed, same fabric shape => bit-identical rows and clock."""

    def leg():
        cluster = build_nice(n_storage_nodes=6, n_clients=1, n_racks=2)
        client = cluster.clients[0]

        def driver(sim):
            tally = yield closed_loop_puts(client, sim, 6, 1024, keys=["fab0", "fab1"])
            return (tally.count, tally.mean, tally.stdev)

        stats = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
        return stats, cluster.sim.now

    assert leg() == leg()


def test_single_switch_default_untouched_by_fabric_knobs():
    """The pre-fabric seed path: explicit fabric defaults (n_racks=1 etc.)
    must build the identical single-switch cluster and produce bit-identical
    results — the 81-cell baseline depends on it."""
    rows_default, now_default = _fig5_leg(n_ops=4, sizes=(1024,))

    explicit = build_nice(
        n_storage_nodes=15, n_clients=1,
        n_racks=1, n_spines=2, switch_rule_budget=0, ecmp_seed=0,
    )
    assert explicit.fabric is None
    assert explicit.switch.name == "sw0"
    client = explicit.clients[0]
    rows = []

    def driver(sim):
        for size in (1024,):
            key = f"repl-{size}"
            seed = yield client.put(key, "x", size)
            assert seed.ok
            tally = yield closed_loop_puts(client, sim, 4, size, keys=[key])
            rows.append(
                {
                    "size_bytes": size,
                    "put_ms": tally.mean * 1e3,
                    "stdev_ms": tally.stdev * 1e3,
                    "count": tally.count,
                }
            )

    run_to_completion(explicit, explicit.sim.process(driver(explicit.sim)))
    assert rows == rows_default
    assert explicit.sim.now == now_default
