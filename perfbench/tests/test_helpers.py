"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from perfbench.pace import Pacer, run_sliced, run_until_sliced
from perfbench.report import failed_count, latencies_ms, unsafe_count
from perfbench.spans import SpanTracer
from perfbench.stats import derive_seed, digest, median, share, tail_percentile


# -- percentile rule -----------------------------------------------------------
def test_p99_when_enough_samples_lie_beyond_it():
    values = list(range(1, 2001))  # 2000 samples: p99 leaves 20 beyond
    value, q, n = tail_percentile(values)
    assert (value, q, n) == (1980, 99.0, 2000)


def test_percentile_backs_off_to_leave_ten_samples_beyond():
    values = list(range(1, 501))  # p99 would leave only 5 beyond
    value, q, n = tail_percentile(values)
    assert value == 490
    assert sum(1 for v in values if v > value) == 10
    assert q == pytest.approx(98.0)
    assert n == 500


def test_exactly_ten_beyond_at_the_boundary():
    values = list(range(1, 1001))
    value, q, _ = tail_percentile(values)
    assert value == 990 and q == 99.0
    assert sum(1 for v in values if v > value) == 10


def test_small_samples_never_fall_below_the_median():
    values = [5.0, 1.0, 3.0, 4.0, 2.0]
    value, q, n = tail_percentile(values)
    assert value == 3.0 and n == 5 and q == 60.0
    assert median(values) == 3.0


def test_percentile_input_order_is_irrelevant():
    values = [float(v) for v in range(300)]
    assert tail_percentile(values) == tail_percentile(list(reversed(values)))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time -------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = tracer.wrap(leaf, "leaf", "kv")
    wrapped_middle = tracer.wrap(middle, "middle", "transport")
    wrapped_outer = tracer.wrap(outer, "outer", "sim")
    wrapped_outer()

    assert tracer.inclusive_s("sim") == 8.5
    assert tracer.self_s("sim") == 3.0
    assert tracer.inclusive_s("transport") == 5.5
    assert tracer.self_s("transport") == 1.5
    assert tracer.self_s("kv") == 4.0
    assert tracer.calls("kv") == 2
    # Self times partition the outermost span exactly.
    assert sum(tracer.self_s(l) for l in ("sim", "transport", "kv")) == 8.5
    depths = {label: depth for label, _, _, depth in tracer.spans}
    assert depths == {"leaf": 2, "middle": 1, "outer": 0}


def test_self_time_is_booked_when_the_call_raises():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom", "kv")
    outer = tracer.wrap(lambda: _swallow(wrapped), "outer", "sim")
    outer()
    assert tracer.self_s("kv") == 1.0
    assert tracer.self_s("sim") == 0.0


def _swallow(fn):
    try:
        fn()
    except KeyError:
        pass


def test_install_restores_own_and_inherited_methods():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    module = types.ModuleType("perfbench_fake_targets")
    module.Child = Child
    sys.modules[module.__name__] = module
    try:
        tracer = SpanTracer()
        targets = (("kv", module.__name__, "Child", ("f", "g")),)
        tracer.install(targets)
        assert Child().f() == "base" and Child().g() == "child"
        assert tracer.calls("kv") == 2
        tracer.uninstall()
        assert "f" not in vars(Child)
        assert vars(Child)["g"].__name__ == "g"
    finally:
        del sys.modules[module.__name__]


# -- failure and unsafe shares ---------------------------------------------------
def _op(kind, status, invoke=0.0, ret=0.001):
    return types.SimpleNamespace(kind=kind, status=status, invoke_ts=invoke,
                           return_ts=ret, completed=ret is not None)


def test_failed_share_counts_errors_timeouts_and_unreturned_ops():
    ops = [
        _op("put", "ok"),
        _op("get", "ok"),
        _op("get", "miss"),  # an answer, not a failure
        _op("put", "timeout", ret=2.0),
        _op("get", "error"),
        _op("put", "pending", ret=None),  # never returned
    ]
    assert failed_count(ops) == 3
    assert share(failed_count(ops), len(ops)) == 0.5


def test_latencies_only_from_successful_ops_of_the_kind():
    ops = [_op("put", "ok", 1.0, 1.002), _op("put", "timeout", 1.0, 3.0),
           _op("get", "miss", 2.0, 2.0005)]
    assert latencies_ms(ops, "put") == [pytest.approx(2.0)]
    assert latencies_ms(ops, "get") == [pytest.approx(0.5)]


def test_unsafe_share_keeps_rejected_and_inconclusive_cases():
    verdicts = [
        {"unsafe": False},
        {"unsafe": True},   # checker rejected the history
        {"unsafe": True},   # checker could not decide
        {"unsafe": False},
    ]
    assert unsafe_count(verdicts) == 2
    assert share(unsafe_count(verdicts), len(verdicts)) == 0.5


def test_share_rejects_nothing_attempted_and_impossible_counts():
    with pytest.raises(ValueError):
        share(0, 0)
    with pytest.raises(ValueError):
        share(3, 2)
    assert share(0, 4) == 0.0


# -- seeds and digests -----------------------------------------------------------
def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "chaos", 0) == derive_seed(1, "chaos", 0)
    seeds = {derive_seed(s, "chaos", j) for s in range(5) for j in range(5)}
    assert len(seeds) == 25
    assert all(0 <= s < 2**31 for s in seeds)


def test_digest_keeps_every_float_digit():
    assert digest({"x": 0.1 + 0.2}) != digest({"x": 0.3})
    assert digest({"a": 1, "b": [1.5]}) == digest({"b": [1.5], "a": 1})
    assert len(digest([])) == 64


# -- paced time ------------------------------------------------------------------
class Script:
    """A probe that returns the given reference samples in turn."""

    def __init__(self, *samples):
        self.samples = list(samples)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.samples.pop(0)


def test_pacing_scales_each_step_by_the_samples_around_it():
    clock = FakeClock()
    probe = Script(2.0, 2.0, 4.0)
    pacer = Pacer(probe=probe, nominal_s=1.0, clock=clock)

    def work(seconds):
        clock.now += seconds
        return seconds

    assert pacer.step(work, 3.0) == 3.0  # samples 2, 2: half speed
    pacer.step(work, 6.0)                # samples 2, 4: a third of it
    assert probe.calls == 3              # the sample after a step is reused
    assert pacer.raw_s == 9.0
    assert pacer.paced_s == pytest.approx(3.0 * 1.0 / 2.0 + 6.0 * 1.0 / 3.0)


def test_pacing_books_a_step_that_raises():
    clock = FakeClock()
    pacer = Pacer(probe=Script(1.0, 1.0), nominal_s=1.0, clock=clock)

    def fail():
        clock.now += 2.0
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        pacer.step(fail)
    assert pacer.raw_s == pacer.paced_s == 2.0


def _kernel():
    src = str(Path(__file__).resolve().parents[2] / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.sim import Simulator

    sim = Simulator()
    log = []

    def proc(name, delays):
        for delay in delays:
            yield sim.timeout(delay)
            log.append((sim.now, name))

    sim.process(proc("a", [0.3, 0.3, 0.0, 0.25, 1.0]))
    sim.process(proc("b", [0.6, 0.1, 0.1, 0.05]))
    last = sim.process(proc("c", [0.05] * 20))
    return sim, log, last


def test_sliced_run_processes_events_as_one_run_does():
    sim, whole, _ = _kernel()
    sim.run(until=2.5)
    sliced_sim, sliced, _ = _kernel()
    pacer = Pacer(probe=lambda: 1.0)
    assert run_sliced(sliced_sim, pacer, 2.5, 0.3) == sim.now == 2.5
    assert sliced == whole


def test_sliced_run_until_stops_where_one_call_does():
    sim, whole, last = _kernel()
    sim.run_until(last, until=100.0)
    sliced_sim, sliced, sliced_last = _kernel()
    run_until_sliced(sliced_sim, Pacer(probe=lambda: 1.0), sliced_last, 100.0, 0.07)
    assert sliced_last.processed
    assert sliced == whole and sliced_sim.now == sim.now
