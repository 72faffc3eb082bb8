"""The pluggable ready-set scheduler: off by default, identity at 0.

The model checker drives the engine through ``Engine.scheduler``; the
contract that keeps it sound (and keeps everyone else unaffected) is
twofold: with no scheduler attached nothing changed at all, and a
scheduler that returns 0 at every decision reproduces the default
seq-order run event-for-event.
"""

from repro.cluster import Cluster
from repro.conformance.recorder import HistoryRecorder
from repro.sim.engine import Engine, Timeout


def _workload(eng, log):
    """A mixed workload exercising heap ties, zero-delay chains and
    event wakeups."""
    gate = eng.event()

    def ticker(tag, delays):
        for d in delays:
            yield eng.sleep(d)
            log.append((eng.now, tag))

    def setter():
        yield Timeout(eng, 1.0)
        log.append((eng.now, "set"))
        gate.succeed()

    def waiter():
        yield gate
        yield eng.sleep(0.0)
        log.append((eng.now, "woke"))

    eng.process(ticker("a", [1.0, 0.0, 0.5]), name="a")
    eng.process(ticker("b", [1.0, 0.5, 0.0]), name="b")
    eng.process(setter(), name="setter")
    eng.process(waiter(), name="waiter")


def _trace_run(scheduler):
    eng = Engine()
    log = []
    trace = []
    eng.trace = lambda t, ev: trace.append((t, type(ev).__name__))
    _workload(eng, log)
    eng.scheduler = scheduler
    eng.run()
    return log, trace, eng.now


def test_scheduler_defaults_to_none():
    assert Engine().scheduler is None


def test_zero_scheduler_reproduces_default_run_event_for_event():
    base_log, base_trace, base_now = _trace_run(None)
    ctrl_log, ctrl_trace, ctrl_now = _trace_run(lambda events: 0)
    assert ctrl_log == base_log
    assert ctrl_trace == base_trace
    assert ctrl_now == base_now


def test_scheduler_sees_only_genuine_ties():
    sizes = []

    def spy(events):
        sizes.append(len(events))
        return 0

    log, _, _ = _trace_run(spy)
    assert log  # the workload ran to completion
    # Every offered ready set has at least one event; ties (>= 2) occur
    # at the shared instants this workload engineers.
    assert all(n >= 1 for n in sizes)
    assert any(n >= 2 for n in sizes)


def test_last_index_scheduler_still_fires_everything():
    base_log, _, _ = _trace_run(None)
    alt_log, _, alt_now = _trace_run(lambda events: len(events) - 1)
    # Same multiset of observations (nothing lost, nothing invented),
    # possibly in a different same-instant order.
    assert sorted(alt_log) == sorted(base_log)


def test_controlled_run_respects_until():
    eng = Engine()
    log = []
    _workload(eng, log)
    eng.scheduler = lambda events: 0
    eng.run(until=1.0)
    assert eng.now == 1.0
    assert all(t <= 1.0 for t, _ in log)


def test_zero_scheduler_cluster_history_is_byte_identical():
    def history(scheduler):
        cluster = Cluster(seed=7)
        cluster.engine.scheduler = scheduler
        recorder = HistoryRecorder.attach(cluster)
        try:
            client = cluster.new_client()
            cluster.run(client.mkdir("/job"))

            def ops(c, names):
                for n in names:
                    yield from c.create(f"/job/{n}")

            a = cluster.new_client()
            b = cluster.new_client()
            pa = cluster.engine.process(ops(a, ["f0", "f1"]))
            pb = cluster.engine.process(ops(b, ["g0", "g1"]))

            def join():
                yield cluster.engine.all_of([pa, pb])

            cluster.run(join())
            recorder.record_snapshot(cluster.mds, "/job")
            return recorder.history.canonical()
        finally:
            recorder.detach()

    assert history(lambda events: 0) == history(None)
