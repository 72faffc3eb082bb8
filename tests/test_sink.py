"""The record sink: one instrumentation seam per cluster.

Observability and the history recorder subscribe to a cluster's sink
independently: any number of clusters, any attach/detach order, and no
process-global hook.
"""

import pytest

from repro.cluster import Cluster
from repro.conformance.recorder import HistoryRecorder
from repro.obs import observe
from repro.sink import RECORDS, Sink


def _write_objects(cluster, n):
    osd = cluster.objstore.osds[0]
    for i in range(n):
        cluster.run(osd.write_object(f"obj{i}", b"payload"))


def _mutations(obs):
    return sum(m.value for m in obs.hub.metrics()
               if m.name == "object_mutations")


@pytest.mark.parametrize("first", ["a", "b"])
def test_observed_clusters_count_only_their_own_object_writes(first):
    clusters = {"a": Cluster(seed=1), "b": Cluster(seed=2)}
    obs = {k: observe(c) for k, c in clusters.items()}
    try:
        _write_objects(clusters["a"], 3)
        assert _mutations(obs["a"]) == 3
        assert _mutations(obs["b"]) == 0
        other = "b" if first == "a" else "a"
        obs[first].detach()
        _write_objects(clusters[first], 2)
        _write_objects(clusters[other], 2)
        assert _mutations(obs[first]) == (3 if first == "a" else 0)
        assert _mutations(obs[other]) == (5 if other == "a" else 2)
    finally:
        for o in obs.values():
            o.detach()


def test_recorder_attaches_after_obs_on_the_same_cluster():
    cluster = Cluster(seed=1)
    obs = observe(cluster)
    recorder = HistoryRecorder.attach(cluster)
    try:
        client = cluster.new_client()
        cluster.run(client.mkdir("/d"))
        cluster.run(cluster.mds.journal.flush())
        kinds = {ev.kind for ev in recorder.history.events}
        assert {"invoke", "visible", "complete", "persisted"} <= kinds
        assert obs.hub.get("ops", daemon="client1", mechanism="rpc",
                           op="mkdir").value == 1
    finally:
        recorder.detach()
        obs.detach()
    assert cluster.sink is None


def test_recorder_detached_before_obs_leaves_no_stale_hook():
    cluster = Cluster(seed=1)
    recorder = HistoryRecorder.attach(cluster)
    obs = observe(cluster)
    recorder.detach()
    assert cluster.sink.subscribers == (obs,)
    obs.detach()
    fresh = HistoryRecorder.attach(Cluster(seed=2))
    fresh.detach()


class _Spans:
    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def io_begin(self, osd, op, name):
        return f"{self.tag}:{name}"

    def io_end(self, token, osd, op, nbytes):
        self.log.append((self.tag, token, nbytes))


class _Writes:
    def __init__(self, log):
        self.log = log

    def object_write(self, osd, obj, action, nbytes):
        self.log.append(("writes", obj.name, action))


def test_records_resolve_once_and_route_tokens_per_subscriber():
    log = []
    a, b, w = _Spans(log, "a"), _Spans(log, "b"), _Writes(log)
    one = Sink([a])
    assert one.io_begin(None, "write", "o") == "a:o"
    # A record nobody implements is the declared no-op.
    assert one.object_write.__func__ is Sink.object_write
    sink = Sink([a, w, b])
    token = sink.io_begin(None, "write", "o")
    assert token == ("a:o", "b:o")
    sink.io_end(token, None, "write", 7)
    assert log == [("a", "a:o", 7), ("b", "b:o", 7)]
    assert set(RECORDS) >= {"io_begin", "io_end", "object_write"}


def test_end_record_without_its_begin_is_rejected():
    class Broken:
        def io_end(self, token, osd, op, nbytes):
            pass

    with pytest.raises(TypeError, match="io_begin"):
        Sink([Broken()])


def test_any_attach_and_detach_order_rewires_every_daemon():
    cluster = Cluster(seed=3)
    obs = observe(cluster)
    recorder = HistoryRecorder.attach(cluster)
    client = cluster.new_client()
    assert client.sink is cluster.sink
    assert cluster.sink.subscribers == (obs, recorder)
    obs.detach()
    assert cluster.mds.journal.sink.subscribers == (recorder,)
    assert client.sink is cluster.sink
    recorder.detach()
    assert client.sink is None and cluster.objstore.osds[0].sink is None
