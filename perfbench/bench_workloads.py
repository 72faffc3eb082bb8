"""The benchmark's three workloads, each one seeded unit of work.

A unit builds its own clusters through :class:`Unit` (serial engines,
whatever the environment says), drives the program's public API with
inputs generated from the seed, checks the simulated outputs, and
returns a :class:`UnitResult`: ops completed, failures, a digest of every
simulated output, and the clusters for the work counts.

* ``rpc-create-sweep`` (closed loop): Fig 3a journal configurations and
  Fig 6b interference modes over a sweep of RPC client counts, counted
  creates batched 100 per request, observability detached.
* ``decoupled-cells`` (closed loop, one client per cell): the nine Table I
  cells through ``Cudele.decouple`` with named, materialized creates and
  ``finalize``, then one Nonvolatile Apply over a prepared client journal.
* ``open-loop-mix`` (open loop): ``open_loop_mix.json`` -- the
  ``hotspot_drift`` scenario at 20x its offered rate with 32 sessions and
  auto-migration, observability attached as the scenario runner does.

Accuracy is judged against the paper's normalized shapes recorded in
EXPERIMENTS.md (Fig 3a, Fig 6b, Table I), not absolute numbers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.core.semantics import Consistency, Durability
from repro.journal.events import EventType
from repro.journal.format import JournalCodec
from repro.mds.server import MDSConfig
from repro.obs import Observability
from repro.rados.striper import Striper
from repro.scenario import runner as scenario_runner
from repro.scenario.spec import ScenarioSpec
from repro.workloads.createheavy import parallel_creates_rpc
from repro.workloads.interference import run_interference

HERE = Path(__file__).resolve().parent

# -- rpc-create-sweep sizing ---------------------------------------------
SWEEP_OPS = 6_000
SWEEP_CLIENTS = (1, 4, 8, 16)
SWEEP_INTERFERE_OPS = SWEEP_OPS // 50
FIG3A_CONFIGS = (
    ("no journal", False, 40),
    ("segments=1", True, 1),
    ("segments=10", True, 10),
    ("segments=30", True, 30),
    ("segments=40", True, 40),
)
FIG6B_MODES = ("none", "allow", "block")

# -- decoupled-cells sizing ------------------------------------------------
CELL_FILES = 10_000
CELL_DIR = "/cell"
NVA_DIR = "/sub"

# -- open-loop-mix -----------------------------------------------------------
OPEN_LOOP_SPEC = HERE / "open_loop_mix.json"


@dataclass
class UnitResult:
    """What one unit of a workload did, in simulated terms."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per-op simulated latency in seconds (open loop only).
    latencies: List[float] = field(default_factory=list)
    #: JSON-able record of every simulated output the unit produced.
    outputs: Dict = field(default_factory=dict)
    #: Correctness failures, one line each; empty when the unit is right.
    problems: List[str] = field(default_factory=list)
    #: Scenario extras: peak backlog, migrations, frozen time.
    extra: Dict[str, float] = field(default_factory=dict)
    clusters: List[Cluster] = field(default_factory=list)
    #: Checks too costly for the measured phase; :meth:`finish` runs them.
    deferred: List[Callable[[], None]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def finish(self) -> None:
        for verify in self.deferred:
            verify()
        self.deferred = []

    def digest(self) -> str:
        blob = json.dumps(
            {"outputs": self.outputs, "latencies": [repr(x) for x in self.latencies]},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


class Unit:
    """Cluster factory for one unit: serial engine, optional event hook."""

    def __init__(self, event_hook=None):
        self.result = UnitResult()
        self._event_hook = event_hook

    def cluster(self, seed: int, journal: bool = True, dispatch: int = 40,
                materialize: bool = False, num_mds: int = 1,
                num_osds: int = 3) -> Cluster:
        cluster = Cluster(
            num_osds=num_osds,
            mds_config=MDSConfig(journal_enabled=journal,
                                 dispatch_size=dispatch,
                                 materialize=materialize),
            num_mds=num_mds,
            seed=seed,
            shards=1,  # never inherit REPRO_SHARDS
        )
        if self._event_hook is not None:
            cluster.engine.trace = self._event_hook
        self.result.clusters.append(cluster)
        return cluster


# ---------------------------------------------------------------------------
# rpc-create-sweep
# ---------------------------------------------------------------------------


def _created(cluster: Cluster) -> int:
    return sum(m.stats.counter("creates").value for m in cluster.mds_list)


def rpc_create_sweep(unit: Unit, seed: int) -> UnitResult:
    out = unit.result
    top = max(SWEEP_CLIENTS)

    def owners_done(cluster, n, extra_creates=0):
        want = n * SWEEP_OPS + extra_creates
        out.ops += want
        out.attempted += want
        got = _created(cluster)
        out.check(got == want, f"expected {want} creates at the MDS, saw {got}")

    # Figure 3a: slowdown vs 1 client with the journal off.
    base_cluster = unit.cluster(seed, journal=False)
    base = base_cluster.run(
        parallel_creates_rpc(base_cluster, 1, SWEEP_OPS)).slowest_client_time
    owners_done(base_cluster, 1)
    fig3a: Dict[str, Dict[int, float]] = {}
    for label, journal, dispatch in FIG3A_CONFIGS:
        row = fig3a[label] = {}
        for n in SWEEP_CLIENTS:
            cluster = unit.cluster(seed, journal=journal, dispatch=dispatch)
            res = cluster.run(parallel_creates_rpc(cluster, n, SWEEP_OPS))
            owners_done(cluster, n)
            row[n] = res.slowest_client_time / base
            out.outputs[f"fig3a/{label}/{n}"] = [repr(t) for t in res.client_times]
    out.check(fig3a["no journal"][top] <= fig3a["segments=40"][top],
              "fig3a: no journal slower than segments=40 at the top")
    out.check(fig3a["segments=30"][top] > fig3a["segments=1"][top],
              "fig3a: segments=30 not slower than segments=1 at the top")

    # Figure 6b: interference modes, slowdown vs 1 isolated client.
    base_cluster = unit.cluster(seed)
    base = base_cluster.run(
        run_interference(base_cluster, 1, SWEEP_OPS, mode="none")
    ).slowest_client_time
    owners_done(base_cluster, 1)
    fig6b: Dict[str, Dict[int, float]] = {}
    for mode in FIG6B_MODES:
        row = fig6b[mode] = {}
        for n in SWEEP_CLIENTS:
            cluster = unit.cluster(seed + 1000 * n)
            res = cluster.run(run_interference(
                cluster, n, SWEEP_OPS, mode=mode,
                interfere_ops=SWEEP_INTERFERE_OPS,
            ))
            # The interferer's creates count as ops when they are allowed;
            # under block its -EBUSY is the designed outcome (mds.rejects).
            interfered = n * SWEEP_INTERFERE_OPS if mode == "allow" else 0
            owners_done(cluster, n, interfered)
            if mode == "allow":
                out.failed += res.interferer_errors * SWEEP_INTERFERE_OPS
            if mode == "block":
                out.check(res.interferer_errors == n,
                          f"block: {res.interferer_errors} of {n} interferer "
                          "batches rejected")
            row[n] = res.slowest_client_time / base
            out.outputs[f"fig6b/{mode}/{n}"] = [
                [repr(t) for t in res.client_times], repr(res.interferer_time),
                res.interferer_errors, res.revocations, res.lookups,
                res.rejects,
            ]
    none_v, allow_v, block_v = (fig6b[m][top] for m in FIG6B_MODES)
    out.check(allow_v > none_v, "fig6b: interference not slower than none")
    out.check(abs(block_v - none_v) < 0.5 * (allow_v - none_v),
              "fig6b: block does not track no-interference")
    return out


# ---------------------------------------------------------------------------
# decoupled-cells
# ---------------------------------------------------------------------------


def _cell_names(seed: int, n: int) -> List[str]:
    rng = random.Random(seed)
    return [f"f{v:010x}" for v in rng.sample(range(1 << 40), n)]


def _journal_creates(cluster: Cluster, prefix: str, under: str) -> int:
    """CREATE events under ``under`` in a striped journal (host-side peek,
    no simulated cost)."""
    striper = Striper(cluster.objstore, "metadata", f"{prefix}.journal")
    count = striper.object_count()
    if count == 0:
        return 0
    data = b"".join(
        cluster.objstore.peek("metadata", striper.object_name(i))
        for i in range(count)
    )
    events = JournalCodec.decode_stream(data, tolerate_truncation=True)
    return sum(1 for ev in events
               if ev.op == EventType.CREATE and ev.parent_path == under)


def _verify_cell(out: UnitResult, cluster: Cluster, ns, consistency,
                 durability) -> None:
    cell = f"{consistency.value}/{durability.value}"
    visible = len(cluster.mds.mdstore.listdir(CELL_DIR))
    want = 0 if consistency is Consistency.INVISIBLE else CELL_FILES
    out.check(visible == want,
              f"{cell}: {visible} files in the MDS namespace, want {want}")
    if durability is Durability.LOCAL:
        # Under RPCs there is no client journal for Local Persist to
        # write (EXPERIMENTS.md, Table I).
        want = 0 if ns.dclient is None else CELL_FILES
        got = 0 if ns.dclient is None else ns.dclient.persisted_events
        out.check(got == want, f"{cell}: {got} events persisted, want {want}")
    elif durability is Durability.GLOBAL:
        owner = ns.dclient.name if ns.dclient else cluster.mds.name
        got = _journal_creates(cluster, owner, CELL_DIR)
        out.check(got == CELL_FILES,
                  f"{cell}: {got} events in the object store, want {CELL_FILES}")


def decoupled_cells(unit: Unit, seed: int) -> UnitResult:
    out = unit.result
    names = _cell_names(seed, CELL_FILES)
    times: Dict[tuple, float] = {}
    for durability in Durability:
        for consistency in Consistency:
            cell = f"{consistency.value}/{durability.value}"
            policy = SubtreePolicy.from_semantics(
                consistency, durability, allocated_inodes=0)
            journal = "stream" in policy.plan.mechanisms
            cluster = unit.cluster(seed, journal=journal, materialize=True)
            ns = cluster.run(Cudele(cluster).decouple(CELL_DIR, policy))
            t0 = cluster.now
            cluster.run(ns.create_many(names))
            cluster.run(ns.finalize())
            if journal:
                # finalize() leaves Stream to the caller (it is a
                # workload-phase mechanism): strong/global holds once the
                # open MDS journal segment is flushed, which the model
                # checker also runs explicitly after finalize.
                cluster.run(run_mechanism(
                    "stream", MechanismContext(cluster, CELL_DIR, None)))
            elapsed = cluster.now - t0
            times[(consistency, durability)] = elapsed
            out.ops += CELL_FILES
            out.attempted += CELL_FILES
            out.outputs[f"cell/{cell}"] = repr(elapsed)

            out.deferred.append(functools.partial(
                _verify_cell, out, cluster, ns, consistency, durability))
    for c_lo, c_hi in zip(list(Consistency), list(Consistency)[1:]):
        for d in Durability:
            out.check(times[(c_lo, d)] <= times[(c_hi, d)],
                      f"Table I not monotone: {c_lo.value}->{c_hi.value} "
                      f"at {d.value}")
    for d_lo, d_hi in zip(list(Durability), list(Durability)[1:]):
        for c in Consistency:
            out.check(times[(c, d_lo)] <= times[(c, d_hi)],
                      f"Table I not monotone: {d_lo.value}->{d_hi.value} "
                      f"at {c.value}")

    # Nonvolatile Apply (Fig 5's costliest mechanism) over a prepared
    # client journal, configured as Fig 5 runs it; the journal the
    # restarted MDS reads must hold every create.
    cluster = unit.cluster(seed)
    dclient = cluster.new_decoupled_client()
    cluster.run(dclient.create_many(NVA_DIR, names))
    t0 = cluster.now
    cluster.run(run_mechanism(
        "nonvolatile_apply", MechanismContext(cluster, NVA_DIR, dclient)))
    out.outputs["nonvolatile_apply"] = repr(cluster.now - t0)
    out.ops += CELL_FILES
    out.attempted += CELL_FILES

    def verify_nva():
        journaled = _journal_creates(cluster, cluster.mds.name, NVA_DIR)
        out.check(journaled == CELL_FILES,
                  f"nonvolatile_apply: {journaled} events in the MDS journal, "
                  f"want {CELL_FILES}")

    out.deferred.append(verify_nva)
    return out


# ---------------------------------------------------------------------------
# open-loop-mix
# ---------------------------------------------------------------------------


class _LatencyTap:
    """Stands in for the scenario's all-ops latency histogram and keeps
    every observation (the histogram itself only keeps buckets)."""

    __slots__ = ("hist", "samples")

    def __init__(self, hist, samples: List[float]):
        self.hist = hist
        self.samples = samples

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.hist.observe(value)


def load_open_loop_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(json.loads(OPEN_LOOP_SPEC.read_text()))


def open_loop_prepare(unit: Unit, seed: int, spec: ScenarioSpec):
    cluster = unit.cluster(
        seed, journal=spec.cluster.journal,
        materialize=spec.cluster.materialize,
        num_mds=spec.cluster.num_mds, num_osds=spec.cluster.num_osds,
    )
    obs = Observability(cluster).attach()
    hub = obs.hub
    real_histogram = hub.histogram
    samples = unit.result.latencies

    def histogram(name, *args, **tags):
        hist = real_histogram(name, *args, **tags)
        if name == "scenario_latency_s" and tags.get("op") == "all":
            return _LatencyTap(hist, samples)
        return hist

    hub.histogram = histogram
    return cluster, obs


def open_loop_mix(unit: Unit, seed: int) -> UnitResult:
    out = unit.result
    spec = load_open_loop_spec()
    cluster, obs = open_loop_prepare(unit, seed, spec)
    try:
        # The scenario runner's own per-seed body; run_seed would build
        # the cluster itself, out of reach of the work counts.
        res = cluster.run(scenario_runner._scenario_body(cluster, spec, obs, seed))
    finally:
        obs.detach()
    offered = sum(res["offered"].values())
    completed = sum(res["completed"].values())
    errors = sum(res["errors"].values())
    out.ops = completed
    out.attempted = offered
    out.failed = errors + (offered - completed)
    out.check(res["completed"] == res["offered"],
              f"completed {res['completed']} != offered {res['offered']}")
    out.check(errors == 0, f"{errors} ops returned an error")
    out.check(len(out.latencies) == completed,
              f"{len(out.latencies)} latency samples for {completed} ops")
    out.outputs["scenario"] = res
    out.extra = {
        "peak_backlog": float(res["peak_backlog"]),
        "migrations": float(res["migrations_done"]),
        "migrate_frozen_ms": 1e3 * sum(m["frozen_s"] for m in res["migrations"]),
    }
    return out


WORKLOADS: Dict[str, Callable[[Unit, int], UnitResult]] = {
    "rpc-create-sweep": rpc_create_sweep,
    "decoupled-cells": decoupled_cells,
    "open-loop-mix": open_loop_mix,
}


def prepare(workload: str, seed: int) -> Cluster:
    """The workload's set-up up to its first measured op: first cluster
    built and its namespace prepared (the set-up time probe runs this)."""
    unit = Unit()
    if workload == "rpc-create-sweep":
        cluster = unit.cluster(seed, journal=False)
        cluster.new_client()
        return cluster
    if workload == "decoupled-cells":
        policy = SubtreePolicy.from_semantics(
            Consistency.INVISIBLE, Durability.NONE, allocated_inodes=0)
        cluster = unit.cluster(seed, journal=False, materialize=True)
        cluster.run(Cudele(cluster).decouple(CELL_DIR, policy))
        _cell_names(seed, CELL_FILES)
        return cluster
    if workload == "open-loop-mix":
        spec = load_open_loop_spec()
        cluster, obs = open_loop_prepare(unit, seed, spec)
        admin = cluster.new_client()

        def namespace():
            for sub in spec.subtrees:
                cluster.assign_subtree_mds(sub.path, sub.rank)
                if sub.policy is not None:
                    policy = SubtreePolicy.from_semantics(
                        sub.policy["consistency"], sub.policy["durability"])
                    yield cluster.engine.process(
                        cluster.mon.set_subtree(sub.path, policy))
            for path in scenario_runner._setup_paths(spec):
                yield cluster.engine.process(admin.mkdir(path))

        cluster.run(namespace())
        obs.detach()
        return cluster
    raise KeyError(workload)
