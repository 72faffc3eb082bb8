"""Run one benchmark workload for one seed and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc-create-sweep --seed 1 \\
        --seconds 20 --trace 0

The workload runs serially in this process, unit after unit, for about
``--seconds`` (at least two untraced units, or one untraced and one
traced).  Every unit repeats the same seeded inputs, so every
simulated output and work count must repeat exactly; the run checks
that, and checks each unit's outputs (see ``bench_workloads``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit, plus the Python version, CPU count and revision.

``REPRO_SHARDS``, ``REPRO_JOBS`` and ``REPRO_SCALE`` are removed from
the environment before the program is imported.  Digests and work
counts of every run are kept in ``perfbench/out/runs.json``, keyed by a
hash of ``src/`` and the benchmark's files, so two runs of one seed on one source tree must agree
across processes too; the span log of the last traced unit is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("rpc-create-sweep", "decoupled-cells", "open-loop-mix")
PINNED_ENV = ("REPRO_SHARDS", "REPRO_JOBS", "REPRO_SCALE")
SETUP_PROBES = 5


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- environment -------------------------------------------------------------


def tree_digest() -> str:
    """Hash of the program's source and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted((SRC / "repro").rglob("*.py")) + sorted(
        p for p in HERE.iterdir() if p.suffix in (".py", ".json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Interpreter start through the workload's first measured op, in
    fresh processes (median taken by the caller)."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- statistics --------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (exact, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- work counts -------------------------------------------------------------


def cluster_counts(clusters) -> Dict[str, float]:
    """Exact simulated counts summed over a unit's clusters."""
    c: Dict[str, float] = {
        "process_starts": 0, "messages": 0, "net_bytes": 0, "disk_ios": 0,
        "client_rpcs": 0, "client_retries": 0, "client_redirects": 0,
        "mds_rpcs": 0, "mds_lookups": 0, "mds_revocations": 0,
        "mds_rejects": 0, "mds_requests_failed": 0, "mds_segments": 0,
        "merged_events": 0, "mds_busy_s": 0.0, "mds_span_s": 0.0,
    }
    for cluster in clusters:
        c["process_starts"] += cluster.engine.processes_started
        c["messages"] += cluster.network.total_messages
        c["net_bytes"] += cluster.network.total_bytes
        disks = {id(osd.disk): osd.disk for osd in cluster.objstore.osds}
        for dclient in cluster._dclients:
            disks[id(dclient.disk)] = dclient.disk
            disks[id(dclient.persist_device)] = dclient.persist_device
        c["disk_ios"] += sum(d.requests for d in disks.values())
        for client in cluster.clients:
            stats = client.stats
            c["client_rpcs"] += stats.counter("rpcs_sent").value
            c["client_retries"] += stats.counter("rpc_retries").value
            c["client_redirects"] += stats.counter("redirects").value
        for mds in cluster.mds_list:
            stats = mds.stats
            c["mds_rpcs"] += stats.counter("rpcs").value
            c["mds_lookups"] += stats.counter("lookups").value
            c["mds_revocations"] += stats.counter("revocations").value
            c["mds_rejects"] += stats.counter("rejects").value
            c["mds_requests_failed"] += stats.counter("requests_failed").value
            c["merged_events"] += stats.counter("merged_events").value
            c["mds_segments"] += mds.journal.segments_dispatched
            if cluster.now > 0:
                c["mds_busy_s"] += mds.cpu_utilization(0.0, cluster.now) * cluster.now
                c["mds_span_s"] += cluster.now
    return c


def call_count(counts: Dict[str, int], *names: str) -> int:
    return sum(counts.get(n, 0) for n in names)


def prefix_count(counts: Dict[str, int], prefix: str) -> int:
    return sum(n for name, n in counts.items()
               if name.startswith(prefix) and not name.endswith(".__init__"))


# -- the run -----------------------------------------------------------------


class Run:
    def __init__(self, args: argparse.Namespace):
        import bench_workloads
        from layer_trace import LayerTracer

        self.args = args
        self.bw = bench_workloads
        self.fn = bench_workloads.WORKLOADS[args.workload]
        self.tracer = None
        if args.trace:
            self.tracer = LayerTracer(driver_dir=str(HERE) + os.sep,
                                      program_dir=str(SRC / "repro") + os.sep)
            self.tracer.calibrate()
        self.problems: List[str] = []
        self.digests: Dict[str, set] = {"untraced": set(), "traced": set()}
        self.host_s: Dict[str, List[float]] = {"untraced": [], "traced": []}
        self.layer_self: Dict[str, float] = {}
        self.top: List = []
        self.counts: Optional[Dict[str, int]] = None
        #: The first unit's result (clusters dropped); later units must match.
        self.first = None
        self.cluster_counts: Optional[Dict[str, float]] = None

    def _account(self, kind: str, result, host: float) -> None:
        self.host_s[kind].append(host)
        self.digests[kind].add(result.digest())
        for problem in result.problems:
            if problem not in self.problems:
                self.problems.append(problem)
        if self.first is None:
            self.first = result
        elif result.ops != self.first.ops:
            self.problems.append("ops differ between units of one seed")
        result.clusters = []

    def untraced_unit(self) -> None:
        gc.collect()
        unit = self.bw.Unit()
        t0 = time.perf_counter()
        result = self.fn(unit, self.args.seed)
        host = time.perf_counter() - t0
        result.finish()
        self._account("untraced", result, host)

    def traced_unit(self) -> None:
        tracer = self.tracer
        gc.collect()
        tracer.reset_counts()
        tracer.install()
        unit = self.bw.Unit(event_hook=tracer.event_hook())
        root = tracer.open(tracer.nid("driver:unit", "driver"), "driver")
        t0 = time.perf_counter()
        try:
            result = self.fn(unit, self.args.seed)
        finally:
            host = time.perf_counter() - t0
            tracer.close(root)
            tracer.uninstall()
        result.finish()
        cc = cluster_counts(result.clusters)
        self._account("traced", result, host)
        per_layer, top = tracer.self_times()
        for layer, secs in per_layer.items():
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + secs
        self.top = top
        counts = tracer.snapshot_counts()
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            drift = sorted(k for k in set(counts) | set(self.counts)
                           if counts.get(k) != self.counts.get(k))
            self.problems.append(f"work counts drift between units: {drift[:8]}")
        if self.cluster_counts is None:
            self.cluster_counts = cc
        elif cc != self.cluster_counts:
            self.problems.append("cluster counts drift between units")

    def measure(self) -> None:
        # Whole units (or untraced+traced pairs) until the next one would
        # end nearer past ``--seconds`` than the last one ended before it.
        seconds = self.args.seconds
        start = time.perf_counter()
        rounds = 0
        while True:
            if self.tracer is None:
                self.untraced_unit()
            else:
                self.untraced_unit()
                self.traced_unit()
            rounds += 1
            elapsed = time.perf_counter() - start
            minimum = 2 if self.tracer is None else 1
            if rounds >= minimum and elapsed + elapsed / rounds / 2 >= seconds:
                break
        digests = self.digests["untraced"] | self.digests["traced"]
        if len(self.digests["untraced"]) > 1:
            self.problems.append("simulated outputs differ between runs of one seed")
        if self.digests["traced"] and self.digests["traced"] != self.digests["untraced"]:
            self.problems.append("traced and untraced simulated outputs differ")
        self.digest = sorted(digests)[0]

    def check_record(self, source: str) -> None:
        """Compare digest and counts with earlier runs of this seed on
        this source tree, then record this run's."""
        path = OUT / "runs.json"
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            record = {}
        key = f"{source}/{self.args.workload}/{self.args.seed}"
        entry = record.setdefault(key, {})
        if entry.get("digest", self.digest) != self.digest:
            self.problems.append("simulated outputs differ from an earlier run "
                                 "of this seed")
        entry["digest"] = self.digest
        if self.counts is not None:
            mine = {"calls": self.counts, "clusters": self.cluster_counts}
            if "counts" in entry and entry["counts"] != mine:
                self.problems.append("work counts differ from an earlier run "
                                     "of this seed")
            entry["counts"] = mine
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
        tmp.replace(path)

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, setup: List[float]) -> Dict[str, tuple]:
        first = self.first
        return {
            "sim_ops_per_host_s": (
                first.ops / statistics.median(self.host_s["untraced"]), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "completed_op_share": (
                (first.attempted - first.failed) / first.attempted, "fraction"),
        }

    def per_layer(self) -> Dict[str, tuple]:
        from layer_trace import LAYERS

        ops, extra = self.first.ops, self.first.extra
        latencies = self.first.latencies
        k = self.counts
        cc = self.cluster_counts
        units = len(self.host_s["traced"])
        total = sum(self.layer_self.values())
        self_s = {layer: secs / units for layer, secs in self.layer_self.items()}
        m: Dict[str, tuple] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
            m[f"{layer}.self_share"] = (
                self.layer_self.get(layer, 0.0) / total, "fraction")

        def per_op(value: float) -> float:
            return value / ops

        events = k["#events"]
        untraced = statistics.median(self.host_s["untraced"])
        m["sim.events_per_op"] = (per_op(events), "count/op")
        m["sim.resumes_per_op"] = (per_op(k["#resumes"]), "count/op")
        m["sim.process_starts_per_op"] = (per_op(cc["process_starts"]), "count/op")
        m["sim.messages_per_op"] = (per_op(cc["messages"]), "count/op")
        m["sim.net_bytes_per_op"] = (per_op(cc["net_bytes"]), "B/op")
        m["sim.disk_ios_per_op"] = (per_op(cc["disk_ios"]), "count/op")
        m["sim.host_us_per_event"] = (1e6 * untraced / events, "us/event")
        rpcs = cc["client_rpcs"]
        m["client.rpcs_per_op"] = (per_op(rpcs), "count/op")
        m["client.rpc_useful_ratio"] = (
            (rpcs - cc["client_retries"] - cc["client_redirects"]) / rpcs
            if rpcs else 1.0, "ratio")
        m["client.journal_appends_per_op"] = (
            per_op(call_count(k, "repro.journal.journaler.LocalJournal.append")),
            "count/op")
        m["mds.rpcs_per_op"] = (per_op(cc["mds_rpcs"]), "count/op")
        m["mds.lookups_per_op"] = (per_op(cc["mds_lookups"]), "count/op")
        m["mds.revocations_per_op"] = (per_op(cc["mds_revocations"]), "count/op")
        m["mds.rejects"] = (cc["mds_rejects"], "count")
        m["mds.requests_failed"] = (cc["mds_requests_failed"], "count")
        m["mds.mdstore_calls_per_op"] = (
            per_op(prefix_count(k, "repro.mds.mdstore.MetadataStore.")), "count/op")
        m["mds.segments_dispatched_per_op"] = (per_op(cc["mds_segments"]), "count/op")
        m["mds.cpu_util"] = (
            cc["mds_busy_s"] / cc["mds_span_s"] if cc["mds_span_s"] else 0.0,
            "fraction")
        m["mds.migrations"] = (extra.get("migrations", 0.0), "count")
        m["mds.migrate_frozen_ms"] = (extra.get("migrate_frozen_ms", 0.0), "ms")
        encode = "repro.journal.format.JournalCodec.encode_event"
        m["journal.events_encoded_per_op"] = (per_op(call_count(k, encode)), "count/op")
        m["journal.bytes_encoded_per_op"] = (
            per_op(call_count(k, encode + "#bytes")), "B/op")
        m["journal.events_decoded_per_op"] = (
            per_op(call_count(k, "repro.journal.format.JournalCodec.decode_event")),
            "count/op")
        m["rados.osd_writes_per_op"] = (
            per_op(call_count(k, "repro.rados.osd.OSD.write_object")), "count/op")
        m["rados.osd_reads_per_op"] = (
            per_op(call_count(k, "repro.rados.osd.OSD.read_object")), "count/op")
        m["rados.rmw_per_op"] = (
            per_op(call_count(k, "repro.rados.cluster.ObjectStore.read_modify_write")),
            "count/op")
        mon = "repro.mon.monitor.Monitor."
        m["mon.lookups_per_op"] = (per_op(call_count(
            k, *(mon + f for f in ("resolve", "resolve_entry", "subtree_entry",
                                   "authority_of", "authority_entry")))),
            "count/op")
        m["core.merged_events_per_op"] = (per_op(cc["merged_events"]), "count/op")
        hub = "repro.obs.metrics.MetricsHub."
        m["obs.metric_lookups_per_op"] = (per_op(call_count(
            k, *(hub + f for f in ("counter", "gauge", "histogram", "get")))),
            "count/op")
        m["obs.spans_per_op"] = (
            per_op(call_count(k, "repro.obs.spans.Tracer.start")), "count/op")
        m["scenario.peak_backlog"] = (extra.get("peak_backlog", 0.0), "count")
        m["scenario.latency_samples"] = (float(len(latencies)), "count")
        m["scenario.sim_p50_ms"] = (
            1e3 * quantile(latencies, 0.50) if latencies else 0.0, "ms")
        m["scenario.sim_p999_ms"] = (
            1e3 * quantile(latencies, 0.999) if latencies else 0.0, "ms")
        m["driver.self_share"] = (self.layer_self.get("driver", 0.0) / total, "fraction")
        m["other.self_share"] = (
            sum(v for layer, v in self.layer_self.items()
                if layer not in LAYERS and layer != "driver") / total, "fraction")
        m["tracing_overhead"] = (
            statistics.median(self.host_s["traced"]) / untraced, "ratio")
        return m


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    setup = setup_seconds(args.workload, args.seed)
    run = Run(args)
    run.measure()
    source = tree_digest()
    run.check_record(source)

    print(f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  "
          f"revision {git_revision()}  tree {source}")
    ops, attempted, failed = run.first.ops, run.first.attempted, run.first.failed
    latencies = run.first.latencies
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/unit {ops}  units untraced {len(run.host_s['untraced'])} "
          f"traced {len(run.host_s['traced'])}  digest {run.digest[:16]}")
    print("host s/unit untraced "
          + " ".join(f"{t:.4f}" for t in run.host_s["untraced"])
          + ("  traced " + " ".join(f"{t:.4f}" for t in run.host_s["traced"])
             if run.host_s["traced"] else ""))
    print("setup s " + " ".join(f"{t:.4f}" for t in setup))
    print(f"failed_op_share {failed / attempted:.6g} fraction ({failed}/{attempted})")
    if latencies:
        beyond = len(latencies) - math.ceil(0.999 * len(latencies))
        print(f"sim latency over {len(latencies)} ops ({beyond} beyond p99.9): "
              f"p50 {1e3 * quantile(latencies, 0.5):.6g} ms  "
              f"p99.9 {1e3 * quantile(latencies, 0.999):.6g} ms")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = run.per_layer()
        OUTPUT = OUT / f"spans-{args.workload}.npz"
        run.tracer.write_spans(OUTPUT, meta={"workload": args.workload,
                                             "seed": args.seed, "src": source})
        print(f"spans {run.tracer.span_count()} in last traced unit -> "
              f"{OUTPUT.relative_to(ROOT)}")
        for name, secs in run.top:
            print(f"  top self  {secs:9.4f} s  {name}")
    else:
        metrics = run.end_to_end(setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
