"""Attach/detach observability to a simulated cluster.

:class:`Observability` bundles a :class:`~repro.obs.metrics.MetricsHub`
and a :class:`~repro.obs.spans.Tracer`, and subscribes to one
:class:`~repro.cluster.Cluster`'s record sink (:mod:`repro.sink`): it
turns the records the daemons emit into metrics and spans.  Every
metric name, tag and span name lives here.  Clients created after
attachment inherit the sink through the cluster's factories.

Zero-cost when detached
-----------------------
Every instrumented hot path guards on ``sink is not None`` — one branch
per hook site, shared with every other subscriber.  Observation is pure
host-side bookkeeping: it schedules no engine events, draws no
randomness, and never touches simulated state, so an instrumented run
is *simulation-identical* to a bare one (the bench suite enforces
byte-identical artifacts with obs off).  Observability and the
conformance history recorder attach and detach independently, in any
order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsHub
from repro.obs.spans import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["Observability", "observe", "policy_tag"]


def policy_tag(policy) -> str:
    """Deterministic tag for the subtree policy in force.

    ``"<consistency>/<durability>"`` for a
    :class:`~repro.core.policy.SubtreePolicy`, ``"posix"`` for plain
    (un-decoupled) subtrees, ``"custom"`` for policy-like objects
    without the two composition fields.  Never ``str(policy)`` — a
    default repr would leak memory addresses into artifacts.
    """
    if policy is None:
        return "posix"
    consistency = getattr(policy, "consistency", None)
    durability = getattr(policy, "durability", None)
    if isinstance(consistency, str) and isinstance(durability, str):
        return f"{consistency}/{durability}"
    return "custom"


class Observability:
    """Metrics + tracing for one cluster; attach to start observing."""

    def __init__(self, cluster: "Cluster", profile: bool = False):
        self.cluster = cluster
        self.engine = cluster.engine
        self.hub = MetricsHub()
        self.tracer = Tracer(cluster.engine)
        #: When set, the engine's sleep hook attributes simulated busy
        #: time (every ``Engine.sleep`` — the CPU/cost-model delays) to
        #: the span in force when the sleep was issued.
        self.profile = profile
        self._prev_sleep_hook = None

    # -- wiring ----------------------------------------------------------
    @property
    def attached(self) -> bool:
        return any(s is self for s in self.cluster.subscribers)

    def attach(self) -> "Observability":
        self.cluster.attach(self)  # raises when already attached
        if self.profile:
            self._prev_sleep_hook = self.engine.sleep_hook
            self.engine.sleep_hook = self._on_sleep
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        self.cluster.detach(self)
        if self.profile:
            self.engine.sleep_hook = self._prev_sleep_hook
            self._prev_sleep_hook = None

    def __enter__(self) -> "Observability":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def _on_sleep(self, delay: float) -> None:
        prev = self._prev_sleep_hook
        if prev is not None:
            prev(delay)
        span = self.tracer.current()
        if span is not None:
            span.busy_s += delay

    def _timed(self, span, histogram) -> None:
        """End ``span`` and observe its duration into ``histogram``."""
        self.tracer.end(span)
        histogram.observe(span.duration_s)

    # -- records (see repro.sink) ----------------------------------------
    def op_begin(self, client, mechanism, op, path, names):
        # RPCs and batched creates are spanned; single-path appends
        # (decoupled mkdir/unlink/rename) are only timed.
        span = None
        if mechanism == "rpc" or op == "create":
            span = self.tracer.start(
                "client.rpc" if mechanism == "rpc" else "client.append",
                daemon=client.name, mechanism=mechanism, op=op,
            )
        return span, self.engine.now, mechanism, op

    def op_end(self, token, client, count, reply=None):
        span, t0, mechanism, op = token
        if span is not None:
            self.tracer.end(span)
        self.hub.histogram(
            "op_latency_s", daemon=client.name, mechanism=mechanism, op=op,
        ).observe(self.engine.now - t0)
        self.hub.counter(
            "ops", daemon=client.name, mechanism=mechanism, op=op
        ).incr(count)

    def local_persist(self, dclient):
        self.hub.counter(
            "local_persists", daemon=dclient.name, mechanism="local_persist"
        ).incr()

    def scan_begin(self, actor, source):
        return self.tracer.start(
            "recover.scan", daemon=actor, mechanism="recovery", source=source,
        )

    def scan_end(self, span, actor, source, scan):
        self.tracer.end(span)
        self.hub.histogram(
            "recovery_scan_events", daemon=actor, mechanism="recovery",
            source=source,
        ).observe(len(scan.events))
        if scan.damage is not None:
            self.hub.counter(
                "recovery_scan_damage", daemon=actor, mechanism="recovery",
                damage=scan.damage,
            ).incr()

    def mds_submit(self, mds, request):
        if request.span is None:
            # Stamp the submitter's span onto the request — trace context
            # in the RPC header, carried across the queue hop.
            request.span = self.tracer.current()

    def handle_begin(self, mds, request):
        return self.tracer.start(
            "mds.handle", daemon=mds.name, mechanism="rpc",
            parent=request.span, op=request.op,
        )

    def handle_end(self, span, mds, request):
        resolver = mds.policy_resolver
        self._timed(span, self.hub.histogram(
            "handle_latency_s", daemon=mds.name, mechanism="rpc",
            op=request.op, policy=policy_tag(
                resolver(request.path) if resolver is not None else None
            ),
        ))
        self.hub.counter(
            "requests", daemon=mds.name, mechanism="rpc", op=request.op,
        ).incr(request.count)
        # Per governing subtree: the load signal HotspotDetector reads.
        entry = self.cluster.mon.subtree_entry(request.path)
        self.hub.counter(
            "subtree_ops", daemon=mds.name, mechanism="rpc",
            subtree=entry[0] if entry is not None else "/",
        ).incr(request.count)

    def apply_begin(self, mds):
        return self.tracer.start(
            "mds.apply", daemon=mds.name, mechanism="volatile_apply",
        )

    def apply_end(self, span, mds, count):
        self.tracer.end(span)
        self.hub.counter(
            "applied_events", daemon=mds.name, mechanism="volatile_apply",
        ).incr(count)

    def journal_begin(self, mds):
        return self.tracer.start(
            "mds.journal.append", daemon=mds.name, mechanism="stream",
        )

    def journal_end(self, span, mds):
        self._timed(span, self.hub.histogram(
            "journal_append_latency_s", daemon=mds.name, mechanism="stream",
        ))

    def dispatch_begin(self, journal):
        return self.tracer.start(
            "journal.dispatch", daemon=journal.src, mechanism="stream"
        )

    def dispatch_end(self, span, journal):
        self._timed(span, self.hub.histogram(
            "dispatch_latency_s", daemon=journal.src, mechanism="stream"
        ))
        self.hub.counter(
            "segments_dispatched", daemon=journal.src, mechanism="stream"
        ).incr()

    def migrate_begin(self, src, dst, subtree):
        return self.tracer.start(
            "mds.migrate", daemon=src.name, mechanism="migrate",
            subtree=subtree, dst=dst.name,
        )

    def migrate_end(self, span, src, result):
        self.tracer.end(span)
        self.hub.counter(
            "mds.migrate.count", daemon=src.name, mechanism="migrate",
            status=result.status,
        ).incr()
        self.hub.histogram(
            "migrate_latency_s", daemon=src.name, mechanism="migrate",
        ).observe(span.duration_s)
        if result.status == "done":
            for name, value in (
                ("mds.migrate.frozen_s", result.frozen_s),
                ("mds.migrate.rows", float(result.rows)),
                ("mds.migrate.moved_events", float(result.moved_events)),
            ):
                self.hub.histogram(
                    name, daemon=src.name, mechanism="migrate",
                ).observe(value)

    def io_begin(self, osd, op, name):
        return self.tracer.start(
            "osd.write" if op == "write" else "osd.read",
            daemon=osd.name, mechanism="rados", obj=name,
        )

    def io_end(self, span, osd, op, nbytes):
        self._timed(span, self.hub.histogram(
            "io_latency_s", daemon=osd.name, mechanism="rados", op=op
        ))
        self.hub.counter(
            "bytes_written" if op == "write" else "bytes_read",
            daemon=osd.name, mechanism="rados",
        ).incr(int(nbytes))

    def object_write(self, osd, obj, action, nbytes):
        self.hub.counter(
            "object_mutations", daemon="objstore", mechanism="rados",
            action=action,
        ).incr()
        self.hub.counter(
            "object_bytes", daemon="objstore", mechanism="rados",
            action=action,
        ).incr(nbytes)

    def mechanism_begin(self, name, subtree):
        return self.tracer.start(
            f"mech.{name}", daemon="cudele", mechanism=name, subtree=subtree,
        )

    def mechanism_end(self, span, name):
        self._timed(span, self.hub.histogram(
            "mechanism_latency_s", daemon="cudele", mechanism=name
        ))
        self.hub.counter(
            "mechanism_runs", daemon="cudele", mechanism=name
        ).incr()


def observe(cluster: "Cluster", profile: bool = False) -> Observability:
    """Build and attach an :class:`Observability` in one call."""
    return Observability(cluster, profile=profile).attach()
