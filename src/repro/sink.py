"""The instrumentation seam: daemons emit typed records to one sink.

Every daemon of a :class:`~repro.cluster.Cluster` (MDS ranks and their
journals, OSDs, clients, the cluster itself) carries one attribute,
``sink``: None when nothing observes the cluster, else the cluster's
:class:`Sink`.  Each hook site is one ``if sink is not None:`` branch
emitting one record, a :class:`Sink` method naming what happened.  What
a record means is the subscribers' business: :class:`repro.obs.
Observability` turns records into metrics and spans,
:class:`repro.conformance.HistoryRecorder` into history events.

A subscriber implements only the records it uses.  A :class:`Sink` is
built for one subscriber set (``Cluster.attach``/``detach`` build a new
one and rewire every daemon) and resolves each record once: to the
no-op below, to the one implementer's bound method, or to a fan-out.
A ``*_begin`` record returns a token that its end records take first
(one token per implementer, in a tuple, when several implement it); a
daemon keeps the sink it began with until the end record.  Subscribers
never touch simulated state, so an observed run is simulation-identical
to a bare one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

__all__ = ["Sink", "RECORDS"]


class Sink:
    """The records daemons emit (no-ops unless a subscriber implements
    them); see the module docstring."""

    # -- clients: ``mechanism`` is rpc or append_client_journal; ``names``
    # -- are the entries made under ``path`` (None: ``path`` itself; an
    # -- int: that many counted-only creates).
    def op_begin(self, client, mechanism, op, path, names) -> Any:
        """A client operation batch starts."""

    def op_acked(self, token, client, events) -> None:
        """A decoupled append is acknowledged; ``events`` it appended."""

    def op_end(self, token, client, count, reply=None) -> None:
        """The batch of ``count`` ops returns (``reply``: the RPC's
        Response; None for appends and for calls that raised)."""

    def crash(self, actor, **detail) -> None:
        """A daemon crashed."""

    def recover(self, daemon, mode, events=None) -> None:
        """A daemon recovered, restoring ``events`` (None: RPC client)."""

    def local_persist(self, dclient) -> None:
        """Local Persist landed the client journal on its own disk."""

    def persist_fault(self, dclient, scope, mode, scan) -> None:
        """A persist landed damaged; ``scan`` verified what reached media."""

    def scan_begin(self, actor, source) -> Any:
        """Recovery starts the verifying scan of a persisted image."""

    def scan_end(self, token, actor, source, scan) -> None:
        """The recovery scan finished with ``scan``."""

    # -- metadata server --------------------------------------------------
    def mds_submit(self, mds, request) -> None:
        """``request`` entered ``mds``'s queue (submitter's context)."""

    def handle_begin(self, mds, request) -> Any:
        """The serve loop starts handling ``request``."""

    def handle_end(self, token, mds, request) -> None:
        """The serve loop finished handling ``request``."""

    def apply_begin(self, mds) -> Any:
        """A mutation batch starts applying to the metadata store."""

    def apply_end(self, token, mds, count) -> None:
        """The batch of ``count`` mutations is applied."""

    def visible(self, mds, op, path, ino=0, client_id=0, target=None) -> None:
        """A mutation became visible in the authoritative store."""

    def merge_begin(self, mds, subtree, client_id, count) -> None:
        """Volatile Apply starts merging ``count`` journal records."""

    def merge_end(self, mds, subtree, client_id, applied, conflicts) -> None:
        """The merge finished."""

    def journal_begin(self, mds) -> Any:
        """The MDS starts journaling a mutation batch (Stream)."""

    def journal_end(self, token, mds) -> None:
        """The batch is journaled."""

    def journal_log(self, journal, events) -> None:
        """Real ``events`` entered an enabled MDS journal."""

    def journal_extract(self, journal, events) -> None:
        """A migration lifted ``events`` out of the open segment."""

    def dispatch_begin(self, journal) -> Any:
        """A journal segment write is dispatched."""

    def dispatch_end(self, token, journal) -> None:
        """The segment write finished or failed."""

    def migrate_begin(self, src, dst, subtree) -> Any:
        """A live migration of ``subtree`` starts."""

    def migrate_phase(self, subtree, src, dst, phase, epoch, **extra) -> None:
        """The migration reached ``begin``, ``commit`` or ``abort``."""

    def migrate_end(self, token, src, result) -> None:
        """The migration finished with ``result``."""

    # -- object store -----------------------------------------------------
    def io_begin(self, osd, op, name) -> Any:
        """An OSD starts a disk ``read``/``write`` of object ``name``."""

    def io_end(self, token, osd, op, nbytes) -> None:
        """The I/O of ``nbytes`` charged bytes finished or failed."""

    def object_write(self, osd, obj, action, nbytes) -> None:
        """Bytes landed in an OSD's copy of ``obj`` (the only mutation)."""

    # -- Cudele mechanisms ------------------------------------------------
    def mechanism_begin(self, name, subtree) -> Any:
        """A composition mechanism starts on ``subtree``."""

    def mechanism_end(self, token, name) -> None:
        """The mechanism finished."""

    # -- wiring -----------------------------------------------------------
    def __init__(self, subscribers: Sequence[Any]):
        self.subscribers: Tuple[Any, ...] = tuple(subscribers)
        for name in RECORDS:
            subs = [s for s in self.subscribers if hasattr(type(s), name)]
            if subs:
                setattr(self, name, self._resolve(name, subs))

    def _resolve(self, name: str, subs: List[Any]) -> Callable:
        impls = [getattr(s, name) for s in subs]
        if getattr(Sink, name).__code__.co_varnames[1] != "token":
            if len(impls) == 1:
                return impls[0]
            return lambda *a, **k: tuple([f(*a, **k) for f in impls])
        # A token record: each implementer gets its own begin's token.
        begin = name.split("_")[0] + "_begin"
        begun = [s for s in self.subscribers if hasattr(type(s), begin)]
        missing = [type(s).__name__ for s in subs if s not in begun]
        if missing:
            raise TypeError(f"{missing} implement {name} but not {begin}")
        if len(begun) == 1:
            return impls[0]
        pairs = [(begun.index(s), f) for s, f in zip(subs, impls)]
        return lambda token, *a, **k: tuple([
            f(token[i], *a, **k) for i, f in pairs])


#: Every record, in declaration order.
RECORDS: Tuple[str, ...] = tuple(
    name for name, value in vars(Sink).items()
    if callable(value) and not name.startswith("_")
)
