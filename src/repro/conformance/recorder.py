"""History recording: a record subscriber over a live cluster.

``HistoryRecorder.attach(cluster)`` subscribes to the cluster's record
sink (:mod:`repro.sink`) and turns the records that witness a
consistency- or durability-relevant transition into history events.
Every history-event shape lives here:

* clients and decoupled clients report operation invocations and
  completions (``op_begin``/``op_acked``/``op_end``), crashes,
  recoveries, local persists and persist faults;
* the MDS reports the moment a mutation becomes globally visible (its
  authoritative store changed), merge windows (Volatile Apply),
  journal-replay recoveries and live-migration phases; its journal
  reports what it logs and what a migration lifts out of it;
* the OSDs report bytes landing in an object (``object_write``), which
  the recorder interprets into *global* persistence events for client
  and MDS journals.

Recording is pure observation: no record touches the DES engine, so an
instrumented run is simulation-identical to a bare one.  Any number of
recorders (on any clusters) may be attached at once, in any order with
observability; :meth:`detach` unsubscribes.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.conformance.history import History, HistoryEvent
from repro.journal.events import EventType, JournalEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.decoupled import DecoupledClient
    from repro.cluster import Cluster
    from repro.mds.journal import MDSJournal
    from repro.mds.server import MetadataServer

__all__ = ["HistoryRecorder"]

#: Striped journal object names: "<owner>.journal.<hex stripe index>"
#: (see :meth:`repro.rados.striper.Striper.object_name`).
_JOURNAL_OBJECT = re.compile(r"^(?P<owner>[A-Za-z0-9_]+)\.journal\.[0-9a-f]+$")


class HistoryRecorder:
    """Builds a :class:`~repro.conformance.history.History` from records."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.history = History()
        self._next_op_id = 1
        #: Highest journal seq already recorded as persisted, per
        #: (owner name, scope) — persists are idempotent snapshots, the
        #: history wants each update persisted once per scope.
        self._persist_marks: Dict[tuple, int] = {}
        #: Real (materialized) events the MDS has journaled, per MDS
        #: name, in log order; object-store journal writes are resolved
        #: against it to emit global-persist records.
        self._mds_journaled: Dict[str, List[JournalEvent]] = {}
        self._mds_persisted: Dict[str, int] = {}
        #: Mutation-only persisted seq per MDS (protocol markers ride in
        #: the journal but carry no namespace update to persist).
        self._mds_persisted_muts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, cluster: "Cluster") -> "HistoryRecorder":
        """Create a recorder and subscribe it to ``cluster``."""
        recorder = cls(cluster)
        cluster.attach(recorder)
        return recorder

    def detach(self) -> None:
        """Unsubscribe (idempotent)."""
        self.cluster.detach(self)

    def _emit(self, **kw) -> HistoryEvent:
        return self.history.append(HistoryEvent(t=self.engine.now, **kw))

    # ------------------------------------------------------------------
    # client-side records (invocations and completions)
    # ------------------------------------------------------------------
    def op_begin(self, client, mechanism: str, op: str, path: str,
                 names) -> Optional[List[int]]:
        """One ``invoke`` per affected path; the token is their op ids
        (None for counted-only batches, which the history omits)."""
        if isinstance(names, int):
            return None
        if names is None:
            paths = [path]
        else:
            base = path.rstrip("/")
            paths = [f"{base}/{name}" for name in names]
        ids = []
        for p in paths:
            op_id = self._next_op_id
            self._next_op_id += 1
            self._emit(
                kind="invoke", actor=client.name, op=op, path=p,
                op_id=op_id, client=client.client_id,
            )
            ids.append(op_id)
        return ids

    def op_acked(self, op_ids, client, events) -> None:
        """Decoupled appends complete: ``events`` aligns seq/ino per op
        id."""
        self._complete(client.name, op_ids, True, events=events)

    def op_end(self, op_ids, client, count: int, reply=None) -> None:
        if reply is not None:
            self._complete(client.name, op_ids, reply.ok, error=reply.error)

    def _complete(
        self,
        actor: str,
        op_ids: Sequence[int],
        ok: bool,
        error: Optional[str] = None,
        events: Optional[Sequence[JournalEvent]] = None,
    ) -> None:
        for i, op_id in enumerate(op_ids):
            extra = {}
            if events is not None and i < len(events):
                extra = {"seq": events[i].seq, "ino": events[i].ino or None}
            self._emit(
                kind="complete", actor=actor, op_id=op_id,
                ok=ok, error=error, **extra,
            )

    # ------------------------------------------------------------------
    # MDS-side records (visibility, merges, journal, migration)
    # ------------------------------------------------------------------
    def visible(
        self,
        mds: "MetadataServer",
        op: str,
        path: str,
        ino: int = 0,
        client_id: int = 0,
        target: Optional[str] = None,
    ) -> None:
        self._emit(
            kind="visible", actor=mds.name, op=op, path=path,
            ino=ino or None, client=client_id, target=target,
        )

    def merge_begin(self, mds: "MetadataServer", subtree: str,
                    client_id: int, count: int) -> None:
        self._emit(
            kind="merge_begin", actor=mds.name, path=subtree,
            client=client_id, detail={"count": count},
        )

    def merge_end(self, mds: "MetadataServer", subtree: str, client_id: int,
                  applied: int, conflicts: int) -> None:
        self._emit(
            kind="merge_end", actor=mds.name, path=subtree, client=client_id,
            detail={"applied": applied, "conflicts": conflicts},
        )

    def journal_log(
        self, journal: "MDSJournal", events: Sequence[JournalEvent]
    ) -> None:
        """The MDS appended real events to its (segmented) journal; they
        become *globally persisted* when their segment's object write
        lands (see :meth:`object_write`)."""
        self._mds_journaled.setdefault(journal.src, []).extend(events)

    def journal_extract(
        self, journal: "MDSJournal", removed: Sequence[JournalEvent]
    ) -> None:
        """A subtree migration lifted undispatched events out of the
        journal's open segment; drop their mirror entries.  Extraction
        only ever touches the open segment, which is the tail of the
        mirrored list — always beyond the persisted prefix, so earlier
        ``persisted`` records never referenced these entries."""
        if not removed:
            return
        journaled = self._mds_journaled.get(journal.src, [])
        pending = list(removed)
        idx = len(journaled) - 1
        while pending and idx >= 0:
            ev = journaled[idx]
            cand = pending[-1]
            if (
                ev.op == cand.op
                and ev.path == cand.path
                and ev.target_path == cand.target_path
                and ev.ino == cand.ino
                and ev.client_id == cand.client_id
            ):
                journaled.pop(idx)
                pending.pop()
            idx -= 1
        if pending:
            raise RuntimeError(
                f"{journal.src}: {len(pending)} exported journal events have "
                "no mirror entry; persist accounting would desynchronize"
            )

    def migrate_phase(
        self,
        subtree: str,
        src: str,
        dst: str,
        phase: str,
        epoch: int,
        **extra,
    ) -> None:
        """One phase transition of a live subtree migration.

        ``phase`` is ``begin`` (source froze the subtree), ``commit``
        (authority switched to the destination) or ``abort`` (the
        handoff unwound; the source keeps authority).
        """
        detail = {"phase": phase, "src": src, "dst": dst, "epoch": epoch}
        for k, v in sorted(extra.items()):
            detail[k] = v
        self._emit(kind="migrate", actor=src, path=subtree, detail=detail)

    # ------------------------------------------------------------------
    # crash / recovery markers (repro.faults drives these paths)
    # ------------------------------------------------------------------
    def crash(self, actor: str, **detail) -> None:
        self._emit(kind="crash", actor=actor,
                   detail={k: v for k, v in sorted(detail.items())})
        # An MDS crash drops its open (undispatched) segment: trim the
        # same events off the journal mirror's tail so a later segment
        # land never claims the lost events were persisted.  In-flight
        # segments sit earlier in the mirror and are allowed to land.
        lost = detail.get("journal_events_lost", 0)
        journaled = self._mds_journaled.get(actor)
        if journaled is not None and lost:
            del journaled[max(0, len(journaled) - lost):]

    def recover(self, daemon, mode: str, events=None) -> None:
        """A daemon finished recovery.  What it restored is recorded as
        ``recovered`` events first: a decoupled client's journal by its
        own seqs; the MDS's journal replay numbered by journal position
        over mutations (matching the global-persist records, which index
        the same log — MDS-side events carry no client-journal seq)."""
        detail = {"mode": mode}
        if events is not None:
            replay = mode == "journal-replay"
            idx = 0
            for ev in events:
                if replay:
                    if not ev.is_mutation:
                        continue
                    idx += 1
                self._emit(
                    kind="recovered", actor=daemon.name,
                    op=EventType(ev.op).name.lower(), path=ev.path,
                    ino=ev.ino or None, seq=idx if replay else ev.seq,
                    client=ev.client_id if replay else daemon.client_id,
                    target=ev.target_path,
                )
            detail["restored"] = len(events)
        self._emit(kind="recover", actor=daemon.name, detail=detail)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def local_persist(self, dclient: "DecoupledClient") -> None:
        """Local Persist landed: journal events up to the current tail
        are now safe on the client's own disk."""
        self._record_journal_persist(dclient, scope="local")

    def _record_journal_persist(self, dclient, scope: str) -> None:
        mark = self._persist_marks.get((dclient.name, scope), 0)
        for ev in dclient.journal.events:
            if ev.seq <= mark:
                continue
            self._emit(
                kind="persisted", actor=dclient.name, scope=scope,
                op=EventType(ev.op).name.lower(), path=ev.path,
                ino=ev.ino or None, seq=ev.seq, client=dclient.client_id,
            )
            mark = ev.seq
        self._persist_marks[(dclient.name, scope)] = mark

    def persist_fault(
        self, dclient: "DecoupledClient", scope: str, mode: str, scan
    ) -> None:
        """A persist landed damaged: the on-media image verifies only up
        to ``scan``'s valid prefix.  Caps the just-recorded persisted
        claims and rolls the scope's watermark back so a later *clean*
        persist re-claims the updates the damaged image lost."""
        events = scan.events
        valid_seq = events[-1].seq if events else 0
        self._emit(
            kind="persist_fault", actor=dclient.name, scope=scope,
            client=dclient.client_id,
            detail={
                "damage": scan.damage,
                "mode": mode,
                "valid_events": len(events),
                "valid_seq": valid_seq,
            },
        )
        mark = self._persist_marks.get((dclient.name, scope), 0)
        if valid_seq < mark:
            self._persist_marks[(dclient.name, scope)] = valid_seq

    # -- object layer ------------------------------------------------------
    def object_write(self, osd, obj, action: str, nbytes: int) -> None:
        """Bytes landed in an OSD's copy of an object.

        Journal objects are interpreted into per-update global-persist
        records; everything else is ignored (data-pool traffic carries
        no metadata semantics).  Every replica write is a record; the
        per-owner watermark keeps history events unique.
        """
        match = _JOURNAL_OBJECT.match(obj.name)
        if match is None:
            return
        owner = match.group("owner")
        for dclient in self.cluster._dclients:
            if dclient.name == owner:
                self._record_journal_persist(dclient, scope="global")
                return
        for mds in self.cluster.mds_list:
            if mds.name == owner:
                self._record_mds_global_persist(mds)
                return

    def _record_mds_global_persist(self, mds: "MetadataServer") -> None:
        """A segment of the MDS journal landed in the object store: the
        journaled prefix minus the still-open segment is now durable."""
        journaled = self._mds_journaled.get(mds.name, [])
        durable = len(journaled) - mds.journal.open_real_events
        done = self._mds_persisted.get(mds.name, 0)
        if durable <= done:
            return
        # Persisted records are numbered over *mutations* only, matching
        # the numbering journal-replay recovery uses — migration protocol
        # markers are journaled but carry no namespace update.
        mut_seq = self._mds_persisted_muts.get(mds.name, 0)
        for idx in range(done, durable):
            ev = journaled[idx]
            if not ev.is_mutation:
                continue
            mut_seq += 1
            self._emit(
                kind="persisted", actor=mds.name, scope="global",
                op=EventType(ev.op).name.lower(), path=ev.path,
                ino=ev.ino or None, seq=mut_seq, client=ev.client_id,
            )
        self._mds_persisted[mds.name] = durable
        self._mds_persisted_muts[mds.name] = mut_seq

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def record_snapshot(self, mds: "MetadataServer", subtree: str) -> None:
        """Record the authoritative namespace under ``subtree`` (sorted
        ``path:kind`` entries) as one snapshot event."""
        entries = []
        if mds.config.materialize:
            prefix = "/" + "/".join(p for p in subtree.split("/") if p)
            prefix = prefix.rstrip("/") + "/"
            for ino, frag in mds.mdstore.dirfrags.items():
                base = mds.mdstore.path_of(ino)
                if base is None:
                    continue
                for name, child in frag.entries.items():
                    path = base.rstrip("/") + "/" + name
                    if not path.startswith(prefix):
                        continue
                    kind = "dir" if mds.mdstore.inodes[child].is_dir else "file"
                    entries.append(f"{path}:{kind}")
        self._emit(
            kind="snapshot", actor=mds.name, path=subtree,
            detail={"entries": sorted(entries)},
        )
