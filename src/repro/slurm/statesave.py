"""``StateSaveLocation`` — journaled controller state for crash recovery.

Real slurmctld survives restarts because every state mutation lands in
``StateSaveLocation`` before the RPC is acknowledged; an HA pair points
both daemons at the same directory.  This module is that layer for the
simulated controller:

* **Journal** — an append-only file of JSON-line records, one per
  state-mutating event (submit, start, finish, cancel, drain/resume,
  scheduling-pass reason updates).  Every record carries a sequence
  number, the writer's *epoch*, the simulated timestamp and a CRC-32
  over the canonical record body; appends are flushed and ``fsync``'d
  before the caller is acknowledged.  The fsync is most of an append's
  cost: in the traced ``ctld_storm`` benchmark on a shared 2-vCPU host,
  1,920 appends spend 0.46-0.66 s in ``os.fsync`` out of 0.74-0.97 s of
  append time, at 0.35-0.42 ms p50 per append.  Replay verifies CRCs: a
  bad record at the tail is a *torn write* (the crash interrupted the
  append) and is dropped; a bad record followed by valid ones is
  corruption and raises
  :class:`~repro.core.domain.errors.JournalCorruptError`.  Readers that
  follow the journal (the accounting daemon) keep a
  :class:`JournalAnchor` and read only what was appended after it
  (:meth:`StateSave.read_after`).
* **Snapshots** — periodic full dumps of the controller's captured
  state, written atomically (tmp + ``os.replace`` + directory fsync)
  with a SHA-256 digest verified on load; a corrupt snapshot falls back
  to the previous one.  After a snapshot the journal can be compacted to
  the records newer than the snapshot.
* **Epoch fencing** — the location owns a durable epoch counter.  A
  takeover bumps it; every append and lease write is checked against the
  current epoch, so a zombie primary (still running after its lease
  expired) gets :class:`~repro.core.domain.errors.StaleEpochError`
  instead of corrupting the new leader's journal.
* **Lease** — a tiny leader-election record (leader name, epoch,
  expiry) the :class:`~repro.slurm.ha.SlurmctldPeer` pair heartbeats
  through, stored next to the journal the way production HA setups
  share ``StateSaveLocation``.

Fault sites wired here: ``journal.torn_write`` truncates an append
mid-record and raises :class:`ControllerCrashError` (the record is NOT
durable); ``ctld.crash`` raises *after* the record is durable (the ack
is lost but replay resurrects the event).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from repro import faults, telemetry
from repro.core.domain.errors import (
    ControllerCrashError,
    JournalCorruptError,
    StaleEpochError,
)

__all__ = [
    "JournalAnchor",
    "JournalRecord",
    "Lease",
    "StateSave",
    "canonical_json",
    "state_sha256",
]

_JOURNAL = "journal.log"
_EPOCH = "epoch"
_LEASE = "lease.json"
_SNAP_PREFIX = "snapshot-"


def canonical_json(value) -> str:
    """Deterministic serialization used for CRCs, digests and equality."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def state_sha256(state: dict) -> str:
    """Digest of a captured controller state (the replay invariant's unit)."""
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()


@dataclass(frozen=True)
class JournalRecord:
    """One journaled state mutation."""

    seq: int
    epoch: int
    time: float
    type: str
    data: dict

    def crc(self) -> int:
        body = canonical_json([self.seq, self.epoch, self.time, self.type, self.data])
        return zlib.crc32(body.encode())

    def encode(self) -> str:
        return canonical_json(
            {
                "seq": self.seq,
                "epoch": self.epoch,
                "time": self.time,
                "type": self.type,
                "data": self.data,
                "crc": self.crc(),
            }
        )

    @classmethod
    def decode(cls, line: str) -> "JournalRecord":
        """Parse + CRC-check one journal line; ValueError on any damage."""
        payload = json.loads(line)
        rec = cls(
            seq=int(payload["seq"]),
            epoch=int(payload["epoch"]),
            time=float(payload["time"]),
            type=str(payload["type"]),
            data=payload["data"],
        )
        if rec.crc() != payload.get("crc"):
            raise ValueError(f"CRC mismatch on journal record seq={rec.seq}")
        return rec


class JournalAnchor(NamedTuple):
    """Where a journal reader stopped: the end of the last record it read."""

    #: byte offset just past the record's newline
    end: int
    #: the record's raw line, without the newline
    line: bytes


def _decode_lines(
    lines: "list[str]", offset: int
) -> "tuple[list[JournalRecord], bool, Optional[JournalAnchor]]":
    """Decode journal ``lines`` (split on newlines) starting at byte ``offset``.

    The one decode loop of every journal reader, so the damage rules live
    here: a line that fails to decode is a torn tail when no valid record
    follows it, and corruption (raised) when one does.  Returns ``(records,
    torn_tail_seen, anchor)``; the anchor ends the last valid record.

    Offsets count characters as bytes.  Records are written as ASCII
    (:func:`canonical_json` escapes the rest), so the two agree up to the
    last valid record; an anchor that did not would fail its check in
    :meth:`StateSave.read_after` and cost a full scan, not a wrong read.
    """
    records: list[JournalRecord] = []
    damaged_at: Optional[int] = None
    end = last_end = offset
    last_line: Optional[str] = None
    for i, line in enumerate(lines):
        end += len(line) + 1
        if not line:
            continue
        try:
            rec = JournalRecord.decode(line)
        except (ValueError, KeyError, TypeError):
            damaged_at = i
            continue
        if damaged_at is not None:
            raise JournalCorruptError(
                f"journal line {damaged_at + 1} is damaged but later "
                f"records exist (line {i + 1}); refusing to replay a "
                "journal with a hole in the middle"
            )
        records.append(rec)
        last_end, last_line = end, line
    anchor = None if last_line is None else JournalAnchor(last_end, last_line.encode())
    return records, damaged_at is not None, anchor


@dataclass(frozen=True)
class Lease:
    """The leader lease slurmctld peers heartbeat through."""

    leader: str
    epoch: int
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class StateSave:
    """One StateSaveLocation directory: journal + snapshots + epoch + lease.

    Args:
        path: directory (created if missing).
        fsync: fsync every append/snapshot.  True is the crash-safe
            default; property tests that replay thousands of tiny
            journals may disable it for speed (durability is then only
            simulated).
        snapshot_interval: append a snapshot marker every N journal
            records (the controller asks :meth:`should_snapshot` after
            each append); 0 disables automatic snapshots.
    """

    def __init__(
        self, path: str, *, fsync: bool = True, snapshot_interval: int = 0
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        os.makedirs(path, exist_ok=True)
        self._journal_path = os.path.join(path, _JOURNAL)
        self._epoch_path = os.path.join(path, _EPOCH)
        self._lease_path = os.path.join(path, _LEASE)
        self._fh = None
        self._last_seq = 0
        self._records_since_snapshot = 0
        self._torn_tail = 0
        #: test/observer hook called with each durably-appended record dict
        self.on_append: Optional[Callable[[JournalRecord], None]] = None
        self._recover()

    # ------------------------------------------------------------------
    # epoch fencing
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def _read_epoch(self) -> int:
        try:
            with open(self._epoch_path) as fh:
                return int(fh.read().strip() or 0)
        except FileNotFoundError:
            return 0

    def bump_epoch(self) -> int:
        """Fence all writers of older epochs; returns the new epoch."""
        self._epoch += 1
        self._write_atomic(self._epoch_path, str(self._epoch))
        telemetry.gauge("ha_epoch").set(self._epoch)
        return self._epoch

    def check_epoch(self, epoch: int) -> None:
        """Raise :class:`StaleEpochError` when ``epoch`` has been fenced."""
        if epoch < self._epoch:
            telemetry.counter("ha_fenced_writes_total").inc()
            raise StaleEpochError(
                f"writer epoch {epoch} fenced by current epoch {self._epoch}"
            )

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        return self._last_seq

    @property
    def torn_tail_records(self) -> int:
        """Torn/corrupt tail records dropped during recovery (diagnostics)."""
        return self._torn_tail

    def _recover(self) -> None:
        """Scan the journal, drop a torn tail, position the writer."""
        self._epoch = self._read_epoch()
        records, torn, _ = self._scan()
        # a journal compacted right after a snapshot is empty: continue
        # after the snapshot, or replay would skip the records that follow
        self._last_seq = records[-1].seq if records else self.latest_snapshot_seq()
        # re-write a clean journal only when a torn tail was dropped
        if torn:
            self._torn_tail += 1
            telemetry.counter("journal_torn_tail_total").inc()
            self._rewrite(records)
        self._fh = open(self._journal_path, "a", encoding="utf-8")

    def recover(self) -> int:
        """Re-open the state-save the way a fresh daemon would.

        A taking-over peer calls this before replay: the torn half-record
        a dying leader may have left at the tail is dropped and the
        journal rewritten clean, so the new leader's appends land on a
        record boundary instead of concatenating onto garbage.  Returns
        the number of torn records dropped by this pass.
        """
        before = self._torn_tail
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._recover()
        return self._torn_tail - before

    def _read_all(self) -> list[JournalRecord]:
        return self._scan()[0]

    def _scan(self) -> "tuple[list[JournalRecord], bool, Optional[JournalAnchor]]":
        """Read the whole journal; see :func:`_decode_lines` for the result."""
        try:
            with open(self._journal_path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return [], False, None
        # the file ends with "\n", so a non-empty final line is a tear
        return _decode_lines(lines, 0)

    def _rewrite(self, records: list[JournalRecord]) -> None:
        tmp = self._journal_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.encode() + "\n")
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self._journal_path)
        self._fsync_dir()

    def append(self, rtype: str, data: dict, *, epoch: int, time: float) -> JournalRecord:
        """Durably append one record; returns it once fsync'd.

        Raises :class:`StaleEpochError` when ``epoch`` is fenced, and
        :class:`ControllerCrashError` when a crash fault fires (torn:
        the record is NOT durable; post-append: it is, the ack is lost).
        """
        self.check_epoch(epoch)
        rec = JournalRecord(
            seq=self._last_seq + 1, epoch=epoch, time=time, type=rtype, data=data
        )
        line = rec.encode()
        if faults.fire("journal.torn_write"):
            # the crash lands mid-write: half the bytes, no newline
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            raise ControllerCrashError(
                f"controller crashed mid-append (torn write at seq {rec.seq})"
            )
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._last_seq = rec.seq
        self._records_since_snapshot += 1
        telemetry.counter("journal_appends_total").inc()
        if self.on_append is not None:
            self.on_append(rec)
        if faults.fire("ctld.crash"):
            raise ControllerCrashError(
                f"controller crashed after append (seq {rec.seq} is durable, "
                "ack lost)"
            )
        return rec

    def read_records(self, after_seq: int = 0) -> list[JournalRecord]:
        """All journal records with ``seq > after_seq`` (torn tail dropped)."""
        return [r for r in self._read_all() if r.seq > after_seq]

    def read_journal(self) -> "tuple[list[JournalRecord], Optional[JournalAnchor]]":
        """Every valid record, and the anchor ending the last of them."""
        records, _, anchor = self._scan()
        return records, anchor

    def read_after(
        self, anchor: JournalAnchor
    ) -> "Optional[tuple[list[JournalRecord], JournalAnchor]]":
        """The records appended after ``anchor`` and the anchor ending them.

        One seek and one read: the journal must still hold ``anchor.line``
        ending at ``anchor.end``, which a compaction or a rewrite moves or
        removes.  Only complete lines are decoded, so a half-written append
        waits for the next call.  Returns None when the anchor does not
        hold or a line fails to decode; the caller then falls back to
        :meth:`read_journal`, whose full scan applies the torn-tail and
        hole rules to the whole journal.
        """
        head = anchor.line + b"\n"
        try:
            with open(self._journal_path, "rb") as fh:
                fh.seek(anchor.end - len(head))
                data = fh.read()
        except FileNotFoundError:
            return None
        if not data.startswith(head):
            return None
        complete = data[len(head) : data.rfind(b"\n") + 1]
        try:
            records, torn, last = _decode_lines(
                complete.decode("utf-8").split("\n"), anchor.end
            )
        except (UnicodeDecodeError, JournalCorruptError):
            return None
        if torn:
            return None
        return records, last or anchor

    def replay(self, after_seq: int = 0) -> Iterator[JournalRecord]:
        for rec in self.read_records(after_seq):
            telemetry.counter("journal_replayed_records_total").inc()
            yield rec

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def should_snapshot(self) -> bool:
        return (
            self.snapshot_interval > 0
            and self._records_since_snapshot >= self.snapshot_interval
        )

    def write_snapshot(self, state: dict, *, epoch: int, time: float) -> str:
        """Atomically persist a snapshot covering the journal up to now."""
        self.check_epoch(epoch)
        seq = self._last_seq
        payload = {
            "v": 1,
            "seq": seq,
            "epoch": epoch,
            "time": time,
            "state": state,
            "digest": state_sha256(state),
        }
        name = f"{_SNAP_PREFIX}{seq:012d}.json"
        self._write_atomic(os.path.join(self.path, name), canonical_json(payload))
        self._records_since_snapshot = 0
        telemetry.counter("snapshot_writes_total").inc()
        return name

    def _snapshot_files(self) -> list[str]:
        try:
            entries = os.listdir(self.path)
        except FileNotFoundError:
            return []
        snaps = [
            e for e in entries if e.startswith(_SNAP_PREFIX) and e.endswith(".json")
        ]
        return sorted(snaps, reverse=True)

    def latest_snapshot_seq(self) -> int:
        snap = self.load_latest_snapshot()
        return snap["seq"] if snap else 0

    def load_latest_snapshot(self) -> Optional[dict]:
        """Newest snapshot whose digest verifies; older ones are fallback."""
        for name in self._snapshot_files():
            try:
                with open(os.path.join(self.path, name), encoding="utf-8") as fh:
                    payload = json.load(fh)
                if payload.get("digest") != state_sha256(payload["state"]):
                    raise ValueError("snapshot digest mismatch")
            except (OSError, ValueError, KeyError, TypeError):
                telemetry.counter("snapshot_corrupt_total").inc()
                continue
            return payload
        return None

    def compact(self) -> int:
        """Drop journal records already covered by the latest snapshot.

        Returns the number of records removed.  Consumers that tail the
        journal (the accounting daemon) bootstrap from the snapshot when
        their cursor predates the compaction point.
        """
        snap_seq = self.latest_snapshot_seq()
        if not snap_seq:
            return 0
        records = self._read_all()
        keep = [r for r in records if r.seq > snap_seq]
        removed = len(records) - len(keep)
        if not removed:
            return 0
        self._fh.close()
        self._rewrite(keep)
        self._fh = open(self._journal_path, "a", encoding="utf-8")
        telemetry.counter("journal_compacted_records_total").inc(removed)
        return removed

    # ------------------------------------------------------------------
    # lease
    # ------------------------------------------------------------------
    def read_lease(self) -> Optional[Lease]:
        try:
            with open(self._lease_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return Lease(
                leader=str(payload["leader"]),
                epoch=int(payload["epoch"]),
                expires_at=float(payload["expires_at"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def write_lease(self, leader: str, epoch: int, expires_at: float) -> Lease:
        """Renew/claim the lease; fenced writers are rejected."""
        self.check_epoch(epoch)
        lease = Lease(leader=leader, epoch=epoch, expires_at=expires_at)
        self._write_atomic(
            self._lease_path,
            canonical_json(
                {"leader": leader, "epoch": epoch, "expires_at": expires_at}
            ),
        )
        return lease

    # ------------------------------------------------------------------
    def _write_atomic(self, path: str, content: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        if not self.fsync:
            return
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StateSave({self.path!r}, epoch={self._epoch}, "
            f"last_seq={self._last_seq})"
        )
