"""Crash durability for the serving layer: WAL, snapshot, and recovery.

A ``kill -9`` of a plain ``repro-serve`` daemon loses three things: every
admitted-but-unanswered request, the canonical-fingerprint response cache,
and the accounting that says which was which.  This module is the
persistence substrate that makes all three survivable, built on the same
discipline as PR 3's sweep checkpoint journals
(:mod:`repro.runtime.checkpoint`): append-only JSON lines, floats as hex,
a structure-fingerprint-guarded header, and torn-tail recovery through the
*shared* :func:`repro.runtime.read_journal` reader -- the serve WAL does
not merely imitate the sweep journal's crash model, it runs the same code.

Two artifacts live in one durability directory:

* **the write-ahead request journal** (:class:`RequestJournal`,
  ``journal.wal``) -- every admitted solve request is appended as an
  ``admit`` record (monotonic sequence number, canonical fingerprint, the
  canonical graph payload in exact hex/frac encoding) *before* it is
  dispatched; when the solve terminates in a typed outcome, a ``settle``
  record is appended.  A restarted server replays the unsettled
  admissions through the normal solve path, so work the crash swallowed
  is finished and cached rather than lost.  The journal is compacted
  against its settles on rotation (settled records are dead weight; only
  the unsettled tail carries information).
* **the response-cache snapshot** (``cache.snap``) -- a periodic (and
  on-graceful-shutdown) bit-exact serialization of the response cache.
  Cache values are already exact JSON (hex floats, ``p/q`` fractions --
  :func:`repro.io.scalar_to_json`), so a dump/load round trip is
  byte-identical to a fresh solve by construction; the hypothesis suite
  asserts it anyway.  Snapshots are written atomically (tmp + fsync +
  rename) so a crash mid-snapshot leaves the previous snapshot intact.

Both artifacts carry a **structure fingerprint** folding in the wire
protocol version, the durability format, and the engine configuration
(the fixed solver name / backend / zero-tol / engine) -- anything that
could change response bytes.  A mismatched journal refuses with a typed
:class:`~repro.exceptions.DurabilityError` (replaying foreign admissions
would solve them under the wrong engine); a mismatched snapshot is
*rejected and ignored* (cold cache, correct bytes) because a cache can
always be rebuilt but must never serve stale state.

Fsync policy (``fsync``):

* ``"always"`` -- flush + fsync every appended record: an admit is on
  disk before the dispatch it precedes, surviving both process death and
  OS crash (the default, and what the chaos gate runs);
* ``"batch"`` -- flush every record (survives process ``kill -9``; the
  bytes are in the OS page cache) but fsync only on rotation, snapshot,
  and close: the fast mode for process-crash-only threat models;
* ``"off"`` -- flush only, never fsync: benchmarking and tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..engine import ENGINE_NAME, SOLVER_NAME, ZERO_TOL, EngineSpec
from ..exceptions import CheckpointError, DurabilityError, MalformedInputError
from ..runtime.checkpoint import read_journal

__all__ = [
    "DURABILITY_FORMAT",
    "FSYNC_POLICIES",
    "DurabilityConfig",
    "RequestJournal",
    "durability_fingerprint",
    "load_snapshot",
    "save_snapshot",
]

#: Bumped on incompatible journal/snapshot schema changes; part of the
#: structure fingerprint, so old state is rejected typed, not misparsed.
DURABILITY_FORMAT = 1

#: Legal ``fsync`` policies, strictest first (see module docstring).
FSYNC_POLICIES = ("always", "batch", "off")

_JOURNAL_NAME = "journal.wal"
_SNAPSHOT_NAME = "cache.snap"


def durability_fingerprint(spec: EngineSpec) -> str:
    """The structure fingerprint guarding journal and snapshot headers.

    Folds in everything that determines response *bytes* for a given
    canonical instance: the wire protocol version, the durability schema,
    and the engine configuration.  Deliberately excludes serving knobs
    (shards, batch sizes, cache size, deadlines) -- those change timing
    and capacity, never bytes, and a restart that tunes them must still
    reuse its journal.
    """
    from .protocol import PROTOCOL_VERSION

    return json.dumps({
        "protocol": PROTOCOL_VERSION,
        "durability_format": DURABILITY_FORMAT,
        "solver": SOLVER_NAME,
        "backend": spec.backend.name,
        "zero_tol": ZERO_TOL,
        "engine": ENGINE_NAME,
    }, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DurabilityConfig:
    """Everything the durable serving layer needs, guard-validated.

    ``dir`` holds both artifacts (``journal.wal``, ``cache.snap``).
    ``snapshot_interval_s`` paces the periodic snapshot task;
    ``compact_min_settled`` is the rotation trigger (settle records
    appended since open before the journal is rewritten down to its
    unsettled admissions).
    """

    dir: str
    fsync: str = "always"
    snapshot_interval_s: float = 30.0
    compact_min_settled: int = 256

    @property
    def journal_path(self) -> Path:
        return Path(self.dir) / _JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return Path(self.dir) / _SNAPSHOT_NAME

    def validated(self) -> "DurabilityConfig":
        """Boundary validation, :mod:`repro.guard` style: typed
        :class:`~repro.exceptions.MalformedInputError` for every way the
        config can be wrong, raised *before* a server starts accepting
        work it could not persist.  Creates ``dir`` (parents included)
        and probes it for writability as a side effect -- a read-only
        volume must fail here, not at the first admit."""
        if not isinstance(self.dir, (str, os.PathLike)) or not str(self.dir):
            raise MalformedInputError(
                f"durability dir must be a non-empty path, got {self.dir!r}")
        if self.fsync not in FSYNC_POLICIES:
            raise MalformedInputError(
                f"durability fsync policy {self.fsync!r} is not one of "
                f"{', '.join(FSYNC_POLICIES)}")
        interval = self.snapshot_interval_s
        if isinstance(interval, bool) or not isinstance(interval, (int, float)) \
                or not math.isfinite(interval) or interval <= 0:
            raise MalformedInputError(
                f"durability snapshot_interval_s must be a positive finite "
                f"number of seconds, got {interval!r}")
        if isinstance(self.compact_min_settled, bool) or \
                not isinstance(self.compact_min_settled, int) or \
                self.compact_min_settled < 1:
            raise MalformedInputError(
                f"durability compact_min_settled must be a positive integer, "
                f"got {self.compact_min_settled!r}")
        root = Path(self.dir)
        try:
            root.mkdir(parents=True, exist_ok=True)
            probe = root / ".write-probe"
            with open(probe, "w") as fh:
                fh.write("ok")
            probe.unlink()
        except OSError as exc:
            raise MalformedInputError(
                f"durability dir {str(root)!r} is not writable: {exc}"
            ) from exc
        return self


# ---------------------------------------------------------------------------
# the write-ahead request journal
# ---------------------------------------------------------------------------

class _Fsyncer:
    """One place for the three-policy fsync discipline."""

    __slots__ = ("policy",)

    def __init__(self, policy: str) -> None:
        self.policy = policy

    def record(self, fh) -> None:
        """After one appended record."""
        fh.flush()
        if self.policy == "always":
            os.fsync(fh.fileno())

    def barrier(self, fh) -> None:
        """At rotation / close / snapshot boundaries."""
        fh.flush()
        if self.policy != "off":
            os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    """Make a rename durable (fsync the containing directory)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RequestJournal:
    """The write-ahead request journal: admit before dispatch, settle after.

    Record grammar (one JSON object per line after the header)::

        {"t": "a", "q": seq, "k": key_hex, "g": canon_dict[, "d": ms]}
        {"t": "s", "q": seq}

    ``q`` is a per-journal monotonic sequence number: admissions are
    journaled per *cell*, and with caching disabled two concurrent cells
    may legitimately share a canonical key, so settles reference the
    admission, not the instance.  ``g`` is the canonical graph dict whose
    scalars are already exact JSON (hex floats / ``p/q`` fractions), so
    the record round-trips bit-exactly through plain ``json``.

    Recovery semantics on :meth:`open` of an existing file:

    * torn final line -> dropped and physically truncated (the shared
      :func:`repro.runtime.read_journal` discipline);
    * duplicate settle / settle for an unknown sequence -> ignored (the
      settle append is not idempotence-guarded against crash-between-
      write-and-ack, so replays of it must be harmless);
    * corrupt mid-file line or foreign fingerprint -> typed
      :class:`~repro.exceptions.DurabilityError`, never a crash and never
      a silently partial resume;
    * surviving unsettled admissions -> :attr:`pending`, oldest first,
      for the server to replay through its normal solve path.

    Opening compacts the journal when it carries settle records (they are
    pure history); at runtime, rotation re-compacts after
    ``compact_min_settled`` settles.
    """

    def __init__(self, path: str | Path, fingerprint: str,
                 fsync: str = "always",
                 compact_min_settled: int = 256) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._fsyncer = _Fsyncer(fsync)
        self.compact_min_settled = int(compact_min_settled)
        #: Unsettled admissions, seq -> record dict (insertion = age order).
        self.pending: dict[int, dict] = {}
        #: Settles appended since the last open/rotation (rotation trigger).
        self.settles_since_rotate = 0
        self._next_seq = 1
        self._fh = None

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, fingerprint: str, fsync: str = "always",
             compact_min_settled: int = 256) -> "RequestJournal":
        journal = cls(path, fingerprint, fsync=fsync,
                      compact_min_settled=compact_min_settled)
        if journal.path.exists():
            journal._load_existing()
            if journal._had_settles:
                # Compaction on open: the settles were consumed building
                # ``pending``; rewriting now keeps recovery cost
                # proportional to the backlog, not the lifetime.
                journal._rewrite()
        else:
            journal.path.parent.mkdir(parents=True, exist_ok=True)
            with open(journal.path, "w") as fh:
                fh.write(journal._header_line())
                fh.flush()
                os.fsync(fh.fileno())
        if journal._fh is None:  # _rewrite() already opened it
            journal._fh = open(journal.path, "a")
        return journal

    def _header_line(self) -> str:
        return json.dumps(
            {"format": DURABILITY_FORMAT, "kind": "repro-serve-wal",
             "fingerprint": self.fingerprint},
            separators=(",", ":")) + "\n"

    def _check_header(self, header: dict) -> None:
        if header.get("format") != DURABILITY_FORMAT or \
                header.get("kind") != "repro-serve-wal":
            raise DurabilityError(
                f"request journal {self.path} has format "
                f"{header.get('format')!r}/{header.get('kind')!r}; supported: "
                f"{DURABILITY_FORMAT}/'repro-serve-wal'")
        if header.get("fingerprint") != self.fingerprint:
            raise DurabilityError(
                f"request journal {self.path} belongs to a different serving "
                f"structure (fingerprint {header.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); refusing to replay it")

    @staticmethod
    def _parse_record(obj) -> dict:
        if not isinstance(obj, dict):
            raise CheckpointError(f"journal record is not an object: {obj!r}")
        t = obj.get("t")
        if t == "a":
            seq, key = obj["q"], obj["k"]
            if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
                raise CheckpointError(f"admit record has bad seq {seq!r}")
            if not isinstance(key, str) or not isinstance(obj.get("g"), dict):
                raise CheckpointError(f"admit record is malformed: {obj!r}")
            return obj
        if t == "s":
            seq = obj["q"]
            if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
                raise CheckpointError(f"settle record has bad seq {seq!r}")
            return obj
        raise CheckpointError(f"unknown journal record type {t!r}")

    def _load_existing(self) -> None:
        try:
            _header, records = read_journal(
                self.path, self._parse_record, check_header=self._check_header)
        except CheckpointError as exc:
            # Typed at the serve layer: recovery code catches one family.
            raise DurabilityError(str(exc)) from exc
        self._had_settles = False
        for rec in records:
            if rec["t"] == "a":
                self.pending[rec["q"]] = rec
                self._next_seq = max(self._next_seq, rec["q"] + 1)
            else:
                # Duplicate settles and settles for already-compacted
                # admissions are both legal history; pop is forgiving.
                self.pending.pop(rec["q"], None)
                self._next_seq = max(self._next_seq, rec["q"] + 1)
                self._had_settles = True

    _had_settles = False

    def close(self) -> None:
        if self._fh is not None:
            self._fsyncer.barrier(self._fh)
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends ----------------------------------------------------------

    def admit(self, key: bytes, canon_dict: dict,
              deadline_ms: Optional[float] = None) -> int:
        """Durably record one admission; returns its sequence number.

        Called *before* the cell is queued for dispatch: when this
        returns under ``fsync="always"``, a crash at any later point
        leaves a replayable record of the work.
        """
        if self._fh is None:
            raise DurabilityError(
                f"request journal {self.path} is not open for writing")
        seq = self._next_seq
        self._next_seq += 1
        rec: dict = {"t": "a", "q": seq, "k": key.hex(), "g": canon_dict}
        if deadline_ms is not None:
            # Deadlines are advisory on replay (the waiter is gone); kept
            # for forensics.  Hex-encoded like every float in a journal.
            rec["d"] = float(deadline_ms).hex()
        self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        self._fsyncer.record(self._fh)
        self.pending[seq] = rec
        return seq

    def settle(self, seq: int) -> bool:
        """Record that admission ``seq`` terminated in a typed outcome.

        Idempotent per sequence: double settles (a crash between the
        append and the caller observing it, a replayed cell racing a
        retry) write at most one record and never corrupt state.  Returns
        ``True`` when this call actually retired a pending admission.
        """
        if seq not in self.pending:
            return False
        if self._fh is None:
            raise DurabilityError(
                f"request journal {self.path} is not open for writing")
        self._fh.write(json.dumps({"t": "s", "q": seq},
                                  separators=(",", ":")) + "\n")
        self._fsyncer.record(self._fh)
        del self.pending[seq]
        self.settles_since_rotate += 1
        if self.settles_since_rotate >= self.compact_min_settled:
            self._rewrite()
        return True

    # -- compaction -------------------------------------------------------

    def _rewrite(self) -> None:
        """Rotate: atomically rewrite header + pending admissions only.

        The settled admit/settle pairs are pure history; dropping them
        bounds the journal at O(backlog).  Write-to-tmp + fsync + rename
        + dir fsync, so a crash at any instruction leaves either the old
        complete journal or the new complete journal.
        """
        if self._fh is not None:
            self._fsyncer.barrier(self._fh)
            self._fh.close()
            self._fh = None
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write(self._header_line())
            for rec in self.pending.values():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self.settles_since_rotate = 0
        self._fh = open(self.path, "a")

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.pending)

    def replay_items(self) -> list[tuple[int, bytes, dict]]:
        """Unsettled admissions as ``(seq, key, canon_dict)``, oldest first."""
        return [(seq, bytes.fromhex(rec["k"]), rec["g"])
                for seq, rec in self.pending.items()]


# ---------------------------------------------------------------------------
# response-cache snapshot / restore
# ---------------------------------------------------------------------------

def save_snapshot(path: str | Path, entries: list[tuple[bytes, dict]],
                  fingerprint: str) -> None:
    """Atomically write one cache snapshot (header + one line per entry).

    ``entries`` are ``(canonical_key, result_dict)`` pairs straight from
    :meth:`repro.serve.cache.ResponseCache.entries` -- result dicts whose
    scalars are already exact JSON, so the write is bit-exact with no
    re-encoding.  tmp + fsync + rename + dir fsync: a crash mid-snapshot
    leaves the previous snapshot untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(
            {"format": DURABILITY_FORMAT, "kind": "repro-serve-snapshot",
             "fingerprint": fingerprint, "entries": len(entries)},
            separators=(",", ":")) + "\n")
        for key, value in entries:
            fh.write(json.dumps({"k": key.hex(), "v": value},
                                separators=(",", ":")) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def load_snapshot(path: str | Path,
                  fingerprint: str) -> Optional[list[tuple[bytes, dict]]]:
    """Load a cache snapshot; ``None`` when no snapshot exists.

    The fingerprint guard and mid-file corruption raise a typed
    :class:`~repro.exceptions.DurabilityError` -- the *caller* decides
    whether that is fatal (a test asserting state) or a cold start (the
    server, which can always rebuild a cache but must never serve stale
    bytes).  A torn final line is dropped via the shared torn-tail
    discipline -- unreachable for atomically-renamed snapshots, but the
    loader must not trust that every writer was ours.
    """
    path = Path(path)
    if not path.exists():
        return None

    def _check_header(header: dict) -> None:
        if header.get("format") != DURABILITY_FORMAT or \
                header.get("kind") != "repro-serve-snapshot":
            raise DurabilityError(
                f"cache snapshot {path} has format "
                f"{header.get('format')!r}/{header.get('kind')!r}; supported: "
                f"{DURABILITY_FORMAT}/'repro-serve-snapshot'")
        if header.get("fingerprint") != fingerprint:
            raise DurabilityError(
                f"cache snapshot {path} belongs to a different serving "
                f"structure (fingerprint {header.get('fingerprint')!r} != "
                f"{fingerprint!r}); refusing to restore it")

    def _parse(obj) -> tuple[bytes, dict]:
        if not isinstance(obj, dict) or not isinstance(obj.get("k"), str) \
                or not isinstance(obj.get("v"), dict):
            raise CheckpointError(f"snapshot entry is malformed: {obj!r}")
        return bytes.fromhex(obj["k"]), obj["v"]

    try:
        _header, entries = read_journal(path, _parse,
                                        check_header=_check_header)
    except CheckpointError as exc:
        raise DurabilityError(str(exc)) from exc
    except ValueError as exc:  # bytes.fromhex on a mangled mid-file key
        raise DurabilityError(
            f"cache snapshot {path} has a corrupt entry key: {exc}") from exc
    return entries
