"""The durability substrate: WAL recovery, snapshots, restart bit-identity.

Everything the crash soak relies on, pinned at unit scale: admissions
survive a reopen, settles retire them idempotently, a torn tail is
physically truncated while mid-file corruption and foreign fingerprints
refuse with the typed :class:`~repro.exceptions.DurabilityError`, and a
server restarted onto its durability directory serves bytes identical to
the incarnation that died -- from the restored snapshot and from replayed
journal admissions alike.
"""

from __future__ import annotations

import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EngineSpec
from repro.exceptions import DurabilityError, MalformedInputError
from repro.graphs.builders import random_ring
from repro.io import graph_to_dict
from repro.serve import ServeConfig, start_in_thread
from repro.serve.durability import (
    DurabilityConfig,
    RequestJournal,
    durability_fingerprint,
    load_snapshot,
    save_snapshot,
)
from repro.serve.solver import canonical_request, solve_cell

from .client import Client

FP = "test-fingerprint"


def _graph_dict(seed: int = 0, n: int = 6) -> dict:
    rng = np.random.default_rng(seed)
    return graph_to_dict(random_ring(n, rng, "loguniform", 0.1, 10.0))


def _canon(seed: int = 0) -> tuple[bytes, dict]:
    key, _order, canon = canonical_request(_graph_dict(seed))
    return key, canon


# -- the write-ahead request journal ---------------------------------------


def test_admit_settle_replay_and_compaction_on_open(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        seqs = [j.admit(*_canon(s)) for s in range(3)]
        assert seqs == [1, 2, 3]
        assert j.settle(2) is True
        assert j.settle(2) is False  # idempotent: already retired
        assert len(j) == 2

    # Reopen: the settled admission is gone, the rest replay oldest-first,
    # and the settle record was compacted away (header + 2 admits remain).
    with RequestJournal.open(path, FP, fsync="off") as j:
        assert sorted(j.pending) == [1, 3]
        items = j.replay_items()
        assert [seq for seq, _k, _g in items] == [1, 3]
        key0, canon0 = _canon(0)
        assert items[0][1] == key0 and items[0][2] == canon0
        # Sequence numbers never rewind past compaction.
        assert j.admit(*_canon(9)) == 4
    assert len(path.read_text().splitlines()) == 1 + 3


def test_settle_unknown_sequence_is_a_silent_noop(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.admit(*_canon(0))
        before = path.stat().st_size
        assert j.settle(99) is False
        j._fh.flush()
        assert path.stat().st_size == before  # no record appended


def test_torn_final_line_is_dropped_and_truncated(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.admit(*_canon(0))
        j.admit(*_canon(1))
    clean = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b'{"t":"a","q":3,"k":"de')  # crash mid-append
    with RequestJournal.open(path, FP, fsync="off") as j:
        assert sorted(j.pending) == [1, 2]
    assert path.stat().st_size == clean  # physically truncated


def test_duplicate_settle_records_in_file_are_tolerated(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.admit(*_canon(0))
        j.admit(*_canon(1))
    # A crash between the settle append and the caller observing it can
    # legitimately replay the settle: duplicates must be harmless history.
    with open(path, "a") as fh:
        fh.write('{"t":"s","q":1}\n' * 3)
    with RequestJournal.open(path, FP, fsync="off") as j:
        assert sorted(j.pending) == [2]


def test_reopen_after_settles_leaks_no_file_handle(tmp_path):
    """Compaction on open already reopens the append handle; opening it
    a second time orphaned the first, which garbage collection then
    closed with a ResourceWarning."""
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.settle(j.admit(*_canon(0)))
        j.admit(*_canon(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        RequestJournal.open(path, FP, fsync="off").close()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_midfile_corruption_raises_typed(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.admit(*_canon(0))
        j.admit(*_canon(1))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "not json at all\n"  # corrupt *before* a valid record
    path.write_text("".join(lines))
    with pytest.raises(DurabilityError):
        RequestJournal.open(path, FP, fsync="off")


def test_foreign_fingerprint_refused_without_mutation(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off") as j:
        j.admit(*_canon(0))
    before = path.read_bytes()
    with pytest.raises(DurabilityError, match="different serving structure"):
        RequestJournal.open(path, "other-fingerprint", fsync="off")
    # The refusal must precede torn-tail truncation: a journal we will not
    # replay is a journal we must not rewrite either.
    assert path.read_bytes() == before


def test_rotation_bounds_the_journal_at_backlog_size(tmp_path):
    path = tmp_path / "journal.wal"
    with RequestJournal.open(path, FP, fsync="off",
                             compact_min_settled=4) as j:
        for s in range(8):
            j.settle(j.admit(*_canon(s)))
        assert j.settles_since_rotate < 4  # rotation fired and reset
        assert len(j) == 0
    # Everything settled: the rotated journal is just its header.
    assert len(path.read_text().splitlines()) == 1


# -- the response-cache snapshot -------------------------------------------


def test_snapshot_round_trip_missing_and_mismatch(tmp_path):
    path = tmp_path / "cache.snap"
    assert load_snapshot(path, FP) is None
    key, canon = _canon(3)
    result = solve_cell((EngineSpec(), canon))
    entries = [(key, result), (b"\x00\x01", {"n": 2})]
    save_snapshot(path, entries, FP)
    assert load_snapshot(path, FP) == entries
    with pytest.raises(DurabilityError, match="different serving structure"):
        load_snapshot(path, "other-fingerprint")


def test_snapshot_rewrite_is_atomic_over_the_previous(tmp_path):
    path = tmp_path / "cache.snap"
    save_snapshot(path, [(b"\x01", {"n": 1})], FP)
    # A leftover tmp from a crashed writer must not poison the next save.
    path.with_suffix(".tmp").write_text("garbage from a dead writer")
    save_snapshot(path, [(b"\x02", {"n": 2})], FP)
    assert load_snapshot(path, FP) == [(b"\x02", {"n": 2})]
    assert not path.with_suffix(".tmp").exists()


def test_snapshot_corrupt_entry_raises_typed(tmp_path):
    path = tmp_path / "cache.snap"
    save_snapshot(path, [(b"\x01", {"n": 1}), (b"\x02", {"n": 2})], FP)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = '{"k":"zz-not-hex","v":{"n":1}}\n'
    path.write_text("".join(lines))
    with pytest.raises(DurabilityError):
        load_snapshot(path, FP)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 10))
def test_snapshot_and_journal_payloads_are_bit_exact(tmp_path_factory, seed, n):
    """Result and canon dicts survive the disk round trip byte-identically.

    Both artifacts carry scalars in the exact hex/frac JSON encoding, so
    dump -> load must reproduce not just equal dicts but equal *bytes*
    under canonical dumping -- the invariant behind "a restarted server is
    indistinguishable in bytes from one that never died".
    """
    tmp = tmp_path_factory.mktemp("durability-prop")
    key, _order, canon = canonical_request(_graph_dict(seed, n))
    result = solve_cell((EngineSpec(), canon))

    save_snapshot(tmp / "cache.snap", [(key, result)], FP)
    [(rkey, rresult)] = load_snapshot(tmp / "cache.snap", FP)
    assert rkey == key
    assert json.dumps(rresult, sort_keys=True) == \
        json.dumps(result, sort_keys=True)

    with RequestJournal.open(tmp / "journal.wal", FP, fsync="off") as j:
        seq = j.admit(key, canon)
    with RequestJournal.open(tmp / "journal.wal", FP, fsync="off") as j:
        [(jseq, jkey, jcanon)] = j.replay_items()
    assert (jseq, jkey) == (seq, key)
    assert json.dumps(jcanon, sort_keys=True) == \
        json.dumps(canon, sort_keys=True)


# -- config validation ------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"dir": ""},
    {"fsync": "sometimes"},
    {"snapshot_interval_s": 0.0},
    {"snapshot_interval_s": float("inf")},
    {"compact_min_settled": 0},
])
def test_durability_config_rejects_malformed(tmp_path, kwargs):
    base = {"dir": str(tmp_path / "state")}
    base.update(kwargs)
    with pytest.raises(MalformedInputError):
        DurabilityConfig(**base).validated()


def test_durability_config_rejects_unwritable_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the state dir should go")
    with pytest.raises(MalformedInputError, match="not writable"):
        DurabilityConfig(dir=str(blocker / "state")).validated()


def test_durability_config_creates_dir(tmp_path):
    target = tmp_path / "a" / "b" / "state"
    cfg = DurabilityConfig(dir=str(target), fsync="off").validated()
    assert target.is_dir()
    assert cfg.journal_path.parent == target


# -- server restart: snapshot restore + journal replay ----------------------


def _durable_config(tmp_path) -> ServeConfig:
    return ServeConfig(
        shards=1, batch_max=4,
        durability=DurabilityConfig(dir=str(tmp_path / "state"), fsync="off",
                                    snapshot_interval_s=60.0))


def test_restart_restores_snapshot_and_serves_identical_bytes(tmp_path):
    graphs = [_graph_dict(s) for s in range(4)]
    handle = start_in_thread(_durable_config(tmp_path))
    client = Client(handle.port)
    try:
        first = [client.rpc({"op": "solve", "graph": g})["result"]
                 for g in graphs]
        stats = client.rpc({"op": "stats"})["result"]
        assert stats["serve_journal_admits"] == 4
        assert stats["durability"]["journal_depth"] == 0  # all settled
    finally:
        client.close()
        handle.stop()  # graceful: writes the shutdown snapshot

    handle = start_in_thread(_durable_config(tmp_path))
    client = Client(handle.port)
    try:
        again = [client.rpc({"op": "solve", "graph": g})["result"]
                 for g in graphs]
        stats = client.rpc({"op": "stats"})["result"]
        assert stats["serve_snapshot_restored"] >= 4
        assert stats["serve_cache_hits"] == 4  # no re-solve after restore
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(first, sort_keys=True)
    finally:
        client.close()
        handle.stop()


def test_restart_replays_unsettled_admission(tmp_path):
    cfg = _durable_config(tmp_path)
    graph = _graph_dict(17)
    # An admission the dead incarnation never settled: written straight
    # into the journal, exactly as a crash between admit and flush leaves.
    handle = start_in_thread(cfg)
    fp = durability_fingerprint(handle.server.spec)
    handle.stop()
    key, _order, canon = canonical_request(graph)
    with RequestJournal.open(cfg.durability.journal_path, fp,
                             fsync="off") as j:
        j.admit(key, canon)

    handle = start_in_thread(cfg)
    client = Client(handle.port)
    try:
        handle.ctx  # server is up; replay ran during start()
        client.rpc({"op": "drain"})
        stats = client.rpc({"op": "stats"})["result"]
        assert stats["serve_journal_replayed"] == 1
        assert stats["durability"]["journal_depth"] == 0
        # The replayed solve landed in the cache: the original requester's
        # retry is a pure hit, bit-identical to a crash-free solve.
        result = client.rpc({"op": "solve", "graph": graph})["result"]
        stats = client.rpc({"op": "stats"})["result"]
        assert stats["serve_cache_hits"] >= 1
        fresh = start_in_thread(ServeConfig(shards=1, batch_max=4))
        fresh_client = Client(fresh.port)
        try:
            expected = fresh_client.rpc(
                {"op": "solve", "graph": graph})["result"]
        finally:
            fresh_client.close()
            fresh.stop()
        assert json.dumps(result, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
    finally:
        client.close()
        handle.stop()
