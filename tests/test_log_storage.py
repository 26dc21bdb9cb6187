"""Unit tests for stable storage."""

import pytest

from repro.log.records import LogRecord, LogRecordType
from repro.log.storage import StableStorage


def rec(lsn, txn="t", rtype=LogRecordType.PREPARED, **payload):
    return LogRecord(lsn=lsn, txn_id=txn, record_type=rtype, node="n",
                     forced=True, written_at=0.0, payload=payload)


def test_append_and_read_back():
    storage = StableStorage()
    storage.append([rec(1), rec(2, rtype=LogRecordType.COMMITTED)])
    assert len(storage) == 2
    assert storage.durable_lsn == 2


def test_out_of_order_append_rejected():
    storage = StableStorage()
    storage.append([rec(5)])
    with pytest.raises(ValueError):
        storage.append([rec(3)])


def test_records_for_txn():
    storage = StableStorage()
    storage.append([rec(1, "a"), rec(2, "b"), rec(3, "a")])
    assert len(storage.records_for("a")) == 2
    assert storage.records_for("missing") == []


def test_last_record_for_finds_most_recent():
    storage = StableStorage()
    storage.append([
        rec(1, "t", LogRecordType.PREPARED),
        rec(2, "t", LogRecordType.COMMITTED),
        rec(3, "t", LogRecordType.END),
    ])
    assert storage.last_record_for("t").record_type is LogRecordType.END
    assert storage.last_record_for(
        "t", LogRecordType.COMMITTED).lsn == 2
    assert storage.last_record_for("t", LogRecordType.ABORTED) is None


def test_has_record():
    storage = StableStorage()
    storage.append([rec(1, "t", LogRecordType.COMMIT_PENDING)])
    assert storage.has_record("t", LogRecordType.COMMIT_PENDING)
    assert not storage.has_record("t", LogRecordType.COMMITTED)


def test_records_returns_copy():
    storage = StableStorage()
    storage.append([rec(1)])
    listing = storage.records()
    listing.clear()
    assert len(storage) == 1


def test_empty_storage():
    storage = StableStorage()
    assert storage.durable_lsn == 0
    assert storage.last_record_for("t") is None


def test_record_payload_access():
    record = rec(1, coordinator="c")
    assert record.get("coordinator") == "c"
    assert record.get("missing", "dflt") == "dflt"
    assert "prepared" in record.describe()
    assert record.describe().startswith("*")  # forced marker


# ----------------------------------------------------------------------
# The per-transaction index answers what a linear scan of the log does
# ----------------------------------------------------------------------
TYPES = [LogRecordType.PREPARED, LogRecordType.COMMITTED,
         LogRecordType.ABORTED, LogRecordType.END]


def assert_index_matches_scan(storage):
    records = storage.records()
    for txn in sorted({r.txn_id for r in records} | {"missing"}):
        scanned = [r for r in records if r.txn_id == txn]
        assert storage.records_for(txn) == scanned
        assert storage.last_record_for(txn) == \
            (scanned[-1] if scanned else None)
        for rtype in TYPES:
            typed = [r for r in scanned if r.record_type == rtype]
            assert storage.last_record_for(txn, rtype) == \
                (typed[-1] if typed else None)
            assert storage.has_record(txn, rtype) == bool(typed)


def mixed_history(start=1, count=40):
    return [rec(lsn, f"t{lsn % 7}", TYPES[lsn % len(TYPES)])
            for lsn in range(start, start + count)]


def test_index_matches_scan_after_appends():
    storage = StableStorage()
    history = mixed_history()
    for lo in range(0, len(history), 9):
        storage.append(history[lo:lo + 9])
        assert_index_matches_scan(storage)


def test_index_survives_a_rejected_append():
    storage = StableStorage()
    storage.append(mixed_history(count=5))
    with pytest.raises(ValueError):
        storage.append([rec(6, "t6"), rec(2, "t2")])
    assert_index_matches_scan(storage)


def test_records_for_returns_a_copy():
    storage = StableStorage()
    storage.append([rec(1, "a")])
    storage.records_for("a").append(rec(2, "a"))
    assert len(storage.records_for("a")) == 1


def test_file_storage_index_after_load_compaction_and_torn_tail(tmp_path):
    from repro.transport.storage import FileStableStorage

    path = tmp_path / "n0.wal"
    storage = FileStableStorage(path)
    storage.append(mixed_history(1, 20))
    storage.append([rec(21, "-", LogRecordType.CHECKPOINT)])
    storage.append(mixed_history(22, 20))
    assert_index_matches_scan(storage)
    assert storage.compact()
    assert storage.records()[0].lsn == 21
    assert_index_matches_scan(storage)
    storage.append(mixed_history(42, 5))
    assert_index_matches_scan(storage)
    storage.close()

    reloaded = FileStableStorage(path, recover=True)
    assert reloaded.torn_tail is None
    assert_index_matches_scan(reloaded)
    reloaded.close()

    path.write_bytes(path.read_bytes()[:-7])          # tear the tail
    torn = FileStableStorage(path, recover=True)
    assert torn.torn_tail is not None
    assert torn.records()[-1].lsn == 45
    assert_index_matches_scan(torn)
    torn.close()
