"""Stable storage: the part of the log that survives crashes."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.log.records import LogRecord, LogRecordType


class StableStorage:
    """An append-only record store that survives simulated crashes.

    Per-transaction lookups go through a ``txn_id -> records`` index
    kept by :meth:`append`, so answering a late message for a forgotten
    transaction costs the same however long the log has grown.
    """

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._by_txn: Dict[str, List[LogRecord]] = {}

    def append(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            if self._records and record.lsn <= self._records[-1].lsn:
                raise ValueError(
                    f"out-of-order append: lsn {record.lsn} after "
                    f"{self._records[-1].lsn}")
            self._records.append(record)
            self._by_txn.setdefault(record.txn_id, []).append(record)

    def _replace(self, records: List[LogRecord]) -> None:
        """Swap in a new record list (compaction) and rebuild the index."""
        self._records = []
        self._by_txn = {}
        StableStorage.append(self, records)

    def records(self) -> List[LogRecord]:
        return list(self._records)

    def records_for(self, txn_id: str) -> List[LogRecord]:
        return list(self._by_txn.get(txn_id, ()))

    def last_record_for(self, txn_id: str,
                        record_type: Optional[LogRecordType] = None
                        ) -> Optional[LogRecord]:
        for record in reversed(self._by_txn.get(txn_id, ())):
            if record_type is None or record.record_type == record_type:
                return record
        return None

    def has_record(self, txn_id: str, record_type: LogRecordType) -> bool:
        return self.last_record_for(txn_id, record_type) is not None

    @property
    def durable_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    def __len__(self) -> int:
        return len(self._records)
