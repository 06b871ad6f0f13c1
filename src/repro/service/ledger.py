"""The reservation ledger: an append-only JSONL journal of admissions.

One line per record.  The first record is the **header** — the plane's
full configuration plus a snapshot of the shared platform — and every
later record is one request *batch*: the encoded requests, their
(timing-stripped) responses, and the complete post-batch reservation
state (per-session grants, Lemma 5.1 bounds, plan operations).

Replay is deterministic reconstruction, not log-structured state: a
fresh :class:`~repro.service.plane.ControlPlane` built from the header
re-submits every recorded batch through the *same* pure pipeline
(broker arbitration -> grant diff -> coalesced repair delta) and must
land on bit-identical grants — floats survive JSON exactly
(``json.dumps``/``loads`` round-trips ``repr``), so the comparison is
``==``, not "close".  A mismatch means the code path changed under the
journal and :meth:`~repro.service.plane.ControlPlane.recover` raises
rather than resume from a state the journal does not describe.

The file handle is opened lazily in append mode and flushed per record
(durability against process death; no fsync — the journal guards
against crashes of *this* process, not the machine).  A crash mid-write
leaves a torn final line without its newline; readers drop it and
recovery cuts it off before appending again.  A ledger with
``path=None`` is memory-only: same record stream, nothing on disk —
what the latency benchmarks use so disk flush noise never pollutes
admission percentiles.

Records are **read-only** once appended.  A session's grants payload is
a :class:`FrozenPayload` that the plane keeps until the session's
grants move, so consecutive records share the payloads of sessions
whose grants did not change (``ledger.records`` holds one dict per
*change*, not per batch), and :meth:`ReservationLedger.append` re-uses
their encoded JSON instead of re-encoding the full grants table every
batch.  Every line is still byte-identical to
``json.dumps(record, separators=(",", ":"))``; a frozen payload raises
on in-place mutation, so a re-used encoding can never go stale.
"""

from __future__ import annotations

import json
import os
from typing import IO, Dict, List, Optional, Tuple

__all__ = ["FrozenPayload", "ReservationLedger"]

#: ``json.dumps(obj, separators=(",", ":"))`` without rebuilding an
#: encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _read_only(self, *_args, **_kwargs):
    raise TypeError("journal payloads are read-only")


class FrozenPayload(dict):
    """A dict that refuses in-place mutation (see module docstring).

    The ledger caches the encoding of a frozen payload for as long as
    consecutive records carry the same object, so its values must be
    immutable too (grants are floats); copies (``dict(p)``,
    ``copy.deepcopy``, pickling) are ordinary or frozen snapshots.
    """

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


class ReservationLedger:
    """Append-only JSONL journal (see module docstring)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.records: List[dict] = []  #: records appended *by this handle*
        self._file: Optional[IO[str]] = None
        #: ``id(payload) -> (payload, its JSON)`` for the frozen grants
        #: payloads of the last record (holding the payload pins its id).
        self._fragments: Dict[int, Tuple[FrozenPayload, str]] = {}

    def append(self, record: dict) -> None:
        """Journal one record (one JSON object, one line, flushed)."""
        self.records.append(record)
        if self.path is None:
            return
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(self._encode_record(record) + "\n")
        self._file.flush()

    def _encode_record(self, record: dict) -> str:
        """``json.dumps(record, separators=(",", ":"))``, re-using the
        encoding of every frozen grants payload the previous record
        already carried."""
        grants = record.get("grants")
        if not (
            isinstance(grants, dict)
            and all(isinstance(key, str) for key in record)
            and all(isinstance(name, str) for name in grants)
        ):
            self._fragments = {}
            return _encode(record)
        fragments: Dict[int, Tuple[FrozenPayload, str]] = {}
        parts = []
        for name, payload in grants.items():
            if type(payload) is FrozenPayload:
                cached = self._fragments.get(id(payload))
                if cached is None:
                    cached = (payload, _encode(payload))
                fragments[id(payload)] = cached
                text = cached[1]
            else:
                text = _encode(payload)
            parts.append(_encode(name) + ":" + text)
        self._fragments = fragments
        grants_text = "{" + ",".join(parts) + "}"
        items = (
            _encode(key)
            + ":"
            + (grants_text if key == "grants" else _encode(value))
            for key, value in record.items()
        )
        return "{" + ",".join(items) + "}"

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "ReservationLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: str) -> List[dict]:
        """Load every record of a journal (empty file -> empty list).

        A final line that lacks its newline and does not parse is a torn
        append — the process died mid-write — and is dropped.  A bad
        line anywhere else is corruption and raises.
        """
        return _scan(path)[0]

    @staticmethod
    def trim_torn_tail(path: str) -> None:
        """Cut the file back to its last complete record, so appends
        resume on a record boundary (see :meth:`read`)."""
        end = _scan(path)[1]
        with open(path, "r+b") as handle:
            handle.truncate(end)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":  # intact record, torn newline
                    handle.write(b"\n")


def _scan(path: str) -> Tuple[List[dict], int]:
    """The journal's records, plus the byte length of the prefix that
    holds them."""
    records: List[dict] = []
    pos = end = 0
    with open(path, "rb") as handle:
        for raw in handle:
            pos += len(raw)
            try:
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                records.append(json.loads(text))
            except ValueError:
                if raw.endswith(b"\n"):
                    raise
                break  # torn tail: the last line, cut mid-write
            end = pos
    return records, end
