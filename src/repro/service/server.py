"""Transports for the control plane: asyncio sockets and in-process.

The wire protocol is newline-delimited JSON over a stream: each line the
client sends is either one encoded request (a JSON object) or one
request *batch* (a JSON array of objects — submitted to the plane as a
single batch, paying one re-arbitration); each line the server answers
is the matching encoded response object or array.  ``{"op": "bye"}``
closes the connection politely.  Both ends reuse the
:mod:`repro.service.requests` codec verbatim — the ledger, the socket
and the in-process transport all speak exactly the same records.

``Infinity`` appears on the wire for unbounded demand; that is not
strict JSON, but both ends are this module (Python's ``json`` emits and
parses it natively), and the ledger shares the convention.

:class:`ControlPlaneServer` serializes all requests through the single
event loop — the plane itself is single-threaded by construction, so
concurrent clients interleave at batch granularity, never inside one.

:class:`InProcessTransport` is the socket-free twin for tests and
benchmarks: the same encode -> decode -> submit -> encode -> decode
round-trip, minus the kernel.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional, Sequence, Union

from .plane import ControlPlane
from .requests import (
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

__all__ = ["ControlPlaneServer", "ControlPlaneClient", "InProcessTransport"]

#: One line must fit in the stream reader's buffer; request batches are
#: small (kilobytes), but a generous ceiling costs nothing.
_LIMIT = 2**20


class ControlPlaneServer:
    """Serve one :class:`~repro.service.plane.ControlPlane` over TCP."""

    def __init__(
        self,
        plane: ControlPlane,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.plane = plane
        self.host = host
        self.port = port  #: 0 until :meth:`start` binds a real port
        self._server: Optional[asyncio.AbstractServer] = None
        self.connections = 0

    async def start(self) -> None:
        """Bind and start accepting (resolves ``port`` if it was 0)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ControlPlaneServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    text = line.decode("utf-8").strip()
                    if not text:
                        continue
                    payload = json.loads(text)
                except ValueError as exc:  # bad UTF-8 or JSON: answer it
                    out = _error_response(exc)
                else:
                    if isinstance(payload, dict) and payload.get("op") == "bye":
                        break
                    out = self._dispatch(payload)
                writer.write((json.dumps(out) + "\n").encode("utf-8"))
                await writer.drain()
        finally:
            writer.close()
            # CancelledError included: the event loop tears the handler
            # task down while it drains the close — the connection is
            # already done, so completing quietly beats a logged
            # "exception was never retrieved" from the streams protocol.
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown
                pass

    def _dispatch(self, payload: Union[dict, list]):
        """Decode, submit, encode.  Malformed input becomes an error
        response on the wire instead of a dropped connection."""
        try:
            items = payload if isinstance(payload, list) else [payload]
            if not all(isinstance(item, dict) for item in items):
                raise TypeError(
                    "a request line must be a JSON object or an array of "
                    "objects"
                )
            if isinstance(payload, list):
                batch = tuple(decode_request(item) for item in payload)
                return [
                    encode_response(r) for r in self.plane.submit_batch(batch)
                ]
            return encode_response(self.plane.submit(decode_request(payload)))
        except (ValueError, TypeError, KeyError) as exc:
            return _error_response(exc)


def _error_response(exc: Exception) -> dict:
    return encode_response(
        Response(op="request", status="error", error=str(exc))
    )


class ControlPlaneClient:
    """Line-protocol client for :class:`ControlPlaneServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_LIMIT
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.write(b'{"op":"bye"}\n')
                await self._writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ControlPlaneClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _roundtrip(self, payload) -> Union[dict, list]:
        if self._writer is None or self._reader is None:
            raise RuntimeError("client is not connected")
        self._writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    async def submit(self, request: Request) -> Response:
        """Send one request, await its response."""
        answer = await self._roundtrip(encode_request(request))
        return decode_response(answer)

    async def submit_batch(
        self, requests: Sequence[Request]
    ) -> List[Response]:
        """Send a burst as one batch (one server-side re-arbitration)."""
        answer = await self._roundtrip(
            [encode_request(r) for r in requests]
        )
        return [decode_response(item) for item in answer]


class InProcessTransport:
    """The socket-free transport: same codec, no event loop.

    Every request still round-trips ``encode -> JSON -> decode`` on both
    legs, so anything that survives this transport survives the wire —
    which is exactly what the tier-1 smoke test and the benchmarks rely
    on without paying socket latency.
    """

    def __init__(self, plane: ControlPlane) -> None:
        self.plane = plane

    def submit(self, request: Request) -> Response:
        payload = json.loads(json.dumps(encode_request(request)))
        response = self.plane.submit(decode_request(payload))
        return decode_response(
            json.loads(json.dumps(encode_response(response)))
        )

    def submit_batch(self, requests: Sequence[Request]) -> List[Response]:
        payload = json.loads(
            json.dumps([encode_request(r) for r in requests])
        )
        batch = tuple(decode_request(item) for item in payload)
        responses = self.plane.submit_batch(batch)
        return [
            decode_response(json.loads(json.dumps(encode_response(r))))
            for r in responses
        ]
