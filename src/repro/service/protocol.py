"""The service's line-framed wire protocol.

``repro serve`` speaks a local, HTTP-free protocol over a Unix socket
or a stdin/stdout pipe.  A connection carries one of three request
framings, sniffed from the first bytes exactly like the offline
decoders sniff trace files:

**NDJSON** (first byte ``{``)
    One JSON object per ``\\n``-terminated line; many requests per
    connection, responses matched by ``id`` (they may arrive out of
    request order — workers answer as they finish).  Fields:

    * ``id`` — any JSON scalar, echoed verbatim in the response;
    * ``op`` — ``verify`` (default), ``ping``, ``stats`` or ``drain``;
    * ``trace_b64`` — base64 trace bytes in *any* offline format
      (REPROSTM / REPROBIN / JSON / text — the shared sniffing decoder
      runs server-side), or ``trace`` — the trace inline as text;
    * ``tenant`` — namespace for store/quota isolation (default
      ``public``; ``[A-Za-z0-9_-]{1,64}``);
    * ``certify`` — ``off``/``on``/``strict`` (default: the server's);
    * ``deadline_s`` — per-request wall-clock budget.

**raw REPROSTM** (magic ``REPROSTM``)
    The connection *is* one framed stream, parsed incrementally as
    bytes arrive; the request completes at the END frame.  Malformed
    frames are rejected with the absolute byte offset, exactly like
    ``repro verify`` on the same bytes.

**raw REPROBIN** (magic ``REPROBIN``)
    The connection is one binary trace; the request completes when the
    client shuts down its write half.

Responses are always single NDJSON lines:

=============  ======================================================
``status``     meaning
=============  ======================================================
``ok``         a verdict: ``verdict`` (``holds``/``VIOLATED``/
               ``UNKNOWN``), ``method``, ``reason``,
               ``unknown_reason``, ``certified``, ``certificate``
               (kind + sha256 digest), ``provenance``, and ``code``
               mirroring the CLI exit discipline (0/1/3)
``retry_after``  backpressure: the queue (or the tenant's share of
               it) is full; retry after ``retry_after_s`` seconds.
               Nothing was dropped silently — this *is* the answer
``error``      unusable input (malformed frame, oversized request,
               bad field); ``reason`` carries a byte offset where one
               exists, ``code`` is 2
``shutdown``   the server is draining; the request was not (fully)
               processed.  Carries ``verdict: UNKNOWN`` with
               ``unknown_reason: shutdown`` and ``code`` 3
=============  ======================================================

Size and framing limits are enforced *incrementally* — an oversized or
unframeable request is rejected and (in NDJSON mode) skipped to the
next line without killing the connection, so one bad client request
never takes the parser down.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core import serialize_bin
from repro.core.result import CERTIFY_MODES

PROTOCOL_VERSION = 1

#: Default per-request size cap (bytes of trace / line payload).
MAX_REQUEST_BYTES = 8 << 20

STATUS_OK = "ok"
STATUS_RETRY_AFTER = "retry_after"
STATUS_ERROR = "error"
STATUS_SHUTDOWN = "shutdown"

OPS = ("verify", "ping", "stats", "drain")

DEFAULT_TENANT = "public"
_TENANT_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

@dataclass
class ServiceRequest:
    """One parsed request, framing-independent."""

    id: Any
    op: str = "verify"
    trace: bytes | None = None
    tenant: str = DEFAULT_TENANT
    certify: str | None = None
    deadline_s: float | None = None
    #: Where the request came from, for diagnostics ("<conn 3>" etc).
    source: str = "<request>"


@dataclass
class ParseError:
    """A rejected request: what was wrong and where.

    ``offset`` is the absolute byte offset *in the connection stream*
    (NDJSON: the offending line's start, refined to the bad byte where
    the decoder knows it; raw modes: the malformed frame's offset).
    ``fatal`` marks errors the parser cannot resync past — raw-mode
    framing damage; the connection should be closed after responding.
    """

    message: str
    offset: int
    req_id: Any = None
    fatal: bool = False


def valid_tenant(name: Any) -> bool:
    return isinstance(name, str) and bool(_TENANT_RE.match(name))


class RequestParser:
    """Incremental, mode-sniffing decoder for one connection.

    Feed bytes as they arrive (:meth:`feed`), drain events
    (:meth:`events`), and finalize on EOF (:meth:`eof`).  Events are
    ``("request", ServiceRequest)`` or ``("error", ParseError)``; the
    parser itself never raises on malformed input.
    """

    def __init__(
        self,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        source: str = "<conn>",
    ):
        self.max_request_bytes = max_request_bytes
        self.source = source
        self._buf = bytearray()
        self._consumed = 0  # absolute offset of _buf[0]
        self._mode: str | None = None  # None | "json" | "stream" | "bin"
        self._discarding = False  # json mode: skipping an oversized line
        self._dead = False  # raw mode: fatal error already emitted
        self._events: list[tuple[str, Any]] = []
        self._reader: serialize_bin.FrameReader | None = None
        self._raw = bytearray()  # raw-mode request bytes
        self._seq = 0  # ids assigned to raw-mode requests

    @property
    def bytes_consumed(self) -> int:
        return self._consumed

    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> None:
        if self._dead:
            return
        self._buf.extend(data)
        if self._mode is None:
            self._sniff()
        if self._mode == "json":
            self._drain_json()
        elif self._mode == "stream":
            self._drain_stream()
        elif self._mode == "bin":
            self._drain_bin()

    def events(self) -> Iterator[tuple[str, Any]]:
        while self._events:
            yield self._events.pop(0)

    def eof(self) -> Iterator[tuple[str, Any]]:
        """Finalize at end of input; yields any remaining events."""
        if not self._dead:
            if self._mode == "json" and self._buf and not self._discarding:
                # A final line without its newline is still a line.
                self._buf.extend(b"\n")
                self._drain_json()
            elif self._mode == "stream" and self._reader is not None:
                if not self._reader.ended:
                    self._error(
                        "stream ends without an END frame "
                        f"({self._reader.pending_bytes} bytes buffered) "
                        f"at byte {self._reader.bytes_consumed}",
                        self._reader.bytes_consumed,
                        fatal=True,
                    )
            elif self._mode == "bin":
                if self._raw:
                    self._emit_raw(bytes(self._raw))
                    self._raw.clear()
            elif self._mode is None and self._buf:
                # Too short to sniff: not a protocol we speak.
                self._error(
                    f"unrecognized request ({len(self._buf)} bytes, "
                    "no known framing)", self._consumed, fatal=True,
                )
        yield from self.events()

    # ------------------------------------------------------------------
    def _sniff(self) -> None:
        if not self._buf:
            return
        head = bytes(self._buf[:8])
        if head.startswith(b"{") or head.startswith(b"\n"):
            self._mode = "json"
            return
        magics = (serialize_bin.STREAM_MAGIC, serialize_bin.MAGIC)
        for magic, mode in zip(magics, ("stream", "bin")):
            if magic.startswith(head[: len(magic)]):
                if len(head) < len(magic):
                    return  # need more bytes to decide
                if head.startswith(magic):
                    self._mode = mode
                    if mode == "stream":
                        self._reader = serialize_bin.FrameReader()
                    return
        self._error(
            f"unrecognized framing (first bytes {head!r}); expected "
            "NDJSON, REPROSTM or REPROBIN",
            self._consumed, fatal=True,
        )

    def _error(
        self, message: str, offset: int, req_id: Any = None,
        fatal: bool = False,
    ) -> None:
        self._events.append((
            "error",
            ParseError(
                f"{self.source}: {message}", offset, req_id=req_id,
                fatal=fatal,
            ),
        ))
        if fatal:
            self._dead = True

    # -------------------------------------------------- NDJSON mode --
    def _drain_json(self) -> None:
        while True:
            nl = self._buf.find(b"\n")
            if nl < 0:
                if self._discarding:
                    self._consumed += len(self._buf)
                    self._buf.clear()
                elif len(self._buf) > self.max_request_bytes:
                    self._error(
                        f"request line exceeds {self.max_request_bytes} "
                        "bytes without a newline; discarding to the "
                        "next line",
                        self._consumed,
                    )
                    self._discarding = True
                    self._consumed += len(self._buf)
                    self._buf.clear()
                return
            line = bytes(self._buf[:nl])
            line_start = self._consumed
            del self._buf[: nl + 1]
            self._consumed += nl + 1
            if self._discarding:
                self._discarding = False
                continue
            if not line.strip():
                continue
            if len(line) > self.max_request_bytes:
                self._error(
                    f"request line is {len(line)} bytes "
                    f"(max {self.max_request_bytes})",
                    line_start,
                )
                continue
            self._parse_json_line(line, line_start)

    def _parse_json_line(self, line: bytes, line_start: int) -> None:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            self._error(
                f"bad JSON: {e.msg}", line_start + max(0, e.pos), None
            )
            return
        if not isinstance(obj, dict):
            self._error(
                f"request must be a JSON object, got {type(obj).__name__}",
                line_start,
            )
            return
        req_id = obj.get("id")
        op = obj.get("op", "verify")
        if op not in OPS:
            self._error(
                f"unknown op {op!r}; expected one of {OPS}",
                line_start, req_id,
            )
            return
        tenant = obj.get("tenant", DEFAULT_TENANT)
        if not valid_tenant(tenant):
            self._error(
                f"bad tenant {tenant!r} (want [A-Za-z0-9_-]{{1,64}})",
                line_start, req_id,
            )
            return
        certify = obj.get("certify")
        if certify is not None and certify not in CERTIFY_MODES:
            self._error(
                f"bad certify {certify!r}; expected one of "
                f"{CERTIFY_MODES}",
                line_start, req_id,
            )
            return
        deadline_s = obj.get("deadline_s")
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) or deadline_s < 0:
                self._error(
                    f"bad deadline_s {deadline_s!r} (want seconds >= 0)",
                    line_start, req_id,
                )
                return
        trace: bytes | None = None
        if op == "verify":
            if "trace_b64" in obj:
                if not isinstance(obj["trace_b64"], str):
                    self._error(
                        "trace_b64 must be a base64 string",
                        line_start, req_id,
                    )
                    return
                try:
                    trace = base64.b64decode(
                        obj["trace_b64"], validate=True
                    )
                except (binascii.Error, ValueError) as e:
                    self._error(
                        f"bad trace_b64: {e}", line_start, req_id
                    )
                    return
            elif "trace" in obj:
                if not isinstance(obj["trace"], str):
                    self._error(
                        "trace must be a string (use trace_b64 for "
                        "binary formats)",
                        line_start, req_id,
                    )
                    return
                trace = obj["trace"].encode("utf-8")
            else:
                self._error(
                    "verify request carries no trace "
                    "(want trace_b64 or trace)",
                    line_start, req_id,
                )
                return
            if len(trace) > self.max_request_bytes:
                self._error(
                    f"trace is {len(trace)} bytes "
                    f"(max {self.max_request_bytes})",
                    line_start, req_id,
                )
                return
        self._events.append((
            "request",
            ServiceRequest(
                id=req_id, op=op, trace=trace, tenant=tenant,
                certify=certify,
                deadline_s=(
                    float(deadline_s) if deadline_s is not None else None
                ),
                source=self.source,
            ),
        ))

    # ---------------------------------------------------- raw modes --
    def _emit_raw(self, trace: bytes) -> None:
        self._seq += 1
        self._events.append((
            "request",
            ServiceRequest(
                id=f"raw-{self._seq}", op="verify", trace=trace,
                source=self.source,
            ),
        ))

    def _drain_stream(self) -> None:
        """Raw REPROSTM: validate frames incrementally; the request is
        the whole byte stream once the END frame lands."""
        reader = self._reader
        assert reader is not None
        chunk = bytes(self._buf)
        self._raw.extend(chunk)
        self._consumed += len(chunk)
        self._buf.clear()
        if len(self._raw) > self.max_request_bytes:
            self._error(
                f"stream request exceeds {self.max_request_bytes} bytes",
                self._consumed, fatal=True,
            )
            return
        reader.feed(chunk)
        try:
            for _tag, _payload in reader.events():
                pass
        except serialize_bin.BinaryFormatError as e:
            self._error(f"malformed stream: {e}", e.offset, fatal=True)
            return
        if reader.ended:
            if reader.pending_bytes:
                self._error(
                    f"{reader.pending_bytes} trailing bytes after the "
                    f"END frame at byte {reader.bytes_consumed}",
                    reader.bytes_consumed, fatal=True,
                )
                return
            self._emit_raw(bytes(self._raw))
            self._raw.clear()
            self._dead = True  # one stream per connection

    def _drain_bin(self) -> None:
        """Raw REPROBIN: buffer until EOF (the request delimiter)."""
        self._raw.extend(self._buf)
        self._consumed += len(self._buf)
        self._buf.clear()
        if len(self._raw) > self.max_request_bytes:
            self._error(
                f"binary request exceeds {self.max_request_bytes} bytes",
                self._consumed, fatal=True,
            )


# ---------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------
def certificate_digest(result: Any) -> dict[str, Any] | None:
    """A stable summary of a result's certificate material.

    Certificates can be large (RUP proofs); the wire carries their
    kind plus a SHA-256 over the canonical ``repr`` of the payloads —
    enough for the differential soak to assert byte-identical proof
    material between the daemon and offline ``repro batch``.  Covers
    per-address certificates when the top-level result has none.
    """
    if result is None:
        return None
    cert = getattr(result, "certificate", None)
    material: list[tuple[Any, ...]] = []
    kinds: list[str] = []
    if cert is not None:
        kinds.append(cert.kind)
        material.append((None, cert.kind, cert.payload))
    else:
        per_address = getattr(result, "per_address", None) or {}
        for addr in sorted(per_address, key=repr):
            sub = per_address[addr]
            sub_cert = getattr(sub, "certificate", None)
            if sub_cert is not None:
                kinds.append(sub_cert.kind)
                material.append((repr(addr), sub_cert.kind, sub_cert.payload))
    if not material:
        return None
    digest = hashlib.sha256(repr(tuple(material)).encode()).hexdigest()
    return {"kinds": kinds, "sha256": digest}


def response_for_outcome(req_id: Any, outcome: Any) -> dict[str, Any]:
    """Build the ``ok``/``error`` response for a batch-engine
    :class:`~repro.engine.batch.SourceOutcome`."""
    if outcome.error is not None or outcome.result is None:
        return response_error(req_id, outcome.error or "no result")
    result = outcome.result
    verdict = outcome.verdict
    code = 0 if verdict == "holds" else 1 if verdict == "VIOLATED" else 3
    return {
        "id": req_id,
        "status": STATUS_OK,
        "verdict": verdict,
        "code": code,
        "method": result.method,
        "reason": result.reason,
        "unknown_reason": result.unknown_reason,
        "certified": outcome.certified,
        "certificate": certificate_digest(result),
        "provenance": dict(outcome.provenance),
    }


def response_error(
    req_id: Any, message: str, offset: int | None = None
) -> dict[str, Any]:
    reason = message if offset is None else f"{message} at byte {offset}"
    return {
        "id": req_id, "status": STATUS_ERROR, "code": 2, "reason": reason,
    }


def response_retry_after(
    req_id: Any, retry_after_s: float, detail: str
) -> dict[str, Any]:
    return {
        "id": req_id,
        "status": STATUS_RETRY_AFTER,
        "retry_after_s": round(retry_after_s, 3),
        "reason": detail,
    }


def response_shutdown(req_id: Any, detail: str) -> dict[str, Any]:
    return {
        "id": req_id,
        "status": STATUS_SHUTDOWN,
        "verdict": "UNKNOWN",
        "code": 3,
        "unknown_reason": "shutdown",
        "reason": f"shutdown: {detail}" if detail else "shutdown",
    }


def encode_response(payload: dict[str, Any]) -> bytes:
    """One response as an NDJSON line (sorted keys: byte-stable for
    the differential soak)."""
    return (
        json.dumps(payload, sort_keys=True, default=repr) + "\n"
    ).encode("utf-8")


def decode_response(line: bytes) -> dict[str, Any]:
    return json.loads(line.decode("utf-8"))
