"""JSON serialization of executions, schedules, and results.

The interchange format for storing traces on disk and for the CLI:

.. code-block:: json

    {
      "format": "repro-execution/1",
      "initial": {"x": 0},
      "final":   {"x": 2},
      "histories": [
        [{"op": "W", "addr": "x", "value": 1},
         {"op": "R", "addr": "x", "value": 1}],
        [{"op": "RW", "addr": "x", "read": 1, "written": 2}]
      ]
    }

Addresses and values must be JSON-representable (strings, numbers,
booleans, null); the distinguished initial-value sentinel round-trips
as the reserved object ``{"$initial": true}``.  Tuples (used internally
by the reductions' value names) round-trip as ``{"$tuple": [...]}``.
"""

from __future__ import annotations

import json
from typing import Any

from repro import obs
from repro.core.types import (
    INITIAL,
    Execution,
    OpKind,
    Operation,
)

FORMAT = "repro-execution/1"


def _encode_value(v: Any) -> Any:
    if v is INITIAL:
        return {"$initial": True}
    if isinstance(v, tuple):
        return {"$tuple": [_encode_value(x) for x in v]}
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise TypeError(f"value {v!r} is not JSON-serializable in this format")


def _decode_value(v: Any) -> Any:
    if isinstance(v, dict):
        if v.get("$initial"):
            return INITIAL
        if "$tuple" in v:
            return tuple(_decode_value(x) for x in v["$tuple"])
        raise ValueError(f"unrecognized value object {v!r}")
    return v


def _encode_op(op: Operation) -> dict:
    if op.kind is OpKind.READ:
        return {"op": "R", "addr": _encode_value(op.addr),
                "value": _encode_value(op.value_read)}
    if op.kind is OpKind.WRITE:
        return {"op": "W", "addr": _encode_value(op.addr),
                "value": _encode_value(op.value_written)}
    if op.kind is OpKind.RMW:
        return {"op": "RW", "addr": _encode_value(op.addr),
                "read": _encode_value(op.value_read),
                "written": _encode_value(op.value_written)}
    return {"op": op.kind.value, "addr": _encode_value(op.addr)}


def _decode_op(d: dict, proc: int, index: int) -> Operation:
    kind = d.get("op")
    addr = _decode_value(d.get("addr"))
    if kind == "R":
        return Operation(OpKind.READ, addr, proc, index,
                         value_read=_decode_value(d["value"]))
    if kind == "W":
        return Operation(OpKind.WRITE, addr, proc, index,
                         value_written=_decode_value(d["value"]))
    if kind == "RW":
        return Operation(OpKind.RMW, addr, proc, index,
                         value_read=_decode_value(d["read"]),
                         value_written=_decode_value(d["written"]))
    if kind == "ACQ":
        return Operation(OpKind.ACQUIRE, addr, proc, index)
    if kind == "REL":
        return Operation(OpKind.RELEASE, addr, proc, index)
    raise ValueError(f"unknown operation kind {kind!r}")


def execution_to_dict(execution: Execution) -> dict:
    """The JSON-ready dictionary form of an execution."""
    def kv_list(mapping: dict) -> list:
        # Addresses may be non-string (ints, tuples): use pair lists.
        return [[_encode_value(k), _encode_value(v)] for k, v in mapping.items()]

    return {
        "format": FORMAT,
        "initial": kv_list(execution.initial),
        "final": kv_list(execution.final),
        "histories": [
            [_encode_op(op) for op in h] for h in execution.histories
        ],
    }


def execution_from_dict(data: dict) -> Execution:
    """Inverse of :func:`execution_to_dict` (validates the format tag)."""
    if data.get("format") != FORMAT:
        raise ValueError(
            f"not a {FORMAT} document (format={data.get('format')!r})"
        )

    def from_kv(pairs) -> dict:
        return {_decode_value(k): _decode_value(v) for k, v in pairs}

    histories = [
        [_decode_op(d, proc, i) for i, d in enumerate(ops)]
        for proc, ops in enumerate(data.get("histories", []))
    ]
    return Execution.from_ops(
        histories,
        initial=from_kv(data.get("initial", [])),
        final=from_kv(data.get("final", [])),
    )


def dumps(execution: Execution, indent: int | None = 2) -> str:
    """Serialize an execution to a JSON string."""
    return json.dumps(execution_to_dict(execution), indent=indent)


def loads(text: str) -> Execution:
    """Parse an execution from a JSON string."""
    return execution_from_dict(json.loads(text))


def save(execution: Execution, path) -> None:
    """Write an execution to ``path`` as JSON."""
    from pathlib import Path

    Path(path).write_text(dumps(execution))


def load(path) -> Execution:
    """Read an execution from a file — JSON, or the binary trace
    format (:mod:`repro.core.serialize_bin`) when the magic matches."""
    from pathlib import Path

    raw = Path(path).read_bytes()
    from repro.core import serialize_bin

    if serialize_bin.sniff(raw):
        return serialize_bin.loads_bin(raw)
    return loads(raw.decode("utf-8"))


@obs.timed("parse")
def parse_trace_bytes(raw: bytes, source: str = "<bytes>", suffix: str = "") -> Execution:
    """Decode trace bytes from *any* supported on-disk format.

    Content sniffing, not extension trust: the framed-stream magic
    (REPROSTM) wins, then the binary trace magic (REPROBIN), then
    JSON-shaped text, then the line-oriented text format.  ``source``
    labels error messages (a path, or ``<stdin>``); every failure is a
    ``ValueError`` naming it.  This is the single decoding path shared
    by the CLI (``verify``/``monitor``/``batch``) and the batch engine.
    """
    from repro.core import serialize_bin

    if serialize_bin.sniff_stream(raw):
        try:
            execution, _ = serialize_bin.loads_stream(raw)
            return execution
        except serialize_bin.BinaryFormatError as e:
            raise ValueError(f"{source}: malformed stream: {e}") from e
    if serialize_bin.sniff(raw):
        try:
            return serialize_bin.loads_bin(raw)
        except serialize_bin.BinaryFormatError as e:
            raise ValueError(f"{source}: malformed binary trace: {e}") from e
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(
            f"{source}: not a binary trace, and not UTF-8 text "
            f"(bad byte at {e.start})"
        ) from e
    # A .json suffix means the serialize format, but so does JSON-shaped
    # content under any name — sniff the first significant character.
    if suffix == ".json" or text.lstrip()[:1] in ("{", "["):
        try:
            return loads(text)
        except json.JSONDecodeError as e:
            # One line, naming the file and the byte offset, so a
            # truncated or corrupted trace in a big sweep is findable.
            raise ValueError(
                f"{source}: malformed JSON at byte {e.pos} "
                f"(line {e.lineno}, column {e.colno}): {e.msg}"
            ) from e
    from repro.core.builder import parse_trace

    return parse_trace(text)


def load_any(path) -> Execution:
    """Read an execution from a file in any supported format
    (see :func:`parse_trace_bytes`)."""
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"trace file {p} does not exist")
    return parse_trace_bytes(p.read_bytes(), str(p), p.suffix)
