"""Argument marshalling, with software and accelerator cost models.

The wire encoding is a small tag-length-value scheme good enough to
carry realistic microservice arguments (ints, floats, byte strings,
text, lists).  What matters for the reproduction is not the encoding
itself but the *cost model*: deserialisation is one of the receive-path
steps (step 10 in Section 2) that Lauberhorn moves into NIC hardware
using Optimus-Prime-style transformation engines, while kernel and
bypass stacks pay for it in software on the critical path.

* :func:`software_unmarshal_instructions` — instructions a CPU spends
  deserialising a payload (per-message fixed cost + per-field + per-byte),
  calibrated to the tens-of-ns-per-small-message regime reported by the
  serialisation-accelerator literature (Cereal, Optimus Prime).
* The NIC-side cost is time-based and lives in
  :class:`~repro.hw.params.NicParams` (``deserialize_ns_per_64b``).
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

__all__ = [
    "MAX_NESTING",
    "MarshalError",
    "marshal_args",
    "unmarshal_args",
    "software_marshal_instructions",
    "software_unmarshal_instructions",
    "count_fields",
]


class MarshalError(ValueError):
    """Malformed marshalled payload."""


_TAG_INT = 1
_TAG_BYTES = 2
_TAG_STR = 3
_TAG_FLOAT = 4
_TAG_LIST = 5
_TAG_NONE = 6
_TAG_BOOL = 7

#: one wire layout each: a tag byte and its fixed-size body (9, 9, 5
#: and 3 bytes), packed and read in place together
_INT = struct.Struct("!Bq")
_FLOAT = struct.Struct("!Bd")
_SIZED = struct.Struct("!BI")  # bytes and str: tag, byte length
_LIST = struct.Struct("!BH")  # tag, element count
_NONE = bytes([_TAG_NONE])
_TRUE = bytes([_TAG_BOOL, 1])
_FALSE = bytes([_TAG_BOOL, 0])

#: deepest list nesting that encodes, decodes or counts; each level is
#: one Python frame, so a deeper payload is a MarshalError rather than
#: a RecursionError
MAX_NESTING = 64


def _too_deep() -> MarshalError:
    return MarshalError(f"lists nested more than {MAX_NESTING} deep")


def marshal_args(args: Sequence[Any]) -> bytes:
    """Encode a sequence of arguments into payload bytes."""
    if len(args) > 255:
        raise MarshalError(f"too many arguments: {len(args)}")
    out = bytearray([len(args)])
    _encode_into(out, args)
    return bytes(out)


def unmarshal_args(payload: bytes) -> list[Any]:
    """Decode payload bytes back into a list of arguments."""
    if not payload:
        raise MarshalError("empty payload")
    args, offset = _decode_items(payload, 1, payload[0])
    if offset != len(payload):
        raise MarshalError(f"{len(payload) - offset} trailing bytes")
    return args


def _encode_into(out: bytearray, values, depth: int = 0) -> None:
    # bool must be tested before int (bool is an int subclass).
    for value in values:
        if value is None:
            out += _NONE
        elif isinstance(value, bool):
            out += _TRUE if value else _FALSE
        elif isinstance(value, int):
            try:
                out += _INT.pack(_TAG_INT, value)
            except struct.error:
                raise MarshalError(
                    "int outside the signed 64-bit range") from None
        elif isinstance(value, float):
            out += _FLOAT.pack(_TAG_FLOAT, value)
        elif isinstance(value, bytes):
            out += _SIZED.pack(_TAG_BYTES, len(value))
            out += value
        elif isinstance(value, str):
            try:
                raw = value.encode("utf-8")
            except UnicodeEncodeError:
                raise MarshalError("str not encodable as UTF-8") from None
            out += _SIZED.pack(_TAG_STR, len(raw))
            out += raw
        elif isinstance(value, (list, tuple)):
            if len(value) > 0xFFFF:
                raise MarshalError(f"list too long: {len(value)}")
            if depth == MAX_NESTING:
                raise _too_deep()
            out += _LIST.pack(_TAG_LIST, len(value))
            _encode_into(out, value, depth + 1)
        else:
            raise MarshalError(
                f"unsupported argument type: {type(value).__name__}")


def _truncated(offset: int, need: int) -> MarshalError:
    return MarshalError(f"truncated at offset {offset} (need {need} B)")


def _decode_items(payload: bytes, offset: int, count: int,
                  depth: int = 0) -> tuple[list[Any], int]:
    """``count`` encoded values from ``offset``, inside ``depth``
    enclosing lists; returns them and the offset after the last.
    Bounds are checked before every read, and a truncation names the
    offset where the failed read starts."""
    end = len(payload)
    items: list[Any] = []
    append = items.append
    for _ in range(count):
        if offset >= end:
            raise _truncated(offset, 1)
        tag = payload[offset]
        if tag == _TAG_INT:
            if offset + 9 > end:
                raise _truncated(offset + 1, 8)
            append(_INT.unpack_from(payload, offset)[1])
            offset += 9
        elif tag == _TAG_BYTES or tag == _TAG_STR:
            if offset + 5 > end:
                raise _truncated(offset + 1, 4)
            length = _SIZED.unpack_from(payload, offset)[1]
            offset += 5
            if offset + length > end:
                raise _truncated(offset, length)
            raw = payload[offset:offset + length]
            if tag == _TAG_STR:
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise MarshalError(
                        f"str at offset {offset} is not valid UTF-8"
                    ) from None
            append(raw)
            offset += length
        elif tag == _TAG_FLOAT:
            if offset + 9 > end:
                raise _truncated(offset + 1, 8)
            append(_FLOAT.unpack_from(payload, offset)[1])
            offset += 9
        elif tag == _TAG_NONE:
            append(None)
            offset += 1
        elif tag == _TAG_BOOL:
            if offset + 2 > end:
                raise _truncated(offset + 1, 1)
            append(payload[offset + 1] != 0)
            offset += 2
        elif tag == _TAG_LIST:
            if offset + 3 > end:
                raise _truncated(offset + 1, 2)
            if depth == MAX_NESTING:
                raise _too_deep()
            value, offset = _decode_items(
                payload, offset + 3, _LIST.unpack_from(payload, offset)[1],
                depth + 1)
            append(value)
        else:
            raise MarshalError(f"unknown tag {tag} at offset {offset}")
    return items, offset


def count_fields(args: Sequence[Any]) -> int:
    """Number of leaf fields, counting list elements individually."""
    return _count_fields(args, 0)


def _count_fields(values, depth: int) -> int:
    total = 0
    for value in values:
        if isinstance(value, (list, tuple)):
            if depth == MAX_NESTING:
                raise _too_deep()
            total += _count_fields(value, depth + 1)
        else:
            total += 1
    return total


# Software (de)serialisation path-length model.  Calibrated against the
# per-message overheads motivating the accelerator line of work: a small
# protobuf-like message costs a few hundred ns of CPU.
_FIXED_INSTRUCTIONS = 120
_PER_FIELD_INSTRUCTIONS = 40
_PER_BYTE_INSTRUCTIONS = 0.6


def software_marshal_instructions(n_fields: int, n_bytes: int) -> int:
    """Instructions to serialise ``n_fields`` spanning ``n_bytes``."""
    return int(
        _FIXED_INSTRUCTIONS
        + _PER_FIELD_INSTRUCTIONS * n_fields
        + _PER_BYTE_INSTRUCTIONS * n_bytes
    )


def software_unmarshal_instructions(n_fields: int, n_bytes: int) -> int:
    """Instructions to deserialise; slightly dearer than serialising
    (validation, allocation)."""
    return int(
        _FIXED_INSTRUCTIONS * 1.5
        + _PER_FIELD_INSTRUCTIONS * 1.25 * n_fields
        + _PER_BYTE_INSTRUCTIONS * n_bytes
    )
