"""CONTROL/AUX cache-line layouts for the Lauberhorn protocol.

A request is delivered to the CPU as one CONTROL line plus zero or more
AUX lines (Figure 4): the CONTROL line carries exactly what the paper
says the stalled load should return — "just the arguments and virtual
address of the first instruction of the target function to jump to" —
plus the flags/metadata the protocol needs.

CONTROL line, NIC -> CPU (request delivery):

====== ===== =========================================================
offset size  field
====== ===== =========================================================
0      1     flags (VALID_REQ / TRYAGAIN / RETIRE / DMA_FALLBACK /
             KERNEL_DISPATCH / SCHED_HINT)
1      1     n_aux — AUX lines holding the rest of the payload
2      2     method_id
4      4     service_id
8      8     code_ptr — first instruction of the handler
16     8     data_ptr — service data segment
24     4     payload_len — total argument bytes
28     8     request tag
36     8     dma_addr (DMA_FALLBACK only)
44     4     reserved
48     ...   inline argument bytes
====== ===== =========================================================

CONTROL line, CPU -> NIC (response, written into the same line):

====== ===== =========================================================
0      1     flags (RESP_VALID)
1      1     n_aux — AUX lines holding the rest of the response
2      2     reserved
4      4     resp_len — total response bytes
8      8     request tag (echoed)
16     ...   inline response bytes
====== ===== =========================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "FLAG_VALID_REQ",
    "FLAG_TRYAGAIN",
    "FLAG_RETIRE",
    "FLAG_DMA_FALLBACK",
    "FLAG_KERNEL_DISPATCH",
    "FLAG_SCHED_HINT",
    "FLAG_RESP_VALID",
    "FLAG_RESP_DMA",
    "REQ_INLINE_OFFSET",
    "RESP_INLINE_OFFSET",
    "WireFormatError",
    "RequestLine",
    "ResponseLine",
    "encode_request",
    "decode_request_line",
    "encode_response",
    "encode_response_dma",
    "decode_response",
    "tryagain_line",
    "retire_line",
    "sched_hint_line",
    "lines_needed",
    "max_inline_payload",
]


class WireFormatError(ValueError):
    """Malformed CONTROL line contents."""


FLAG_VALID_REQ = 0x01
FLAG_TRYAGAIN = 0x02
FLAG_RETIRE = 0x04
FLAG_DMA_FALLBACK = 0x08
FLAG_KERNEL_DISPATCH = 0x10
FLAG_SCHED_HINT = 0x20
FLAG_RESP_VALID = 0x01

REQ_INLINE_OFFSET = 48
RESP_INLINE_OFFSET = 16

#: the request CONTROL header: fields through dma_addr, then reserved
_REQ_HEADER = struct.Struct("!BBHIQQIQQ4x")
assert _REQ_HEADER.size == REQ_INLINE_OFFSET
#: the response CONTROL header, and its DMA-staged form with dma_addr
_RESP_HEADER = struct.Struct("!BBHIQ")
assert _RESP_HEADER.size == RESP_INLINE_OFFSET
_RESP_DMA = struct.Struct("!BBHIQQ")


@dataclass(slots=True)
class RequestLine:
    """Decoded NIC->CPU CONTROL line."""

    flags: int
    n_aux: int
    method_id: int
    service_id: int
    code_ptr: int
    data_ptr: int
    payload_len: int
    tag: int
    dma_addr: int
    inline: bytes

    @property
    def is_tryagain(self) -> bool:
        return bool(self.flags & FLAG_TRYAGAIN)

    @property
    def is_retire(self) -> bool:
        return bool(self.flags & FLAG_RETIRE)

    @property
    def is_request(self) -> bool:
        return bool(self.flags & FLAG_VALID_REQ)

    @property
    def is_dma(self) -> bool:
        return bool(self.flags & FLAG_DMA_FALLBACK)

    @property
    def is_kernel_dispatch(self) -> bool:
        return bool(self.flags & FLAG_KERNEL_DISPATCH)

    @property
    def is_sched_hint(self) -> bool:
        return bool(self.flags & FLAG_SCHED_HINT)


#: response flag: payload staged in a host DMA buffer, not in lines
FLAG_RESP_DMA = 0x08


@dataclass(slots=True)
class ResponseLine:
    """Decoded CPU->NIC CONTROL line."""

    flags: int
    n_aux: int
    resp_len: int
    tag: int
    inline: bytes
    dma_addr: int = 0

    @property
    def is_valid(self) -> bool:
        return bool(self.flags & FLAG_RESP_VALID)

    @property
    def is_dma(self) -> bool:
        return bool(self.flags & FLAG_RESP_DMA)


def max_inline_payload(line_bytes: int) -> int:
    return line_bytes - REQ_INLINE_OFFSET


def lines_needed(payload_len: int, line_bytes: int) -> int:
    """AUX lines needed for a payload after the inline chunk."""
    spill = payload_len - max_inline_payload(line_bytes)
    if spill <= 0:
        return 0
    return -(-spill // line_bytes)


def encode_request(
    line_bytes: int,
    service_id: int,
    method_id: int,
    code_ptr: int,
    data_ptr: int,
    tag: int,
    payload: bytes,
    flags: int = FLAG_VALID_REQ,
    dma_addr: int = 0,
) -> tuple[bytes, list[bytes]]:
    """Build (control_line, aux_lines) for a request delivery.

    With FLAG_DMA_FALLBACK the payload is *not* placed in lines — it is
    assumed DMA'd to ``dma_addr`` — and no AUX lines are produced.
    """
    if flags & FLAG_DMA_FALLBACK:
        inline, aux = b"", []
    else:
        cut = max_inline_payload(line_bytes)
        inline = payload[:cut]
        rest = payload[cut:]
        aux = [rest[i : i + line_bytes] for i in range(0, len(rest), line_bytes)]
    if len(aux) > 255:
        raise WireFormatError(f"payload needs {len(aux)} AUX lines (max 255)")
    control = _REQ_HEADER.pack(
        flags, len(aux), method_id, service_id, code_ptr, data_ptr,
        len(payload), tag, dma_addr) + inline
    if len(control) > line_bytes:
        raise WireFormatError("control line overflow")
    return control.ljust(line_bytes, b"\x00"), [a.ljust(line_bytes, b"\x00") for a in aux]


def decode_request_line(data: bytes) -> RequestLine:
    if len(data) < REQ_INLINE_OFFSET:
        raise WireFormatError(f"control line too short: {len(data)} B")
    (flags, n_aux, method_id, service_id, code_ptr, data_ptr, payload_len,
     tag, dma_addr) = _REQ_HEADER.unpack_from(data)
    if flags & FLAG_DMA_FALLBACK:
        inline = b""
    else:
        inline = data[REQ_INLINE_OFFSET:REQ_INLINE_OFFSET + payload_len]
    return RequestLine(flags, n_aux, method_id, service_id, code_ptr,
                       data_ptr, payload_len, tag, dma_addr, inline)


def assemble_request_payload(line: RequestLine, aux_lines: list[bytes]) -> bytes:
    """Reassemble the full payload from inline + AUX line contents."""
    if line.is_dma:
        raise WireFormatError("DMA-fallback payloads live in host memory")
    buffer = bytearray(line.inline)
    remaining = line.payload_len - len(buffer)
    for aux in aux_lines:
        take = min(remaining, len(aux))
        buffer += aux[:take]
        remaining -= take
    if remaining > 0:
        raise WireFormatError(f"payload short by {remaining} B")
    return bytes(buffer)


def encode_response(
    line_bytes: int, tag: int, payload: bytes
) -> tuple[bytes, list[bytes]]:
    """Build (control_line, aux_lines) for a CPU response."""
    cut = line_bytes - RESP_INLINE_OFFSET
    inline = payload[:cut]
    rest = payload[cut:]
    aux = [rest[i : i + line_bytes] for i in range(0, len(rest), line_bytes)]
    if len(aux) > 255:
        raise WireFormatError(f"response needs {len(aux)} AUX lines (max 255)")
    control = _RESP_HEADER.pack(
        FLAG_RESP_VALID, len(aux), 0, len(payload), tag) + inline
    return control.ljust(line_bytes, b"\x00"), [a.ljust(line_bytes, b"\x00") for a in aux]


def encode_response_dma(
    line_bytes: int, tag: int, resp_len: int, dma_addr: int
) -> bytes:
    """Response CONTROL line for a DMA-staged payload (no AUX lines)."""
    control = _RESP_DMA.pack(
        FLAG_RESP_VALID | FLAG_RESP_DMA, 0, 0, resp_len, tag, dma_addr)
    if len(control) > line_bytes:
        raise WireFormatError("response control line overflow")
    return control.ljust(line_bytes, b"\x00")


def decode_response(data: bytes, aux_lines: list[bytes]) -> tuple[ResponseLine, bytes]:
    """Decode a response control line + AUX lines into (line, payload).

    DMA-staged responses return an empty payload; the caller fetches it
    from host memory via ``line.dma_addr``.
    """
    if len(data) < RESP_INLINE_OFFSET:
        raise WireFormatError(f"response line too short: {len(data)} B")
    flags, n_aux, _rsvd, resp_len, tag = _RESP_HEADER.unpack_from(data)
    if flags & FLAG_RESP_DMA:
        if len(data) < _RESP_DMA.size:
            raise WireFormatError("DMA response line truncated")
        dma_addr = _RESP_DMA.unpack_from(data)[5]
        line = ResponseLine(flags, 0, resp_len, tag, b"", dma_addr)
        return line, b""
    inline = data[RESP_INLINE_OFFSET:RESP_INLINE_OFFSET + resp_len]
    line = ResponseLine(flags, n_aux, resp_len, tag, inline)
    chunks = [inline]
    remaining = resp_len - len(inline)
    for aux in aux_lines:
        if not remaining:
            break
        chunk = aux[:remaining]
        chunks.append(chunk)
        remaining -= len(chunk)
    if remaining > 0:
        raise WireFormatError(f"response short by {remaining} B")
    return line, b"".join(chunks)


def _flag_only_line(line_bytes: int, flags: int) -> bytes:
    header = _REQ_HEADER.pack(flags, 0, 0, 0, 0, 0, 0, 0, 0)
    return header.ljust(line_bytes, b"\x00")


def tryagain_line(line_bytes: int) -> bytes:
    """The dummy message answering a blocked load at timeout."""
    return _flag_only_line(line_bytes, FLAG_TRYAGAIN)


def retire_line(line_bytes: int) -> bytes:
    """Tells a parked kernel thread to give up its end-point."""
    return _flag_only_line(line_bytes, FLAG_RETIRE)


def sched_hint_line(line_bytes: int, service_id: int, backlog: int) -> bytes:
    """NIC -> kernel load information (Section 5.2)."""
    header = _REQ_HEADER.pack(
        FLAG_SCHED_HINT, 0, 0, service_id, 0, 0, backlog, 0, 0)
    return header.ljust(line_bytes, b"\x00")
