"""Unit + property tests for Lauberhorn CONTROL line encoding."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.lauberhorn import wire


LINE = 128  # Enzian ECI line size


def test_small_request_fits_inline():
    ctrl, aux = wire.encode_request(
        LINE, service_id=3, method_id=7, code_ptr=0x4000, data_ptr=0x7000,
        tag=99, payload=b"args",
    )
    assert len(ctrl) == LINE
    assert aux == []
    line = wire.decode_request_line(ctrl)
    assert line.is_request and not line.is_tryagain
    assert line.service_id == 3 and line.method_id == 7
    assert line.code_ptr == 0x4000 and line.data_ptr == 0x7000
    assert line.tag == 99
    assert line.inline == b"args"
    assert line.n_aux == 0


def test_request_spills_to_aux_lines():
    payload = bytes(range(256)) * 2  # 512 B
    ctrl, aux = wire.encode_request(
        LINE, 1, 1, 0, 0, 5, payload,
    )
    line = wire.decode_request_line(ctrl)
    expected_aux = wire.lines_needed(len(payload), LINE)
    assert line.n_aux == len(aux) == expected_aux
    assert wire.assemble_request_payload(line, aux) == payload


def test_lines_needed_boundaries():
    inline = wire.max_inline_payload(LINE)
    assert wire.lines_needed(inline, LINE) == 0
    assert wire.lines_needed(inline + 1, LINE) == 1
    assert wire.lines_needed(inline + LINE, LINE) == 1
    assert wire.lines_needed(inline + LINE + 1, LINE) == 2


def test_dma_fallback_has_no_aux():
    ctrl, aux = wire.encode_request(
        LINE, 1, 1, 0, 0, 5, b"x" * 10_000,
        flags=wire.FLAG_VALID_REQ | wire.FLAG_DMA_FALLBACK,
        dma_addr=0xCAFE000,
    )
    assert aux == []
    line = wire.decode_request_line(ctrl)
    assert line.is_dma
    assert line.dma_addr == 0xCAFE000
    assert line.payload_len == 10_000
    assert line.inline == b""


def test_assemble_dma_rejected():
    ctrl, _ = wire.encode_request(
        LINE, 1, 1, 0, 0, 5, b"x" * 100,
        flags=wire.FLAG_VALID_REQ | wire.FLAG_DMA_FALLBACK, dma_addr=1,
    )
    line = wire.decode_request_line(ctrl)
    with pytest.raises(wire.WireFormatError):
        wire.assemble_request_payload(line, [])


def test_tryagain_retire_sched_hint_lines():
    ta = wire.decode_request_line(wire.tryagain_line(LINE))
    assert ta.is_tryagain and not ta.is_request and not ta.is_retire
    rt = wire.decode_request_line(wire.retire_line(LINE))
    assert rt.is_retire and not rt.is_request
    sh = wire.decode_request_line(wire.sched_hint_line(LINE, 42, backlog=9))
    assert sh.is_sched_hint
    assert sh.service_id == 42 and sh.payload_len == 9


def test_response_roundtrip_inline():
    ctrl, aux = wire.encode_response(LINE, tag=77, payload=b"result!")
    assert aux == []
    line, payload = wire.decode_response(ctrl, [])
    assert line.is_valid and line.tag == 77
    assert payload == b"result!"


def test_response_roundtrip_with_aux():
    big = b"z" * 500
    ctrl, aux = wire.encode_response(LINE, tag=1, payload=big)
    assert len(aux) == -(-(500 - (LINE - wire.RESP_INLINE_OFFSET)) // LINE)
    line, payload = wire.decode_response(ctrl, aux)
    assert payload == big


def test_response_truncated_aux_rejected():
    big = b"z" * 500
    ctrl, aux = wire.encode_response(LINE, tag=1, payload=big)
    with pytest.raises(wire.WireFormatError):
        wire.decode_response(ctrl, aux[:-1])


def test_kernel_dispatch_flag():
    ctrl, _ = wire.encode_request(
        LINE, 1, 1, 0, 0, 1, b"",
        flags=wire.FLAG_VALID_REQ | wire.FLAG_KERNEL_DISPATCH,
    )
    assert wire.decode_request_line(ctrl).is_kernel_dispatch


def test_short_line_rejected():
    with pytest.raises(wire.WireFormatError):
        wire.decode_request_line(b"\x00" * 10)
    with pytest.raises(wire.WireFormatError):
        wire.decode_response(b"\x00" * 4, [])


@given(st.binary(max_size=1500), st.integers(min_value=0, max_value=2**64 - 1))
def test_request_roundtrip_property(payload, tag):
    ctrl, aux = wire.encode_request(LINE, 9, 2, 0x40, 0x70, tag, payload)
    line = wire.decode_request_line(ctrl)
    assert line.tag == tag
    assert wire.assemble_request_payload(line, aux) == payload


@given(st.binary(max_size=1500))
def test_response_roundtrip_property(payload):
    ctrl, aux = wire.encode_response(LINE, 3, payload)
    _line, out = wire.decode_response(ctrl, aux)
    assert out == payload


@given(st.binary(max_size=300))
def test_cxl_64b_lines_roundtrip(payload):
    ctrl, aux = wire.encode_request(64, 1, 1, 0, 0, 1, payload)
    line = wire.decode_request_line(ctrl)
    assert wire.assemble_request_payload(line, aux) == payload


# -- the format-string codec, kept as the reference --------------------------
#
# Each CONTROL-line layout is one precompiled Struct.  This reference
# packs and unpacks through format strings and copies the inline bytes
# twice; every output is compared with it.

_REF_REQ = "!BBHIQQIQQ"
_REF_RESP = "!BBHIQ"


def _ref_encode_request(line_bytes, service_id, method_id, code_ptr,
                        data_ptr, tag, payload, flags=wire.FLAG_VALID_REQ,
                        dma_addr=0):
    if flags & wire.FLAG_DMA_FALLBACK:
        inline, aux = b"", []
    else:
        cut = wire.max_inline_payload(line_bytes)
        inline = payload[:cut]
        rest = payload[cut:]
        aux = [rest[i : i + line_bytes] for i in range(0, len(rest), line_bytes)]
    if len(aux) > 255:
        raise wire.WireFormatError(
            f"payload needs {len(aux)} AUX lines (max 255)")
    header = struct.pack(
        _REF_REQ, flags, len(aux), method_id, service_id, code_ptr,
        data_ptr, len(payload), tag, dma_addr)
    control = (header + b"\x00" * (wire.REQ_INLINE_OFFSET - len(header))
               + inline)
    if len(control) > line_bytes:
        raise wire.WireFormatError("control line overflow")
    return (control.ljust(line_bytes, b"\x00"),
            [a.ljust(line_bytes, b"\x00") for a in aux])


def _ref_decode_request_line(data):
    if len(data) < wire.REQ_INLINE_OFFSET:
        raise wire.WireFormatError(f"control line too short: {len(data)} B")
    (flags, n_aux, method_id, service_id, code_ptr, data_ptr, payload_len,
     tag, dma_addr) = struct.unpack(_REF_REQ, data[:44])
    inline = data[wire.REQ_INLINE_OFFSET:]
    if not flags & wire.FLAG_DMA_FALLBACK:
        inline = inline[: max(0, min(payload_len, len(inline)))]
    else:
        inline = b""
    return wire.RequestLine(
        flags=flags, n_aux=n_aux, method_id=method_id,
        service_id=service_id, code_ptr=code_ptr, data_ptr=data_ptr,
        payload_len=payload_len, tag=tag, dma_addr=dma_addr, inline=inline)


def _ref_encode_response(line_bytes, tag, payload):
    cut = line_bytes - wire.RESP_INLINE_OFFSET
    inline = payload[:cut]
    rest = payload[cut:]
    aux = [rest[i : i + line_bytes] for i in range(0, len(rest), line_bytes)]
    if len(aux) > 255:
        raise wire.WireFormatError(
            f"response needs {len(aux)} AUX lines (max 255)")
    header = struct.pack(_REF_RESP, wire.FLAG_RESP_VALID, len(aux), 0,
                         len(payload), tag)
    control = header + inline
    return (control.ljust(line_bytes, b"\x00"),
            [a.ljust(line_bytes, b"\x00") for a in aux])


def _ref_encode_response_dma(line_bytes, tag, resp_len, dma_addr):
    header = struct.pack(_REF_RESP, wire.FLAG_RESP_VALID | wire.FLAG_RESP_DMA,
                         0, 0, resp_len, tag)
    control = header + struct.pack("!Q", dma_addr)
    if len(control) > line_bytes:
        raise wire.WireFormatError("response control line overflow")
    return control.ljust(line_bytes, b"\x00")


def _ref_decode_response(data, aux_lines):
    if len(data) < wire.RESP_INLINE_OFFSET:
        raise wire.WireFormatError(f"response line too short: {len(data)} B")
    flags, n_aux, _rsvd, resp_len, tag = struct.unpack(_REF_RESP, data[:16])
    if flags & wire.FLAG_RESP_DMA:
        if len(data) < wire.RESP_INLINE_OFFSET + 8:
            raise wire.WireFormatError("DMA response line truncated")
        dma_addr = struct.unpack("!Q", data[16:24])[0]
        line = wire.ResponseLine(flags=flags, n_aux=0, resp_len=resp_len,
                                 tag=tag, inline=b"", dma_addr=dma_addr)
        return line, b""
    inline = data[wire.RESP_INLINE_OFFSET:]
    line = wire.ResponseLine(
        flags=flags, n_aux=n_aux, resp_len=resp_len, tag=tag,
        inline=inline[: min(resp_len, len(inline))],
    )
    buffer = bytearray(line.inline)
    remaining = resp_len - len(buffer)
    for aux in aux_lines:
        take = min(remaining, len(aux))
        buffer += aux[:take]
        remaining -= take
    if remaining > 0:
        raise wire.WireFormatError(f"response short by {remaining} B")
    return line, bytes(buffer)


def _ref_flag_line(line_bytes, flags, service_id=0, backlog=0):
    header = struct.pack(_REF_REQ, flags, 0, 0, service_id, 0, 0, backlog,
                         0, 0)
    return header.ljust(line_bytes, b"\x00")


def _same(fn, ref, *args):
    """Both codecs give equal results (types included), or raise the
    same error type with the same message."""
    outcomes = []
    for call in (fn, ref):
        try:
            value = call(*args)
        except Exception as exc:  # compared, never swallowed
            value = ("raised", type(exc), str(exc))
        outcomes.append((value, repr(value)))
    assert outcomes[0] == outcomes[1]


def _mangled(raw, data):
    """Every truncation of ``raw`` up to 60 B, and ``raw`` with random
    bytes flipped."""
    candidates = [raw[:cut] for cut in range(61)]
    flipped = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(flipped) - 1))
        flipped[index] ^= data.draw(st.integers(1, 255))
    return candidates + [bytes(flipped)]


_lines = st.sampled_from([64, 128])
_u64 = st.integers(0, 2**64 - 1)
_request_flags = st.sampled_from([
    wire.FLAG_VALID_REQ, wire.FLAG_VALID_REQ | wire.FLAG_DMA_FALLBACK,
    wire.FLAG_VALID_REQ | wire.FLAG_KERNEL_DISPATCH, 0xFF])


@settings(max_examples=200, deadline=None)
@given(_lines, st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF), _u64,
       _u64, _u64, st.binary(max_size=400), _request_flags, _u64, st.data())
def test_request_codec_equals_the_reference(
        line_bytes, service_id, method_id, code_ptr, data_ptr, tag,
        payload, flags, dma_addr, data):
    args = (line_bytes, service_id, method_id, code_ptr, data_ptr, tag,
            payload, flags, dma_addr)
    _same(wire.encode_request, _ref_encode_request, *args)
    ctrl, _aux = wire.encode_request(*args)
    for raw in [ctrl] + _mangled(ctrl, data):
        _same(wire.decode_request_line, _ref_decode_request_line, raw)


@settings(max_examples=200, deadline=None)
@given(_lines, _u64, st.binary(max_size=400), st.integers(0, 2**32 - 1),
       _u64, st.data())
def test_response_codec_equals_the_reference(
        line_bytes, tag, payload, resp_len, dma_addr, data):
    _same(wire.encode_response, _ref_encode_response, line_bytes, tag,
          payload)
    _same(wire.encode_response_dma, _ref_encode_response_dma, line_bytes,
          tag, resp_len, dma_addr)
    ctrl, aux = wire.encode_response(line_bytes, tag, payload)
    dma = wire.encode_response_dma(line_bytes, tag, resp_len, dma_addr)
    cut = data.draw(st.integers(0, len(aux)))
    for raw in [ctrl, dma] + _mangled(ctrl, data) + _mangled(dma, data):
        for lines in (aux, aux[:cut], [a[:17] for a in aux]):
            _same(wire.decode_response, _ref_decode_response, raw, lines)


@pytest.mark.parametrize("line_bytes", [64, 128])
def test_flag_lines_equal_the_reference(line_bytes):
    assert wire.tryagain_line(line_bytes) == _ref_flag_line(
        line_bytes, wire.FLAG_TRYAGAIN)
    assert wire.retire_line(line_bytes) == _ref_flag_line(
        line_bytes, wire.FLAG_RETIRE)
    assert wire.sched_hint_line(line_bytes, 7, 300) == _ref_flag_line(
        line_bytes, wire.FLAG_SCHED_HINT, service_id=7, backlog=300)
