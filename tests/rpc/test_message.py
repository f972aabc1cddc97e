"""Unit + property tests for the RPC wire format."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc import RpcError, RpcHeader, RpcMessage, RpcType
from repro.rpc.message import RPC_MAGIC


def test_header_roundtrip():
    hdr = RpcHeader(RpcType.REQUEST, 7, 3, 0xDEADBEEF, 100)
    assert RpcHeader.unpack(hdr.pack()) == hdr
    assert len(hdr.pack()) == RpcHeader.SIZE == 24


def test_header_bad_magic():
    raw = bytearray(RpcHeader(RpcType.REQUEST, 1, 1, 1, 0).pack())
    raw[0] = 0x00
    with pytest.raises(RpcError):
        RpcHeader.unpack(bytes(raw))


def test_header_bad_type():
    raw = bytearray(RpcHeader(RpcType.REQUEST, 1, 1, 1, 0).pack())
    raw[3] = 99
    with pytest.raises(RpcError):
        RpcHeader.unpack(bytes(raw))


def test_header_truncated():
    with pytest.raises(RpcError):
        RpcHeader.unpack(b"\x00" * 10)


def test_message_roundtrip():
    msg = RpcMessage.request(5, 2, 42, b"args-bytes")
    out = RpcMessage.unpack(msg.pack())
    assert out == msg
    assert out.header.rpc_type is RpcType.REQUEST


def test_response_constructor():
    msg = RpcMessage.response(5, 2, 42, b"result")
    assert msg.header.rpc_type is RpcType.RESPONSE
    assert msg.header.payload_len == 6


def test_message_payload_length_mismatch():
    msg = RpcMessage(RpcHeader(RpcType.REQUEST, 1, 1, 1, 99), b"short")
    with pytest.raises(RpcError):
        msg.pack()


def test_message_truncated_payload():
    msg = RpcMessage.request(1, 1, 1, b"0123456789")
    with pytest.raises(RpcError):
        RpcMessage.unpack(msg.pack()[:-3])


@given(
    st.sampled_from(list(RpcType)),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.binary(max_size=256),
)
def test_message_roundtrip_property(rpc_type, service, method, req_id, payload):
    msg = RpcMessage(
        RpcHeader(rpc_type, service, method, req_id, len(payload)), payload
    )
    assert RpcMessage.unpack(msg.pack()) == msg


# -- the enum-call header codec, kept as the reference -----------------------

_REF_FMT = "!HBBIHHQI"


def _ref_pack(header):
    return struct.pack(
        _REF_FMT, RPC_MAGIC, header.flags, int(header.rpc_type),
        header.service_id, header.method_id, 0, header.request_id,
        header.payload_len)


def _ref_unpack(raw):
    if len(raw) < RpcHeader.SIZE:
        raise RpcError(f"RPC header truncated: {len(raw)} B")
    magic, flags, rpc_type, service_id, method_id, _rsvd, request_id, payload_len = (
        struct.unpack(_REF_FMT, raw[: RpcHeader.SIZE])
    )
    if magic != RPC_MAGIC:
        raise RpcError(f"bad RPC magic: {magic:#06x}")
    try:
        parsed_type = RpcType(rpc_type)
    except ValueError as exc:
        raise RpcError(f"bad RPC type: {rpc_type}") from exc
    return RpcHeader(
        rpc_type=parsed_type,
        service_id=service_id,
        method_id=method_id,
        request_id=request_id,
        payload_len=payload_len,
        flags=flags,
    )


def _ref_unpack_message(raw):
    header = _ref_unpack(raw)
    payload = raw[RpcHeader.SIZE : RpcHeader.SIZE + header.payload_len]
    if len(payload) != header.payload_len:
        raise RpcError(
            f"payload truncated: expected {header.payload_len} B, "
            f"got {len(payload)} B"
        )
    return RpcMessage(header=header, payload=payload)


def _decoded(fn, raw):
    """What a decode returns, with the type of every header field, or
    the type and message of what it raised."""
    try:
        value = fn(raw)
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))
    header = value.header if isinstance(value, RpcMessage) else value
    fields = [(type(getattr(header, name)), getattr(header, name))
              for name in RpcHeader.__dataclass_fields__]
    return ("ok", fields, getattr(value, "payload", None))


_headers = st.builds(
    RpcHeader,
    st.sampled_from(list(RpcType)),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 2**64 - 1),
    st.integers(0, 300),
    st.integers(0, 255),
)


@settings(max_examples=300, deadline=None)
@given(_headers, st.binary(max_size=40), st.data())
def test_codec_equals_the_enum_call_reference(header, payload, data):
    raw = header.pack()
    assert raw == _ref_pack(header)
    assert _decoded(RpcHeader.unpack, raw) == _decoded(_ref_unpack, raw)
    assert RpcHeader.unpack(raw).rpc_type is header.rpc_type
    message = raw + payload
    candidates = [message[:cut] for cut in range(min(len(message), 60) + 1)]
    flipped = bytearray(message)
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(flipped) - 1))
        flipped[index] ^= data.draw(st.integers(1, 255))
    candidates.append(bytes(flipped))
    for index, value in ((0, data.draw(st.integers(0, 255))),
                         (3, data.draw(st.integers(3, 255)))):
        bad = bytearray(message)  # a bad magic byte, then a bad type
        bad[index] = value
        candidates.append(bytes(bad))
    for raw in candidates:
        assert _decoded(RpcHeader.unpack, raw) == _decoded(_ref_unpack, raw)
        assert (_decoded(RpcMessage.unpack, raw)
                == _decoded(_ref_unpack_message, raw))


def test_plain_int_type_packs_as_the_member():
    header = RpcHeader(1, 2, 3, 4, 0)
    assert header.pack() == _ref_pack(header)
    assert RpcHeader.unpack(header.pack()).rpc_type is RpcType.RESPONSE
