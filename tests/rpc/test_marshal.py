"""Unit + property tests for argument marshalling and its cost model."""

import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc import (
    MarshalError,
    count_fields,
    marshal_args,
    software_marshal_instructions,
    software_unmarshal_instructions,
    unmarshal_args,
)
from repro.rpc.marshal import MAX_NESTING


def test_roundtrip_scalars():
    args = [1, -5, 3.5, "hello", b"\x00\x01", True, False, None]
    assert unmarshal_args(marshal_args(args)) == args


def test_roundtrip_nested_list():
    args = [[1, 2, [3, "x"]], b"tail"]
    assert unmarshal_args(marshal_args(args)) == [[1, 2, [3, "x"]], b"tail"]


def test_roundtrip_empty():
    assert unmarshal_args(marshal_args([])) == []


def test_bool_not_confused_with_int():
    out = unmarshal_args(marshal_args([True, 1]))
    assert out[0] is True and out[1] == 1 and not isinstance(out[1], bool)


def test_unsupported_type_rejected():
    with pytest.raises(MarshalError):
        marshal_args([{"a": 1}])


def test_empty_payload_rejected():
    with pytest.raises(MarshalError):
        unmarshal_args(b"")


def test_truncated_payload_rejected():
    raw = marshal_args([12345678])
    with pytest.raises(MarshalError):
        unmarshal_args(raw[:-2])


def test_trailing_garbage_rejected():
    raw = marshal_args([1])
    with pytest.raises(MarshalError):
        unmarshal_args(raw + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(MarshalError):
        unmarshal_args(bytes([1, 200]))


def test_count_fields_flattens_lists():
    assert count_fields([1, "a", [2, 3, [4]]]) == 5
    assert count_fields([]) == 0


def test_unicode_strings():
    args = ["héllo wörld ☃"]
    assert unmarshal_args(marshal_args(args)) == args


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)
args_strategy = st.lists(
    st.one_of(scalars, st.lists(scalars, max_size=5)), max_size=8
)


@given(args_strategy)
def test_roundtrip_property(args):
    assert unmarshal_args(marshal_args(args)) == args


def test_cost_model_monotone_in_bytes_and_fields():
    assert software_unmarshal_instructions(1, 64) < software_unmarshal_instructions(1, 6400)
    assert software_unmarshal_instructions(1, 64) < software_unmarshal_instructions(10, 64)
    assert software_marshal_instructions(2, 100) < software_unmarshal_instructions(2, 100)


def test_cost_model_small_message_regime():
    # A small RPC (3 fields, 64B) should cost a few hundred instructions,
    # i.e. O(100ns) on a GHz-class core — the regime the accelerator
    # papers report.
    cost = software_unmarshal_instructions(3, 64)
    assert 200 < cost < 2000


# -- the per-field codec, kept as the reference ------------------------------
#
# The codec packs and reads each field with one precompiled Struct and
# recurses only per list.  This reference makes a Python call per field,
# the plainest reading of the format; every output is compared with it.

_REF_INT, _REF_BYTES, _REF_STR, _REF_FLOAT = 1, 2, 3, 4
_REF_LIST, _REF_NONE, _REF_BOOL = 5, 6, 7


def _ref_marshal_args(args):
    if len(args) > 255:
        raise MarshalError(f"too many arguments: {len(args)}")
    out = bytearray([len(args)])
    for arg in args:
        out += _ref_encode(arg)
    return bytes(out)


def _ref_unmarshal_args(payload):
    if not payload:
        raise MarshalError("empty payload")
    count = payload[0]
    offset = 1
    args = []
    for _ in range(count):
        value, offset = _ref_decode(payload, offset)
        args.append(value)
    if offset != len(payload):
        raise MarshalError(f"{len(payload) - offset} trailing bytes")
    return args


def _ref_encode(value):
    # bool must be tested before int (bool is an int subclass).
    if value is None:
        return bytes([_REF_NONE])
    if isinstance(value, bool):
        return bytes([_REF_BOOL, 1 if value else 0])
    if isinstance(value, int):
        return bytes([_REF_INT]) + struct.pack("!q", value)
    if isinstance(value, float):
        return bytes([_REF_FLOAT]) + struct.pack("!d", value)
    if isinstance(value, bytes):
        return bytes([_REF_BYTES]) + struct.pack("!I", len(value)) + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_REF_STR]) + struct.pack("!I", len(raw)) + raw
    if isinstance(value, (list, tuple)):
        if len(value) > 0xFFFF:
            raise MarshalError(f"list too long: {len(value)}")
        out = bytearray([_REF_LIST]) + struct.pack("!H", len(value))
        for item in value:
            out += _ref_encode(item)
        return bytes(out)
    raise MarshalError(f"unsupported argument type: {type(value).__name__}")


def _ref_need(payload, offset, n):
    if offset + n > len(payload):
        raise MarshalError(f"truncated at offset {offset} (need {n} B)")


def _ref_decode(payload, offset):
    _ref_need(payload, offset, 1)
    tag = payload[offset]
    offset += 1
    if tag == _REF_NONE:
        return None, offset
    if tag == _REF_BOOL:
        _ref_need(payload, offset, 1)
        return bool(payload[offset]), offset + 1
    if tag == _REF_INT:
        _ref_need(payload, offset, 8)
        return struct.unpack("!q", payload[offset : offset + 8])[0], offset + 8
    if tag == _REF_FLOAT:
        _ref_need(payload, offset, 8)
        return struct.unpack("!d", payload[offset : offset + 8])[0], offset + 8
    if tag in (_REF_BYTES, _REF_STR):
        _ref_need(payload, offset, 4)
        length = struct.unpack("!I", payload[offset : offset + 4])[0]
        offset += 4
        _ref_need(payload, offset, length)
        raw = payload[offset : offset + length]
        offset += length
        return (raw if tag == _REF_BYTES else raw.decode("utf-8")), offset
    if tag == _REF_LIST:
        _ref_need(payload, offset, 2)
        count = struct.unpack("!H", payload[offset : offset + 2])[0]
        offset += 2
        items = []
        for _ in range(count):
            item, offset = _ref_decode(payload, offset)
            items.append(item)
        return items, offset
    raise MarshalError(f"unknown tag {tag} at offset {offset - 1}")


def _ref_count_fields(args):
    total = 0
    for arg in args:
        if isinstance(arg, (list, tuple)):
            total += _ref_count_fields(arg)
        else:
            total += 1
    return total


def _typed(value):
    """A comparable form of a decoded value that tells bool from int
    and compares floats by their bits (NaN, -0.0)."""
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", struct.pack("!d", value))
    return (type(value), value)


def _outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))


class _Int(int):
    pass


class _Str(str):
    pass


class _Bytes(bytes):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Pair(tuple):
    pass


class _Shade(str, enum.Enum):
    """A str enum: its value, not its ``str()``, goes on the wire."""

    DARK = "d"
    LIGHT = "lé"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class _Loud(str):
    def __str__(self):
        return self.upper() + "!"


class _Rounded(float):
    def __float__(self):
        return 0.0


class _Framed(bytes):
    def __bytes__(self):
        return b"<" + bytes(len(self)) + b">"


_any_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(_Int),
    st.text(max_size=8).map(_Str),
    st.binary(max_size=8).map(_Bytes),
    st.floats().map(_Float),
    st.sampled_from(_Shade),
    st.sampled_from(_Level),
    st.text(max_size=8).map(_Loud),
    st.floats().map(_Rounded),
    st.binary(max_size=8).map(_Framed),
)
_any_value = st.recursive(
    _any_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.lists(inner, max_size=3).map(_List),
                            st.lists(inner, max_size=3).map(_Pair)),
    max_leaves=12,
)
_any_args = st.lists(_any_value, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_any_args)
def test_codec_equals_the_per_field_reference(args):
    encoded = marshal_args(args)
    assert encoded == _ref_marshal_args(args)
    assert count_fields(args) == _ref_count_fields(args)
    decoded = unmarshal_args(encoded)
    assert _typed(decoded) == _typed(_ref_unmarshal_args(encoded))
    assert count_fields(decoded) == _ref_count_fields(decoded)


def test_subclasses_decode_as_the_reference_does():
    args = [True, 1, False, 0, _Int(5), 1.0, "s", _Str("t"), b"b",
            _Bytes(b"c"), None, (1, True), _Pair((2.5,)), _List([b""])]
    decoded = unmarshal_args(marshal_args(args))
    assert _typed(decoded) == _typed(_ref_unmarshal_args(marshal_args(args)))
    assert [type(value) for value in decoded[:4]] == [bool, int, bool, int]


def test_subclass_instances_encode_their_own_value():
    # the instance is packed as it is: no str(), float() or bytes() call
    args = [_Shade.LIGHT, _Level.HIGH, _Loud("ab"), _Rounded(2.5),
            _Framed(b"xy")]
    encoded = marshal_args(args)
    assert encoded == _ref_marshal_args(args)
    assert unmarshal_args(encoded) == ["lé", 2**40, "ab", 2.5, b"xy"]


def _same_failure(payload):
    """Decode ``payload`` with both codecs: the same value, or the same
    error, except that a str field that is not UTF-8 raises MarshalError
    where the reference let UnicodeDecodeError escape."""
    new = _outcome(unmarshal_args, payload)
    ref = _outcome(_ref_unmarshal_args, payload)
    if ref[0] == "raised" and ref[1] is UnicodeDecodeError:
        assert new[:2] == ("raised", MarshalError)
        assert "not valid UTF-8" in new[2]
    elif ref[0] == "ok":
        assert new[0] == "ok" and _typed(new[1]) == _typed(ref[1])
    else:
        assert new == ref


@settings(max_examples=200, deadline=None)
@given(_any_args, st.data())
def test_malformed_payload_fails_as_the_reference_does(args, data):
    payload = marshal_args(args)
    for cut in range(min(len(payload), 60) + 1):
        _same_failure(payload[:cut])
    _same_failure(payload + data.draw(st.binary(min_size=1, max_size=4)))
    flipped = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(flipped) - 1))
        flipped[index] ^= data.draw(st.integers(1, 255))
    _same_failure(bytes(flipped))
    if len(payload) > 1:
        bad_tag = bytearray(payload)
        bad_tag[1] = data.draw(st.sampled_from([0, 8, 9, 200, 255]))
        _same_failure(bytes(bad_tag))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60))
def test_random_bytes_fail_as_the_reference_does(payload):
    _same_failure(payload)


def test_str_that_is_not_utf8_raises_marshal_error():
    # one str argument of 2 bytes, neither of which starts a UTF-8 char
    with pytest.raises(MarshalError, match="not valid UTF-8"):
        unmarshal_args(bytes.fromhex("0103" "00000002" "fffe"))


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**30, _Int(2**64)])
def test_int_outside_64_bits_raises_marshal_error(value):
    with pytest.raises(struct.error):
        _ref_marshal_args([value])
    with pytest.raises(MarshalError, match="signed 64-bit"):
        marshal_args([value])
    with pytest.raises(MarshalError, match="signed 64-bit"):
        marshal_args([[1, value]])


def test_str_not_encodable_raises_marshal_error():
    with pytest.raises(MarshalError, match="UTF-8"):
        marshal_args(["\ud800"])


@pytest.mark.parametrize("args", [
    [set()], [[1, {"a": 1}]], [bytearray(b"x")], list(range(256)),
    [[0] * 0x10000],
], ids=["set", "nested-dict", "bytearray", "256-args", "long-list"])
def test_rejections_equal_the_reference(args):
    assert _outcome(marshal_args, args) == _outcome(_ref_marshal_args, args)


def _wrap(value, depth: int):
    """``value`` inside ``depth`` one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


def _nested_payload(depth: int) -> bytes:
    """One argument: a None inside ``depth`` one-element lists."""
    return b"\x01" + b"\x05\x00\x01" * depth + b"\x06"


def test_lists_nested_to_the_cap_round_trip():
    args = [_wrap(1, MAX_NESTING)]
    payload = marshal_args(args)
    assert payload == _ref_marshal_args(args)
    assert unmarshal_args(payload) == args
    assert count_fields(args) == 1
    assert unmarshal_args(_nested_payload(MAX_NESTING)) == [
        _wrap(None, MAX_NESTING)]


def test_lists_nested_past_the_cap_raise_marshal_error():
    args = [_wrap(1, MAX_NESTING + 1)]
    too_deep = f"nested more than {MAX_NESTING} deep"
    with pytest.raises(MarshalError, match=too_deep):
        marshal_args(args)
    with pytest.raises(MarshalError, match=too_deep):
        count_fields(args)
    with pytest.raises(MarshalError, match=too_deep):
        unmarshal_args(_nested_payload(MAX_NESTING + 1))


@pytest.mark.parametrize("depth", [1200, 100_000])
def test_deep_nesting_is_a_marshal_error_not_a_recursion_error(depth):
    with pytest.raises(MarshalError):
        unmarshal_args(_nested_payload(depth))
    with pytest.raises(MarshalError):
        marshal_args([_wrap(None, depth)])
    with pytest.raises(MarshalError):
        count_fields([_wrap(None, depth)])
