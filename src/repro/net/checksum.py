"""The Internet checksum (RFC 1071) used by IPv4 and UDP."""

from __future__ import annotations

__all__ = ["internet_checksum", "verify_checksum"]


def _ones_complement_sum(data: bytes) -> int:
    """End-around-carry sum of the 16-bit big-endian words of ``data``.

    As one big-endian integer N (zero-padded to even length), ``data``
    has the words as base-2**16 digits; 2**16 = 1 (mod 0xFFFF), so N is
    the word sum mod 0xFFFF, and folding never turns nonzero into 0.
    """
    n = int.from_bytes(data, "big")
    if len(data) % 2:
        n <<= 8
    return n % 0xFFFF or (0xFFFF if n else 0)


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented.

    Odd-length input is padded with a zero byte, per RFC 1071.
    """
    return 0xFFFF - _ones_complement_sum(data)


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return _ones_complement_sum(data) == 0xFFFF
