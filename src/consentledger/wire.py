"""Length-prefixed binary framing shared by every persisted structure.

All multi-byte integers are big-endian. A "chunk" is a u32 length followed
by that many bytes; strings are chunks of UTF-8. Readers must consume the
exact length and fail loudly on truncation, so a single flipped length
byte cannot silently shift the frame.
"""

from __future__ import annotations

import struct


class WireError(ValueError):
    """Raised when a byte stream does not parse as the expected frame."""


def pack_u8(value: int) -> bytes:
    return struct.pack(">B", value)


def pack_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def pack_chunk(data: bytes) -> bytes:
    return pack_u32(len(data)) + data


def pack_str(text: str) -> bytes:
    return pack_chunk(text.encode("utf-8"))


def hash_chunk(hasher, data: bytes) -> None:
    """Feed pack_chunk(data) to hasher without copying data."""
    hasher.update(pack_u32(len(data)))
    hasher.update(data)


class Reader:
    """Cursor over a byte string; every take_* advances and bounds-checks."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise WireError(
                f"truncated frame: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def take_u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def take_flag(self) -> bool:
        # only 0 and 1 decode: any other byte would reserialize differently
        # than it was stored, which lets flipped bits hide from hash checks
        value = self.take_u8()
        if value > 1:
            raise WireError(f"flag byte must be 0 or 1, got {value}")
        return value == 1

    def take_u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def take_u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def take_chunk(self) -> bytes:
        return self._take(self.take_u32())

    def take_str(self) -> str:
        raw = self.take_chunk()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"chunk is not valid UTF-8: {exc}") from exc

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining() != 0:
            raise WireError(f"{self.remaining()} trailing bytes after frame")
