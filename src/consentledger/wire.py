"""Length-prefixed binary framing shared by every persisted structure.

All multi-byte integers are big-endian. A "chunk" is a u32 length followed
by that many bytes; strings are chunks of UTF-8, and a list of strings is
one string, its items joined on `,` (`""` is the empty list). No item may
be empty or hold `,`, so every list reads back as the items written.
Readers must consume the exact length and fail loudly on truncation, so
a single flipped length byte cannot silently shift the frame.
"""

from __future__ import annotations

import struct


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class WireError(ValueError):
    """Raised when a byte stream does not parse as the expected frame."""


def _truncated(need: int, pos: int, have: int) -> WireError:
    return WireError(f"truncated frame: need {need} bytes at offset {pos}, have {have}")


def pack_u8(value: int) -> bytes:
    return struct.pack(">B", value)


def pack_u32(value: int) -> bytes:
    return _U32.pack(value)


def pack_u64(value: int) -> bytes:
    return _U64.pack(value)


def pack_chunk(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def pack_strs(items) -> bytes:
    """The items joined on `,` as one string (read by `Reader.take_strs`).

    Raises WireError for an empty item or one that holds `,`: neither
    would read back as itself.
    """
    text = ",".join(items)
    # n items join with n - 1 commas; any more came from inside an item
    if items and ("" in items or text.count(",") != len(items) - 1):
        raise WireError("list items must be non-empty and hold no ','")
    return pack_str(text)


def decode_exact(data: bytes, decode):
    """decode(Reader(data)), which must consume every byte of data."""
    reader = Reader(data)
    value = decode(reader)
    reader.expect_end()
    return value


def hash_chunk(hasher, data: bytes) -> None:
    """Feed pack_chunk(data) to hasher without copying data."""
    hasher.update(pack_u32(len(data)))
    hasher.update(data)


class Reader:
    """Cursor over a byte string; every take_* advances and bounds-checks.

    Each take_* method checks its own bounds and reads its field with one
    `unpack_from`, index or slice, so a field costs one Python call. A
    field that runs past the end raises `WireError` naming the bytes it
    needed, the offset and the bytes left; nothing here lets an
    `IndexError` or a `struct.error` escape. Strings must be UTF-8 and
    flags 0 or 1.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take_u8(self) -> int:
        data, pos = self._data, self._pos
        if pos + 1 > len(data):
            raise _truncated(1, pos, len(data) - pos)
        self._pos = pos + 1
        return data[pos]

    def take_flag(self) -> bool:
        # only 0 and 1 decode: any other byte would reserialize differently
        # than it was stored, which lets flipped bits hide from hash checks
        value = self.take_u8()
        if value > 1:
            raise WireError(f"flag byte must be 0 or 1, got {value}")
        return value == 1

    def take_u32(self) -> int:
        data, pos = self._data, self._pos
        if pos + 4 > len(data):
            raise _truncated(4, pos, len(data) - pos)
        self._pos = pos + 4
        return _U32.unpack_from(data, pos)[0]

    def take_u64(self) -> int:
        data, pos = self._data, self._pos
        if pos + 8 > len(data):
            raise _truncated(8, pos, len(data) - pos)
        self._pos = pos + 8
        return _U64.unpack_from(data, pos)[0]

    def take_chunk(self) -> bytes:
        data, pos = self._data, self._pos
        end = len(data)
        if pos + 4 > end:
            raise _truncated(4, pos, end - pos)
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        if pos + n > end:
            raise _truncated(n, pos, end - pos)
        self._pos = pos + n
        return data[pos : pos + n]

    def take_str(self) -> str:
        # take_chunk's checks, inlined, then the UTF-8 check
        data, pos = self._data, self._pos
        end = len(data)
        if pos + 4 > end:
            raise _truncated(4, pos, end - pos)
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        if pos + n > end:
            raise _truncated(n, pos, end - pos)
        self._pos = pos + n
        try:
            return data[pos : pos + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"chunk is not valid UTF-8: {exc}") from exc

    def take_strs(self) -> tuple:
        """One string of items joined on `,` (written by `pack_strs`)."""
        text = self.take_str()
        items = tuple(text.split(",")) if text else ()
        # a leading, trailing or doubled ',': pack_strs writes no empty
        # item, so these bytes could not be reserialized
        if "" in items:
            raise WireError("empty item in a list")
        return items

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining() != 0:
            raise WireError(f"{self.remaining()} trailing bytes after frame")
