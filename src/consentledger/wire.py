"""Length-prefixed binary framing shared by every persisted structure.

All multi-byte integers are big-endian. A "chunk" is a u32 length followed
by that many bytes; strings are chunks of UTF-8, and a list of strings is
a u32 count followed by that many strings. A list of (string, u64) pairs
is a u32 count followed by each string with its u64 right after it.
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
    """A u32 count, then each item as a string (read by `Reader.take_strs`)."""
    out = [_U32.pack(len(items))]
    # a call per item, not an inlined loop: the loop kept each encoded item
    # alive into the next iteration, and the interleaved small objects
    # raised peak RSS by 4 MB on access records with 1,000 members
    out += [pack_str(text) for text in items]
    return b"".join(out)


def pack_str_u64s(pairs) -> bytes:
    """A u32 count, then per (text, number) pair the string and the u64
    (read by `Reader.take_str_u64s`)."""
    pack32, pack64 = _U32.pack, _U64.pack
    # one buffer, grown in place: no list of per-pair pieces is held
    out = bytearray(pack32(len(pairs)))
    for text, number in pairs:
        data = text.encode("utf-8")
        out += pack32(len(data))
        out += data
        out += pack64(number)
    return bytes(out)


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
        """A u32 count, then that many strings (written by `pack_strs`)."""
        count = self.take_u32()
        data, pos, end = self._data, self._pos, len(self._data)
        unpack = _U32.unpack_from
        items = []
        try:
            # one bounds check per length field and per string, as take_str
            # does, without a method call per string
            for _ in range(count):
                if pos + 4 > end:
                    raise _truncated(4, pos, end - pos)
                (n,) = unpack(data, pos)
                pos += 4
                if pos + n > end:
                    raise _truncated(n, pos, end - pos)
                items.append(data[pos : pos + n].decode("utf-8"))
                pos += n
        except UnicodeDecodeError as exc:
            raise WireError(f"chunk is not valid UTF-8: {exc}") from exc
        self._pos = pos
        return tuple(items)

    def take_str_u64s(self) -> tuple:
        """A u32 count, then that many (string, u64) pairs (written by
        `pack_str_u64s`)."""
        count = self.take_u32()
        data, end = self._data, len(self._data)
        unpack32, unpack64 = _U32.unpack_from, _U64.unpack_from

        def pairs():
            # the bounds checks of take_str and take_u64, inlined
            pos = self._pos
            for _ in range(count):
                if pos + 4 > end:
                    raise _truncated(4, pos, end - pos)
                (n,) = unpack32(data, pos)
                pos += 4
                if pos + n > end:
                    raise _truncated(n, pos, end - pos)
                text = data[pos : pos + n].decode("utf-8")
                pos += n
                if pos + 8 > end:
                    raise _truncated(8, pos, end - pos)
                yield text, unpack64(data, pos)[0]
                pos += 8
            self._pos = pos

        try:
            # tuple() over a generator grows one allocation to size. A list
            # copied into a tuple takes small tuples from CPython's free
            # list instead; after replaying single-read sets that list ran
            # short, which moved the next cyclic collection into the short
            # set-up phase that follows (3 ms of a 5 ms consent-mix set-up)
            return tuple(pairs())
        except UnicodeDecodeError as exc:
            raise WireError(f"chunk is not valid UTF-8: {exc}") from exc

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining() != 0:
            raise WireError(f"{self.remaining()} trailing bytes after frame")
