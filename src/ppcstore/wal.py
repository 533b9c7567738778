"""Write-ahead log: acknowledged writes survive a process crash.

Record framing: [4B payload length][payload][4B CRC32 of payload], where
payload = [1B op][4B key length][encoded key][value bytes]. Appends are
flushed to the OS per record, so recovery only depends on the kernel, not
on Python buffer state. Replay stops at a torn or corrupt tail and leaves
it in place: no writer appends to an old WAL, and the manifest write that
retires the file deletes it.
"""

import logging
import os
import struct
import zlib
from typing import Iterator

logger = logging.getLogger(__name__)

OP_PUT = 1
OP_DELETE = 2

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<BI")  # op, key length


class WalWriter:
    def __init__(self, path):
        self.path = str(path)
        self._file = open(path, "ab")
        self.size = self._file.tell()

    def append(self, op: int, key: bytes, value: bytes = b"") -> None:
        payload = _HEAD.pack(op, len(key)) + key + value
        record = _LEN.pack(len(payload)) + payload + _LEN.pack(zlib.crc32(payload))
        self._file.write(record)
        self._file.flush()
        self.size += len(record)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def replay_wal(path) -> Iterator[tuple[int, bytes, bytes]]:
    """Yield (op, key, value) records up to the first bad one."""
    with open(path, "rb") as f:
        good_end = 0
        while True:
            header = f.read(_LEN.size)
            if len(header) < _LEN.size:
                break
            (plen,) = _LEN.unpack(header)
            payload = f.read(plen)
            crc_raw = f.read(_LEN.size)
            if len(payload) < plen or len(crc_raw) < _LEN.size:
                break
            (crc,) = _LEN.unpack(crc_raw)
            if zlib.crc32(payload) != crc or plen < _HEAD.size:
                break
            op, klen = _HEAD.unpack_from(payload, 0)
            if _HEAD.size + klen > plen:
                break
            key = payload[_HEAD.size : _HEAD.size + klen]
            value = payload[_HEAD.size + klen :]
            good_end = f.tell()
            yield op, key, value
        f.seek(0, os.SEEK_END)
        if f.tell() != good_end:
            logger.warning(
                "ignoring torn tail of %s at offset %d (%d bytes)",
                path,
                good_end,
                f.tell() - good_end,
            )
