"""WAL framing, replay, and torn tails."""

import zlib

from ppcstore.wal import OP_DELETE, OP_PUT, WalWriter, replay_wal


def test_append_replay_roundtrip(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append(OP_PUT, b"key1", b"value1")
    writer.append(OP_DELETE, b"key2")
    writer.append(OP_PUT, b"key3", b"")
    writer.close()
    assert list(replay_wal(path)) == [
        (OP_PUT, b"key1", b"value1"),
        (OP_DELETE, b"key2", b""),
        (OP_PUT, b"key3", b""),
    ]


def test_torn_tail_ignored_with_warning(tmp_path, caplog):
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append(OP_PUT, b"good", b"record")
    writer.close()
    with open(path, "ab") as f:
        f.write(b"\xff\xff\xff\xff partial garbage")
    torn = path.read_bytes()
    with caplog.at_level("WARNING"):
        records = list(replay_wal(path))
    assert records == [(OP_PUT, b"good", b"record")]
    assert path.read_bytes() == torn  # replay never writes
    assert any("torn tail" in m for m in caplog.messages)
    # replay is idempotent
    assert list(replay_wal(path)) == records


def test_corrupt_crc_stops_replay(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append(OP_PUT, b"a", b"1")
    writer.append(OP_PUT, b"b", b"2")
    writer.close()
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # break the CRC of the second record
    path.write_bytes(bytes(blob))
    assert list(replay_wal(path)) == [(OP_PUT, b"a", b"1")]


def test_crc_actually_covers_payload(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append(OP_PUT, b"abc", b"xyz")
    writer.close()
    blob = path.read_bytes()
    payload = blob[4:-4]
    assert int.from_bytes(blob[-4:], "little") == zlib.crc32(payload)


def test_empty_wal_replays_nothing(tmp_path):
    path = tmp_path / "wal.log"
    WalWriter(path).close()
    assert list(replay_wal(path)) == []
