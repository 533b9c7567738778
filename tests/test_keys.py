"""Key derivation, encoding, ordering, and the grouping/compression premise."""

import random

import pytest

from ppcstore import codec
from ppcstore.codec import CodecSpec
from ppcstore.errors import InvalidNameError, MalformedKeyError
from ppcstore.keys import PpcKey, decode, derive_key
from ppcstore.synth import generate_records

from conftest import small_synth_spec


class TestDeriveKey:
    def test_extension_prepends_like_h_doxygen(self):
        key = derive_key("doxygen.h", "id1")
        assert key.extension == b"h"
        assert key.basename == b"doxygen"

    def test_no_dot_means_empty_extension(self):
        key = derive_key("README", "id1")
        assert key.extension == b""
        assert key.basename == b"README"

    def test_last_dot_wins(self):
        key = derive_key("archive.tar.gz", "id1")
        assert key.extension == b"gz"
        assert key.basename == b"archive.tar"

    def test_trailing_dot_keeps_full_name(self):
        key = derive_key("weird.", "id1")
        assert key.extension == b""
        assert key.basename == b"weird."

    def test_dotfile_is_extensionless(self):
        key = derive_key(".bashrc", "id1")
        assert key.extension == b""
        assert key.basename == b".bashrc"

    def test_extension_is_lowercased(self):
        assert derive_key("main.C", "id1").extension == b"c"

    def test_content_id_copied_verbatim(self):
        assert derive_key("a.py", "swh:1:cnt:XYZ").content_id == b"swh:1:cnt:XYZ"

    @pytest.mark.parametrize("name,cid", [("", "id"), ("a.py", ""), ("a\x00b", "id"), ("a.py", "i\x00d")])
    def test_bad_inputs_rejected(self, name, cid):
        with pytest.raises(InvalidNameError):
            derive_key(name, cid)


class TestEncodeDecode:
    def test_wire_form(self):
        key = PpcKey(b"py", b"main", b"X1")
        assert key.encoded() == b"py\x00main\x00X1"

    def test_extension_dominates_order(self):
        # "z.c" groups before "a.py" because extension compares first
        k_c = derive_key("z.c", "i")
        k_py = derive_key("a.py", "i")
        assert k_c.encoded() < k_py.encoded()

    def test_decode_inverse(self):
        assert decode(b"py\x00main\x00X1") == PpcKey(b"py", b"main", b"X1")

    def test_decode_rejects_missing_separators(self):
        with pytest.raises(MalformedKeyError):
            decode(b"nomarkers")

    def test_decode_rejects_empty_basename(self):
        with pytest.raises(MalformedKeyError):
            decode(b"\x00\x00X")

    def test_decode_rejects_extra_separators(self):
        with pytest.raises(MalformedKeyError):
            decode(b"a\x00b\x00c\x00d")

    def test_empty_extension_is_legal(self):
        assert decode(b"\x00README\x00id").extension == b""

    def test_roundtrip_random_keys(self):
        rnd = random.Random(1234)

        def field(min_len=1):
            n = rnd.randrange(min_len, 12)
            return bytes(rnd.randrange(1, 256) for _ in range(n))

        for _ in range(1000):
            key = PpcKey(field(0), field(), field())
            encoded = key.encoded()
            # independent oracle: the encoding must split on NUL into the fields
            assert encoded.split(b"\x00") == [key.extension, key.basename, key.content_id]
            assert decode(encoded) == key


class TestOrderingProperties:
    def _random_key(self, rnd):
        def field(min_len=1):
            n = rnd.randrange(min_len, 8)
            return bytes(rnd.randrange(1, 256) for _ in range(n))

        return PpcKey(field(0), field(), field())

    def test_encode_strictly_monotone_in_tuple_order(self):
        rnd = random.Random(99)
        keys = [self._random_key(rnd) for _ in range(500)]
        for a, b in zip(keys, keys[1:]):
            tuple_lt = (a.extension, a.basename, a.content_id) < (b.extension, b.basename, b.content_id)
            assert tuple_lt == (a.encoded() < b.encoded())

    def test_sorted_keys_group_by_extension_then_basename(self):
        rnd = random.Random(5)
        exts = [b"", b"c", b"py", b"js"]
        keys = [
            PpcKey(rnd.choice(exts), rnd.choice([b"a", b"bb", b"ccc"]), f"id{i}".encode())
            for i in range(300)
        ]
        encoded = sorted(k.encoded() for k in keys)
        groups = [decode(e).extension for e in encoded]
        # each extension appears in exactly one contiguous run
        seen = set()
        prev = None
        for ext in groups:
            if ext != prev:
                assert ext not in seen, f"extension {ext!r} split across runs"
                seen.add(ext)
                prev = ext
        # and basenames are contiguous within each extension run
        pairs = [(decode(e).extension, decode(e).basename) for e in encoded]
        seen_pairs = set()
        prev_pair = None
        for pair in pairs:
            if pair != prev_pair:
                assert pair not in seen_pairs
                seen_pairs.add(pair)
                prev_pair = pair


@pytest.mark.parametrize("spec_text", ["zstd:3", "deflate:6", "snappy"])
def test_ppc_order_compresses_better_than_random(spec_text):
    """Grouping premise: same-extension files share >= 50% content, so
    blocks built in key order never compress worse than random order."""
    spec = CodecSpec.parse(spec_text)
    records = list(generate_records(small_synth_spec(files=400, seed=21, overlap=0.6)))
    files = []
    for r in records:
        name = r.filename_candidates[0][0]
        files.append((derive_key(name, r.content_id).encoded(), r.content))

    avg = sum(len(c) for _, c in files) // len(files)
    block_size = max(64 * 1024, 2 * avg)

    def packed_compressed_size(ordered):
        total = 0
        cur = bytearray()
        for _, content in ordered:
            cur += content
            if len(cur) >= block_size:
                total += len(codec.compress(bytes(cur), spec))
                cur.clear()
        if cur:
            total += len(codec.compress(bytes(cur), spec))
        return total

    in_key_order = sorted(files)
    shuffled = list(files)
    random.Random(3).shuffle(shuffled)
    assert packed_compressed_size(in_key_order) <= packed_compressed_size(shuffled)
