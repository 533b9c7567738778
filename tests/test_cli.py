"""Command-line surface: subcommands, exit codes, output shapes."""

import pytest

from ppcstore.bench import corpus_key_value_pairs
from ppcstore.cli import main
from ppcstore.corpus import write_corpus
from ppcstore.synth import generate_records

from conftest import add_crash_leftovers, file_digests, small_synth_spec


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, generate_records(small_synth_spec(files=120, seed=2)))
    return path


def test_derive_key_prints_hex(capsys):
    assert main(["derive-key", "doxygen.h", "swh:1:cnt:ab"]) == 0
    out = capsys.readouterr().out.strip()
    assert bytes.fromhex(out) == b"h\x00doxygen\x00swh:1:cnt:ab"


def test_ingest_counts_records(corpus, capsys):
    assert main(["ingest", str(corpus)]) == 0
    assert capsys.readouterr().out.startswith("120 records")


def test_ingest_normalizes_to_output(corpus, tmp_path, capsys):
    out_path = tmp_path / "normalized.jsonl"
    assert main(["ingest", str(corpus), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == corpus.read_bytes()  # generator emits canonical form


def test_ingest_reports_bad_line_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(
        b'{"id":"a","names":[["x.py",1]],"content":""}\n'
        b"garbage line\n"
    )
    assert main(["ingest", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_corpus_is_io_error(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.jsonl")]) == 3


@pytest.mark.parametrize("command", ["query", "verify"])
def test_missing_store_dir_is_io_error_and_creates_nothing(corpus, tmp_path, capsys, command):
    missing = tmp_path / "typo"
    argv = [command, "--data-dir", str(missing)] + ([str(corpus)] if command == "verify" else [])
    assert main(argv) == 3
    assert "no store directory" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("command", ["query", "verify"])
def test_query_and_verify_change_no_file(corpus, tmp_path, capsys, command):
    data_dir = tmp_path / "store"
    assert main(
        ["build", str(corpus), "--data-dir", str(data_dir),
         "--write-buffer-mib", "4", "--energy", "off"]
    ) == 0
    pairs = list(corpus_key_value_pairs(corpus))
    # the abandoned WAL puts the corpus's own values again; verify passes only
    # if the stale WAL below the log line is not replayed
    add_crash_leftovers(data_dir, puts=dict(pairs[:10]), stale={pairs[10][0]: b"stale bytes"})
    files = file_digests(data_dir)
    if command == "query":
        argv = ["query", "--data-dir", str(data_dir), "--queries", "50", "--repeats", "1",
                "--energy", "off"]
    else:
        argv = ["verify", str(corpus), "--data-dir", str(data_dir)]
    assert main(argv) == 0
    assert file_digests(data_dir) == files


def test_query_on_an_empty_directory_leaves_it_empty(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["query", "--data-dir", str(empty), "--energy", "off"]) == 2
    assert "universe must be nonempty" in capsys.readouterr().err
    assert list(empty.iterdir()) == []


def test_report_with_unreadable_cell_is_data_error(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text(
        "phase,codec,level,block_kib,threads,distribution,batch,runs,bytes,seconds,"
        "joules,mib_per_s,mb_per_j,ratio\nbuild,zstd,x3,64,1,,1,1,1000,1,,1,,0.5\n"
    )
    assert main(["report", str(path)]) == 2
    assert "column 'level'" in capsys.readouterr().err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["build"])  # missing corpus and --data-dir
    assert err.value.code == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_build_query_verify_report_end_to_end(corpus, tmp_path, capsys):
    data_dir = tmp_path / "store"
    csv_path = tmp_path / "rows.csv"
    assert main(
        [
            "build", str(corpus),
            "--data-dir", str(data_dir),
            "--codec", "zstd:3",
            "--block-kib", "16",
            "--write-buffer-mib", "4",
            "--csv", str(csv_path),
            "--energy", "off",
        ]
    ) == 0
    assert "build zstd:3/16KiB" in capsys.readouterr().out

    assert main(
        [
            "query",
            "--data-dir", str(data_dir),
            "--dist", "powerlaw",
            "--queries", "200",
            "--batch", "10",
            "--threads", "2",
            "--repeats", "1",
            "--csv", str(csv_path),
            "--energy", "off",
        ]
    ) == 0
    assert "multi_get powerlaw p=2" in capsys.readouterr().out
    # query rows carry the codec the store was BUILT with, not open defaults
    query_line = csv_path.read_text().splitlines()[-1]
    assert query_line.split(",")[1:4] == ["zstd", "3", "16.0"]

    assert main(["verify", str(corpus), "--data-dir", str(data_dir)]) == 0
    assert "ok: 120 values" in capsys.readouterr().out

    frontier_csv = tmp_path / "frontier.csv"
    assert main(["report", str(csv_path), "--csv", str(frontier_csv)]) == 0
    table = capsys.readouterr().out
    assert "ratio" in table.splitlines()[0]
    assert frontier_csv.exists()


def test_verify_detects_difference(corpus, tmp_path, capsys):
    data_dir = tmp_path / "store"
    assert main(
        ["build", str(corpus), "--data-dir", str(data_dir),
         "--write-buffer-mib", "4", "--energy", "off"]
    ) == 0
    capsys.readouterr()
    other = tmp_path / "other.jsonl"
    write_corpus(other, generate_records(small_synth_spec(files=3, seed=777)))
    assert main(["verify", str(other), "--data-dir", str(data_dir)]) == 2
    assert "DIFF" in capsys.readouterr().out


def test_verify_reports_corrupt_block_header_as_data_error(corpus, tmp_path, capsys):
    data_dir = tmp_path / "store"
    assert main(
        ["build", str(corpus), "--data-dir", str(data_dir), "--codec", "zstd:3",
         "--write-buffer-mib", "4", "--energy", "off"]
    ) == 0
    tables = sorted(data_dir.glob("*.ppcs"))
    assert tables
    for table in tables:
        blob = bytearray(table.read_bytes())
        blob[0] ^= 0xFF  # first data block's [4B raw length], which its CRC covers
        table.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["verify", str(corpus), "--data-dir", str(data_dir)]) == 2


@pytest.mark.parametrize("offset,value", [(53, 0), (53, 4), (53, 30), (52, 0)],
                         ids=["level0", "level4", "level30", "algo0"])
def test_verify_reports_corrupt_block_codec_bytes_as_data_error(
    corpus, tmp_path, capsys, offset, value
):
    # the footer's [1B algo][1B level] name the codec of every data block
    data_dir = tmp_path / "store"
    assert main(
        ["build", str(corpus), "--data-dir", str(data_dir), "--codec", "zstd:3",
         "--write-buffer-mib", "4", "--energy", "off"]
    ) == 0
    tables = sorted(data_dir.glob("*.ppcs"))
    assert tables
    for table in tables:
        blob = bytearray(table.read_bytes())
        footer = len(blob) - 64
        assert blob[footer + offset] != value
        blob[footer + offset] = value
        table.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["verify", str(corpus), "--data-dir", str(data_dir)]) == 2


def test_build_into_a_store_that_holds_data_is_refused(corpus, tmp_path, capsys):
    data_dir = tmp_path / "store"
    argv = ["build", str(corpus), "--data-dir", str(data_dir), "--write-buffer-mib", "4",
            "--energy", "off"]
    assert main(argv) == 0
    files = file_digests(data_dir)
    capsys.readouterr()
    assert main(argv) == 2
    assert "empty store" in capsys.readouterr().err
    assert file_digests(data_dir) == files


def test_bad_codec_is_usage_error(corpus, tmp_path, capsys):
    rc = main(
        ["build", str(corpus), "--data-dir", str(tmp_path / "s"), "--codec", "zstd:99"]
    )
    assert rc == 1


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus.jsonl"
    write_corpus(corpus, generate_records(small_synth_spec(files=60, seed=3)))
    data_dir, csv_path = base / "store", base / "rows.csv"
    assert main(
        ["build", str(corpus), "--data-dir", str(data_dir), "--write-buffer-mib", "4",
         "--csv", str(csv_path), "--energy", "off"]
    ) == 0
    return data_dir, csv_path


@pytest.mark.parametrize(
    "flags",
    [
        ["query", "--threads", "0"],
        ["query", "--threads", "-2"],
        ["query", "--repeats", "0"],
        ["query", "--queries", "0"],
        ["query", "--batch", "0"],
        ["report", "--objectives", "ratio:up"],
    ],
    ids=["threads0", "threads-2", "repeats0", "queries0", "batch0", "objective-up"],
)
def test_out_of_range_flags_are_usage_errors(built_store, capsys, flags):
    data_dir, csv_path = built_store
    if flags[0] == "query":
        # a query that runs at these settings apart from the flag under test
        argv = ["query", "--data-dir", str(data_dir), "--queries", "20", "--repeats", "1",
                "--energy", "off"] + flags[1:]
    else:
        argv = flags + [str(csv_path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_query_csv_appends_leave_earlier_rows_unchanged(built_store, tmp_path, capsys):
    data_dir, _ = built_store
    csv_path = tmp_path / "rows.csv"
    argv = ["query", "--data-dir", str(data_dir), "--queries", "20", "--repeats", "1",
            "--energy", "off", "--csv", str(csv_path)]
    assert main(argv) == 0
    first = csv_path.read_bytes()
    assert main(argv) == 0
    assert csv_path.read_bytes().startswith(first)
    assert len(csv_path.read_text().splitlines()) == 3
