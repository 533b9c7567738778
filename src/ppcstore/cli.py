"""Command-line driver: ingest, build, query, report, verify, derive-key.

Exit codes: 0 ok, 1 usage, 2 data/integrity problem, 3 I/O failure.
"""

import argparse
import errno
import logging
import sys
from pathlib import Path

from . import bench
from .codec import CodecSpec
from .corpus import parse_record_stream, serialize_record
from .engine import KIB, MIB, Engine, StoreConfig, open_store
from .errors import ConfigError, CorpusError, StoreError
from .keys import derive_key
from .metrics import auto_probe, pareto_frontier, read_report_csv, write_report_csv
from .workload import Distribution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _objectives(text: str) -> list[tuple[str, str]]:
    """'field:direction,...' pairs; the direction is min (default) or max."""
    objectives = []
    for item in text.split(","):
        name, _, direction = item.strip().partition(":")
        direction = direction or "min"
        if direction not in ("min", "max"):
            raise argparse.ArgumentTypeError(f"{item!r}: direction must be min or max")
        objectives.append((name, direction))
    return objectives


def _store_config(args) -> StoreConfig:
    return StoreConfig(
        data_dir=args.data_dir,
        codec=CodecSpec.parse(args.codec),
        target_block_size=int(args.block_kib * KIB),
        write_buffer_bytes=args.write_buffer_mib * MIB,
        compaction_threads=args.compaction_threads,
        bits_per_key=args.bits_per_key,
        capacity_m=args.capacity_mib * MIB if args.capacity_mib else None,
    )


def _open_existing_store(data_dir: str) -> Engine:
    """Open the store in data_dir; unlike build, never create one."""
    if not Path(data_dir).is_dir():
        raise FileNotFoundError(errno.ENOENT, "no store directory", data_dir)
    return open_store(StoreConfig(data_dir=data_dir))


def _add_store_flags(p) -> None:
    p.add_argument("--data-dir", required=True, help="store directory")
    p.add_argument("--codec", default="zstd:3", help="identity | snappy | zstd:<n> | deflate:<n>")
    p.add_argument("--block-kib", type=float, default=64, help="target block size in KiB")
    p.add_argument("--write-buffer-mib", type=int, default=256)
    p.add_argument("--compaction-threads", type=int, default=6)
    p.add_argument("--bits-per-key", type=float, default=10.0)
    p.add_argument("--capacity-mib", type=int, default=0, help="capacity budget M (0 = unlimited)")


def _build_cli() -> _Parser:
    parser = _Parser(prog="ppcstore", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-key", help="print the hex-encoded key for a filename + id")
    p.add_argument("name")
    p.add_argument("content_id")

    p = sub.add_parser("ingest", help="validate a JSONL corpus, optionally normalizing it")
    p.add_argument("corpus")
    p.add_argument("--out", help="write re-serialized records to this path")

    p = sub.add_parser("build", help="bulk-build a store from a corpus")
    p.add_argument("corpus")
    _add_store_flags(p)
    p.add_argument("--csv", help="append the build row to this CSV")
    p.add_argument("--energy", choices=("auto", "off"), default="auto")
    p.add_argument("--tmp-dir", default=None, help="scratch space for the external sort")

    p = sub.add_parser("query", help="run a retrieval workload against a store")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--dist", choices=("uniform", "powerlaw"), default="uniform")
    p.add_argument("--queries", type=_positive_int, default=10_000)
    p.add_argument("--batch", type=_positive_int, default=1, help="keys per query (1 = single-get)")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ordered", action="store_true", help="visit keys in sorted order")
    p.add_argument("--csv")
    p.add_argument("--energy", choices=("auto", "off"), default="auto")

    p = sub.add_parser("report", help="Pareto frontier over benchmark CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--csv", help="write the frontier rows to this CSV")
    p.add_argument(
        "--objectives",
        type=_objectives,
        default="ratio:min,mib_per_s:max",
        help="comma-separated field:direction pairs, direction min or max",
    )

    p = sub.add_parser("verify", help="byte-equality audit of a store against its corpus")
    p.add_argument("corpus")
    p.add_argument("--data-dir", required=True)

    return parser


def _cmd_derive_key(args) -> int:
    key = derive_key(args.name, args.content_id)
    print(key.encoded().hex())
    return EXIT_OK


def _cmd_ingest(args) -> int:
    records = 0
    content_bytes = 0
    out = open(args.out, "wb") if args.out else None
    try:
        with open(args.corpus, "rb") as stream:
            for record in parse_record_stream(stream):
                records += 1
                content_bytes += len(record.content)
                if out:
                    out.write(serialize_record(record))
    finally:
        if out:
            out.close()
    print(f"{records} records, {content_bytes} content bytes")
    return EXIT_OK


def _cmd_build(args) -> int:
    config = _store_config(args)
    probe = auto_probe(args.energy)
    row, _ = bench.build_store(args.corpus, config, probe=probe, tmp_dir=args.tmp_dir)
    if args.csv:
        _append_csv(args.csv, row)
    ratio = f"{row.ratio:.4f}" if row.ratio is not None else "n/a"
    print(
        f"build {row.codec}:{row.level}/{row.block_kib:g}KiB: "
        f"{row.bytes} bytes in {row.seconds:.2f}s "
        f"({row.mib_per_s:.2f} MiB/s), ratio {ratio}"
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    with _open_existing_store(args.data_dir) as engine:
        probe = auto_probe(args.energy)
        dist = Distribution.UNIFORM_DISTINCT if args.dist == "uniform" else Distribution.POWER_LAW
        row = bench.query_store(
            engine,
            distribution=dist,
            num_queries=args.queries,
            batch_size=args.batch,
            threads=args.threads,
            seed=args.seed,
            repeats=args.repeats,
            probe=probe,
            ordered=args.ordered,
        )
    if args.csv:
        _append_csv(args.csv, row)
    eff = f", {row.mb_per_j:.2f} MB/J" if row.mb_per_j is not None else ""
    print(
        f"{row.phase} {args.dist} p={row.threads} batch={row.batch}: "
        f"{row.mib_per_s:.2f} MiB/s over {row.runs} runs{eff}"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = []
    for path in args.csvs:
        rows.extend(read_report_csv(path))
    frontier = pareto_frontier(rows, args.objectives)
    print(bench.format_table(frontier))
    if args.csv:
        write_report_csv(args.csv, frontier)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _open_existing_store(args.data_dir) as engine:
        report = bench.verify_store(engine, args.corpus)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_DATA


_COMMANDS = {
    "derive-key": _cmd_derive_key,
    "ingest": _cmd_ingest,
    "build": _cmd_build,
    "query": _cmd_query,
    "report": _cmd_report,
    "verify": _cmd_verify,
}


def _append_csv(path, row) -> None:
    existing = read_report_csv(path) if Path(path).exists() else []
    write_report_csv(path, existing + [row])


def main(argv=None) -> int:
    args = _build_cli().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
