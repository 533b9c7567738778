"""Compressed, dynamic key-value storage for source-code files.

Files are keyed by (extension, basename, content id) so similar contents
sit adjacently in sorted, block-compressed tables; a benchmark harness
measures the space/time/energy trade-off across codec, block-size, and
thread-count configurations.
"""

from .codec import Algorithm, CodecSpec, compress, decompress
from .corpus import CorpusRecord, canonical_filename, parse_record_stream, serialize_record
from .engine import Engine, StoreConfig, open_store
from .keys import PpcKey, decode, derive_key
from .tiercache import AdmissionPolicy, SimulatedBackend, TieredStore
from .workload import Distribution, WorkloadSpec, make_batches, sample

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AdmissionPolicy",
    "CodecSpec",
    "CorpusRecord",
    "Distribution",
    "Engine",
    "PpcKey",
    "SimulatedBackend",
    "StoreConfig",
    "TieredStore",
    "WorkloadSpec",
    "canonical_filename",
    "compress",
    "decode",
    "decompress",
    "derive_key",
    "make_batches",
    "open_store",
    "parse_record_stream",
    "sample",
    "serialize_record",
]
