"""Multi-tier facade: lookups hit the compressed cache first and fall back
to a slower content-addressed backend only on a miss.

The backend is addressed by content id alone (the archive's intrinsic
identifier); the full grouping key travels with the request so a fetched
value can be admitted into the cache under its proper position.
"""

import threading
from enum import Enum
from typing import IO, Iterable, Protocol

from .corpus import parse_record_stream
from .engine import Engine
from .errors import CapacityError, TierError
from .keys import PpcKey


class AdmissionPolicy(Enum):
    ADMIT_ALWAYS = "admit_always"
    ADMIT_NEVER = "admit_never"


class BackendClient(Protocol):
    name: str

    def fetch(self, content_id: str) -> bytes | None:
        """Return the stored bytes for content_id, or None when absent."""


class SimulatedBackend:
    """In-memory stand-in for the content-addressed tier; counts fetches."""

    name = "simulated-backend"

    def __init__(self, contents: dict[str, bytes]):
        self._contents = dict(contents)
        self.fetch_calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_corpus(cls, stream: IO[bytes] | Iterable[bytes]) -> "SimulatedBackend":
        return cls({r.content_id: r.content for r in parse_record_stream(stream)})

    def total_bytes(self) -> int:
        return sum(len(v) for v in self._contents.values())

    def fetch(self, content_id: str) -> bytes | None:
        with self._lock:
            self.fetch_calls += 1
        return self._contents.get(content_id)


class TieredStore:
    """Cache-through reads with optional admission of backend hits."""

    def __init__(
        self,
        engine: Engine,
        backend: BackendClient,
        admission: AdmissionPolicy = AdmissionPolicy.ADMIT_ALWAYS,
    ):
        self.engine = engine
        self.backend = backend
        self.admission = admission
        self.hits = 0
        self.misses = 0
        self.backend_bytes = 0
        self.admission_rejections = 0
        self._stats_lock = threading.Lock()

    def tiered_get(self, key: PpcKey) -> tuple[bytes | None, str]:
        """(value or None, source) where source is 'cache' or 'backend'."""
        cached = self.engine.get(key)
        if cached is not None:
            with self._stats_lock:
                self.hits += 1
            return cached, "cache"

        try:
            fetched = self.backend.fetch(key.content_id.decode("ascii"))
        except Exception as exc:
            raise TierError(
                f"cache miss and backend {self.backend.name!r} failed: {exc}"
            ) from exc

        with self._stats_lock:
            self.misses += 1
            if fetched is not None:
                self.backend_bytes += len(fetched)

        if fetched is not None and self.admission is AdmissionPolicy.ADMIT_ALWAYS:
            try:
                self.engine.put(key, fetched)
            except CapacityError:
                # budget exhausted: serve the value but skip admission
                with self._stats_lock:
                    self.admission_rejections += 1
        return fetched, "backend"

    def hit_rate_report(self) -> dict:
        with self._stats_lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (self.hits / total) if total else 0.0,
                "backend_bytes": self.backend_bytes,
                "admission_rejections": self.admission_rejections,
            }
