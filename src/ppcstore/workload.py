"""Deterministic query workloads: uniform-distinct and power-law sampling.

The generator is SplitMix64 (Steele et al.'s 64-bit mix), chosen because it
is tiny, portable, and exactly reproducible from a single 64-bit seed; the
algorithm name is recorded in persisted workload headers and must never
change. Bounded draws use the multiply-shift reduction, floats take the
top 53 bits, so sequences are bit-identical across platforms.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import WorkloadSpecError

PRNG_NAME = "splitmix64"
_MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift."""
        return (self.next_u64() * n) >> 64

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)


class Distribution(Enum):
    UNIFORM_DISTINCT = "uniform"
    POWER_LAW = "powerlaw"


@dataclass
class WorkloadSpec:
    distribution: Distribution
    num_queries: int
    seed: int
    batch_size: int = 1
    alpha: float = -1.5
    universe: Sequence[bytes] = field(default_factory=list)

    def __post_init__(self):
        if self.num_queries < 1:
            raise WorkloadSpecError("num_queries must be >= 1")
        if self.batch_size < 1:
            raise WorkloadSpecError("batch_size must be >= 1")
        if self.alpha >= 0:
            raise WorkloadSpecError("power-law exponent must be negative")
        if not self.universe:
            raise WorkloadSpecError("universe must be nonempty")
        if (
            self.distribution is Distribution.UNIFORM_DISTINCT
            and self.num_queries > len(self.universe)
        ):
            raise WorkloadSpecError(
                f"cannot draw {self.num_queries} distinct keys from a universe of {len(self.universe)}"
            )


def sample_uniform_distinct(spec: WorkloadSpec) -> list[bytes]:
    """num_queries distinct keys, each universe element equally likely.

    Partial Fisher-Yates over index positions, driven by SplitMix64(seed).
    """
    if spec.num_queries > len(spec.universe):
        raise WorkloadSpecError("num_queries exceeds universe size")
    rng = SplitMix64(spec.seed)
    n = len(spec.universe)
    indices = list(range(n))
    q = spec.num_queries
    for i in range(q):
        j = i + rng.next_below(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return [spec.universe[i] for i in indices[:q]]


def sample_power_law(spec: WorkloadSpec) -> list[bytes]:
    """i.i.d. draws with P(rank i) proportional to i^alpha, alpha = -1.5.

    Ranks map to universe keys through a seed-determined permutation so the
    hot ranks scatter across the key space instead of clustering in one
    extension run.
    """
    rng = SplitMix64(spec.seed)
    n = len(spec.universe)
    permuted = list(spec.universe)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        permuted[i], permuted[j] = permuted[j], permuted[i]

    cumulative: list[float] = []
    total = 0.0
    for rank in range(1, n + 1):
        total += rank**spec.alpha
        cumulative.append(total)

    out: list[bytes] = []
    for _ in range(spec.num_queries):
        u = rng.next_float() * total
        rank = bisect_left(cumulative, u)
        if rank >= n:
            rank = n - 1
        out.append(permuted[rank])
    return out


def sample(spec: WorkloadSpec) -> list[bytes]:
    if spec.distribution is Distribution.UNIFORM_DISTINCT:
        return sample_uniform_distinct(spec)
    return sample_power_law(spec)


def make_batches(keys: Sequence[bytes], batch_size: int) -> list[list[bytes]]:
    """Consecutive chunks of batch_size; the final chunk may be short."""
    if batch_size < 1:
        raise WorkloadSpecError("batch_size must be >= 1")
    return [list(keys[i : i + batch_size]) for i in range(0, len(keys), batch_size)]


def save_workload(path, spec: WorkloadSpec, keys: Iterable[bytes]) -> None:
    """Persist as hex lines under a header recording how they were drawn."""
    with open(path, "w", encoding="ascii") as out:
        out.write(
            f"# ppc-workload v1 prng={PRNG_NAME} dist={spec.distribution.value} "
            f"alpha={spec.alpha} queries={spec.num_queries} "
            f"batch={spec.batch_size} seed={spec.seed}\n"
        )
        for key in keys:
            out.write(key.hex() + "\n")

