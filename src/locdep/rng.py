"""Counter-based random stream derivation.

Every stochastic routine in this package draws from a stream derived as
``substream(master_seed, *path)`` where ``path`` identifies the consumer
(grid position, moment-table tag, block of replications, ...).  Streams are
backed by Philox, a counter-based generator, keyed through
``SeedSequence`` spawn keys, so

* the stream for a given path never depends on how many other paths were
  consumed (no sequential dependence), and
* blocks of replications parallelize with no shared state and merge
  deterministically.

Replication r is row ``r % B`` of sample block ``r // B``, each block
drawn whole from its own substream, ``B = block_size(n_sources)``;
``chunk_rows`` gives the whole blocks the Monte-Carlo loops draw at once.
"""

from __future__ import annotations

from numpy.random import Generator, Philox, SeedSequence

# Tags keep unrelated consumers of one master seed on disjoint streams
# (tag 2 is retired: it stays unused, so no other stream moves).
STREAM_SAMPLE = 0
STREAM_MOMENTS = 1
STREAM_INSTANCES = 3

# A sample block holds about BLOCK_CELLS source draws (0.5 MB of float64),
# so the rows wasted at an unaligned range end stay small at any width.
BLOCK_CELLS = 2**16
MAX_BLOCK_ROWS = 4096
# A chunk of replications, drawn and reduced at once by the Monte-Carlo
# loops, holds at most DEFAULT_CHUNK rows and about CHUNK_CELLS source
# draws (32 MB of float64).
DEFAULT_CHUNK = 4096
CHUNK_CELLS = 2**22


def substream(master_seed: int, *path: int) -> Generator:
    """Return the deterministic generator for (master_seed, path)."""
    ss = SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


def block_size(n_sources: int) -> int:
    """Replications per sample block: the largest power of two at most
    BLOCK_CELLS / n_sources, capped at MAX_BLOCK_ROWS and at least 1."""
    rows = max(1, BLOCK_CELLS // max(1, n_sources))
    return min(MAX_BLOCK_ROWS, 1 << (rows.bit_length() - 1))


def chunk_rows(n_sources: int) -> int:
    """Replications per chunk: at most DEFAULT_CHUNK and CHUNK_CELLS /
    n_sources, in whole sample blocks, and at least one block."""
    B = block_size(n_sources)
    return max(B, min(DEFAULT_CHUNK, CHUNK_CELLS // max(1, n_sources)) // B * B)
