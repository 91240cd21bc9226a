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
drawn whole from its own substream.  ``B = block_size(n_sources,
draw_bits)`` sizes a block by the raw generator output its draws take:
a fair two-point draw costs 1 bit, any other discrete draw 8 (one byte,
and one float more for a byte that straddles a threshold of its law),
a continuous draw 64; so a block of fair bits holds 8 times the rows of
a block of bytes and 64 times those of a block of floats (up to
MAX_BLOCK_ROWS).  A field freezes its B (``block_rows``), and
``chunk_rows`` gives the whole blocks the Monte-Carlo loops draw at once.
"""

from __future__ import annotations

from numpy.random import Generator, Philox, SeedSequence

# Tags keep unrelated consumers of one master seed on disjoint streams
# (tag 2 is retired: it stays unused, so no other stream moves).
STREAM_SAMPLE = 0
STREAM_MOMENTS = 1
STREAM_INSTANCES = 3

# A sample block takes about BLOCK_BITS of raw stream (512 kB): 2^16 float
# draws, 2^19 byte draws or 2^22 fair bits, so the stream wasted at an
# unaligned range end stays small at any width, and a block's substream is
# derived once per 512 kB drawn.
BLOCK_BITS = 2**22
MAX_BLOCK_ROWS = 4096
# raw bits per draw: fair two-point, any other discrete, continuous
BIT_DRAW, BYTE_DRAW, FLOAT_DRAW = 1, 8, 64
# A chunk of replications, drawn and reduced at once by the Monte-Carlo
# loops, holds at most DEFAULT_CHUNK rows and about CHUNK_CELLS source
# draws (32 MB of float64).
DEFAULT_CHUNK = 4096
CHUNK_CELLS = 2**22


def substream(master_seed: int, *path: int) -> Generator:
    """Return the deterministic generator for (master_seed, path)."""
    ss = SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


def block_size(n_sources: int, draw_bits: int) -> int:
    """Replications per sample block of ``n_sources`` draws of
    ``draw_bits`` raw bits each: the largest power of two at most
    BLOCK_BITS / (n_sources draw_bits), capped at MAX_BLOCK_ROWS and at
    least 1."""
    rows = max(1, BLOCK_BITS // (max(1, n_sources) * draw_bits))
    return min(MAX_BLOCK_ROWS, 1 << (rows.bit_length() - 1))


def chunk_rows(n_sources: int, block_rows: int) -> int:
    """Replications per chunk: at most DEFAULT_CHUNK and CHUNK_CELLS /
    n_sources, in whole sample blocks of ``block_rows``, and at least one
    block."""
    budget = min(DEFAULT_CHUNK, CHUNK_CELLS // max(1, n_sources))
    return max(block_rows, budget // block_rows * block_rows)
