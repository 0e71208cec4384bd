"""Deterministic random number streams and blocked parallel generation.

A stream is addressed by a ``(seed, stream_id)`` pair and is backed by an
SFC64 generator seeded from ``SeedSequence(seed, spawn_key=(stream_id,))``,
numpy's own address for the stream_id-th child of ``SeedSequence(seed)``:
identical addresses reproduce identical variate sequences, distinct
addresses give statistically independent ones. Large sample runs are
generated in fixed-size row blocks, each block on its own child stream, so
the output depends only on the stream address and the row count -- never
on how many worker threads happened to process the blocks.

:func:`map_blocks` assembles the blocks into one array; :func:`reduce_blocks`
keeps only a small partial result per block (moments, counts) and combines
the partials in block order, so its memory is bounded at any row count.
Both run on :func:`ordered_map`, the package's one thread-pool driver,
which the CSV writer also uses to format its chunks.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Rows per generation block. Fixed so that results are independent of the
#: worker count; changing it changes every sampled stream.
BLOCK_ROWS = 32768

#: Environment variable capping the number of worker threads.
THREADS_ENV = "RISKSCALE_THREADS"

#: Most threads one pool starts, whatever the worker count asked for. A pool
#: keeps at most 2 * MAX_WORKERS calls in flight, so this also bounds the
#: blocks held in memory at once.
MAX_WORKERS = 64


def _mix64(x: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    The address is the state: ``generator()`` always materializes a fresh
    generator positioned at the start of the stream, so two calls with the
    same address replay the same sequence. Use ``child(k)`` to derive
    independent substreams for parallel or structured sampling. Both
    parts of the address must lie in [0, 2**64), the range of the ids
    ``child()`` derives and of the command line's seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = operator.index(getattr(self, name))
            if not 0 <= value <= _MASK64:
                raise ParameterError(f"{name} must lie in [0, 2**64), got {value}", name)

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator seeded from the stream's address."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(seq))

    def child(self, index: int) -> "RngStream":
        """Derive the index-th substream of this stream."""
        mixed = _mix64((self.stream_id * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def resolve_workers(workers: int | None = None) -> int:
    """Worker-thread count: explicit argument, else RISKSCALE_THREADS, else the
    CPUs this process may run on (its affinity mask, where the platform has one)."""
    if workers is None:
        env = os.environ.get(THREADS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(
                    f"{THREADS_ENV} must be an integer, got {env!r}") from None
        else:
            workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else (os.cpu_count() or 1))
    return max(1, workers)


def pool_size(workers: int | None, blocks: int) -> int:
    """Threads to start for ``blocks`` blocks: never more than there are
    blocks, nor more than MAX_WORKERS."""
    return max(1, min(resolve_workers(workers), blocks, MAX_WORKERS))


def ordered_map(fn, items, workers: int | None = None):
    """Yield ``fn(item)`` for every item of the sequence ``items``, in order.

    ``pool_size(workers, len(items))`` threads make the calls. At most twice
    that many calls are in flight (submitted and not yet yielded), so a slow
    consumer holds back the workers instead of letting results pile up.
    With one worker, ``fn`` runs in the calling thread and no pool starts;
    otherwise each call runs in a copy of the calling thread's context, so
    a ``numpy.errstate`` around the caller holds in the pool threads too.
    The package's one thread-pool driver.
    """
    nworkers = pool_size(workers, len(items))
    if nworkers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        pending = collections.deque()
        try:
            for item in items:
                if len(pending) == 2 * nworkers:
                    yield pending.popleft().result()
                pending.append(pool.submit(contextvars.copy_context().run, fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _run_blocks(stream: RngStream, n: int, task, workers: int | None):
    """Yield ``task(stream.child(b), lo, hi)`` for every block b, in block order.

    The block driver behind :func:`map_blocks` and :func:`reduce_blocks`:
    block b covers rows [b * BLOCK_ROWS, min((b + 1) * BLOCK_ROWS, n)) and
    runs on ``stream.child(b)``; :func:`ordered_map` shares the blocks out.
    """
    def run(lo):
        return task(stream.child(lo // BLOCK_ROWS), lo, min(lo + BLOCK_ROWS, n))

    yield from ordered_map(run, range(0, n, BLOCK_ROWS), workers)


def map_blocks(stream: RngStream, n: int, fill, ncols: int | None = None,
               workers: int | None = None) -> np.ndarray:
    """Fill an (n,) or (n, ncols) array block by block.

    ``fill(block_stream, lo, hi)`` must return the rows for the half-open
    range [lo, hi), drawing only from ``block_stream``. Block b always runs
    on ``stream.child(b)``, so the assembled output is a pure function of
    (stream, n) regardless of the worker count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty((n,) if ncols is None else (n, ncols))

    def put(block, lo, hi):
        out[lo:hi] = fill(block, lo, hi)

    for _ in _run_blocks(stream, n, put, workers):
        pass
    return out


def reduce_blocks(stream: RngStream, n: int, fill, combine,
                  workers: int | None = None):
    """Reduce per-block partial results without materializing the n rows.

    ``fill(block_stream, lo, hi)`` returns a small partial result for the
    rows [lo, hi), drawing only from ``block_stream`` exactly as a
    :func:`map_blocks` fill would. The partials are combined left to right
    in block order, ``combine(combine(p0, p1), p2) ...``, so the result is a
    pure function of (stream, n) at any worker count even when ``combine``
    is not associative in floating point. Needs n >= 1.
    """
    if n < 1:
        raise ValueError("reduce_blocks needs n >= 1")
    partials = _run_blocks(stream, n, fill, workers)
    return functools.reduce(combine, partials)
