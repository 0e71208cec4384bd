"""Deterministic random number streams and blocked parallel generation.

A stream is addressed by numpy's own spawn tree: ``RngStream(seed,
stream_id, path)`` is backed by an SFC64 generator seeded from
``SeedSequence(seed, spawn_key=(stream_id, *path))``. A root stream
``RngStream(seed, stream_id)`` is the stream_id-th child of
``SeedSequence(seed)``, and ``child(i)`` appends i to the path, exactly as
``SeedSequence.spawn`` appends i to the spawn key of its i-th child. Every
part of an address is an integer in [0, 2**64): identical addresses
reproduce identical variate sequences, distinct addresses give
statistically independent ones. Large sample runs are generated in
fixed-size row blocks, each block on its own child stream, so the output
depends only on the stream address and the row count -- never on how many
worker threads happened to process the blocks.

:func:`map_blocks` assembles the blocks into one array; :func:`reduce_blocks`
keeps only a small partial result per block (moments, counts) and combines
the partials in block order, so its memory is bounded at any row count.
Both run on :func:`ordered_map`, the package's one thread-pool driver,
which the CSV writer also uses to format its chunks. A reducing kernel
forms each block's temporaries in work arrays borrowed from a
:class:`Workspaces` that the call owns, so no block allocates them afresh.

Counts and worker counts are integers: the row count n of every row
sampler and estimator, a dimension d, an explicit ``workers`` and every
part of a stream address go through one check, :func:`_require_int`. A
Python or numpy integer passes; a float (however whole), nan or string
raises ``ParameterError`` whose ``param`` names the argument, as does an
integer below the argument's bound. No count is rounded or truncated.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError

#: Rows per generation block. Fixed so that results are independent of the
#: worker count; changing it changes every sampled stream.
BLOCK_ROWS = 32768

#: Environment variable capping the number of worker threads.
THREADS_ENV = "RISKSCALE_THREADS"

#: Most threads one pool starts, whatever the worker count asked for. A pool
#: keeps at most 2 * MAX_WORKERS calls in flight, so this also bounds the
#: blocks held in memory at once.
MAX_WORKERS = 64


def _require_int(name: str, value, low: int | None = None, bits: int | None = None) -> int:
    """``value`` as a Python int, by the package's one integer rule.

    ``value`` must be an integer to ``operator.index`` (a Python or numpy
    integer, never a float however whole, nor nan, nor a string), at least
    ``low`` when ``low`` is given and below 2**bits when ``bits`` is.
    Anything else raises ParameterError whose ``param`` is ``name``.
    """
    index = operator.index(value) if hasattr(type(value), "__index__") else None
    if index is not None and (low is None or low <= index) and (bits is None or index < 1 << bits):
        return index
    if low is None:
        rule = "be an integer"
    else:
        rule = f"be >= {low}" if bits is None else f"lie in [{low}, 2**{bits})"
        if index is None:
            rule += " as an integer"
    raise ParameterError(f"{name} must {rule}, got {value if index is None else index!r}", name)


def _address_part(name: str, value) -> int:
    """``value`` as one part of a stream address, an integer in [0, 2**64)."""
    return _require_int(name, value, 0, 64)


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    The address is the state: ``generator()`` always materializes a fresh
    generator positioned at the start of the stream, so two calls with the
    same address replay the same sequence. ``child(i)`` derives the i-th
    substream, numpy's i-th spawned child, for parallel or structured
    sampling. The seed, the stream_id and every index of the path must be
    integers in [0, 2**64), the range of the command line's seed; anything
    else raises ``ParameterError``.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _address_part(name, getattr(self, name)))
        object.__setattr__(self, "path",
                           tuple(_address_part("path", index) for index in self.path))

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator seeded from the stream's address."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.SFC64(seq))

    def child(self, index: int) -> "RngStream":
        """The index-th substream: the path with ``index`` appended."""
        return RngStream(self.seed, self.stream_id, (*self.path, index))


def resolve_workers(workers: int | None = None) -> int:
    """Worker-thread count: explicit argument, else RISKSCALE_THREADS, else the
    CPUs this process may run on (its affinity mask, where the platform has one).
    A count <= 0 means 1; an explicit ``workers`` that is no integer raises
    ParameterError on ``workers``."""
    if workers is not None:
        workers = _require_int("workers", workers)
    elif (env := os.environ.get(THREADS_ENV)) is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
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
    n = _require_int("n", n, 0)
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
    partials = _run_blocks(stream, _require_int("n", n, 1), fill, workers)
    return functools.reduce(combine, partials)


class Workspaces:
    """Work arrays for the blocks of one reducing call, lent one set per task.

    A set is ``count`` float arrays of ``min(n, BLOCK_ROWS) * width``
    elements, each its own allocation of one block's column (``width``
    columns for an (m, width) temporary), so freeing them moves glibc's
    mmap threshold no further than the per-block temporaries they replace.
    ``borrow(m)`` lends a free set, or makes one when none is free, as
    ``count`` contiguous 1-d views of m * width elements, and takes it back
    when the ``with`` block ends. A task holds one set at a time and
    returns it before its partial result is combined, so a call whose
    blocks run on k threads makes at most k sets at any n, and no two
    running tasks share one. The free list belongs to the object, which the
    call creates and drops: there is no module or thread-local state.
    Nothing a task returns may be a view of its set, since the next task
    writes over it.
    """

    def __init__(self, n: int, count: int, width: int = 1):
        self._count, self._width = count, width
        self._rows = min(_require_int("n", n, 1), BLOCK_ROWS)
        self._free = []

    @contextlib.contextmanager
    def borrow(self, m: int):
        try:
            arrays = self._free.pop()  # one call, so no two tasks get the same set
        except IndexError:
            arrays = [np.empty(self._rows * self._width) for _ in range(self._count)]
        try:
            yield [a[:m * self._width] for a in arrays]
        finally:
            self._free.append(arrays)
