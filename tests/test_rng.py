import operator
import pickle
import sys
import time
import tracemalloc

import numpy as np
import pytest

from riskscale import rng
from riskscale.credibility import GenericShiftModel, premium_mc
from riskscale.dirichlet import LpSpec, lp_dirichlet_sample, random_scale_sequence_sample
from riskscale.errors import ParameterError
from riskscale.radial import Pareto, PointMass
from riskscale.rng import (BLOCK_ROWS, MAX_WORKERS, RngStream, Workspaces, map_blocks,
                           ordered_map, pool_size, reduce_blocks, resolve_workers)
from riskscale.tails import (ClaytonSpec, MGB2Model, TailQuery, mgb2_sample,
                             tail_dependence_limit)


def test_same_address_replays_identical_sequence():
    a = RngStream(123, 5).generator().random(1000)
    b = RngStream(123, 5).generator().random(1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_address_outside_64_bits_is_rejected(seed, stream_id):
    with pytest.raises(ParameterError, match=r"must lie in \[0, 2\*\*64\)"):
        RngStream(seed, stream_id)


def test_address_bounds_are_inclusive_of_0_and_2_to_64_minus_1():
    top = RngStream(2**64 - 1, 2**64 - 1)
    draws = top.generator().random(4)
    assert np.array_equal(draws, top.generator().random(4))
    assert not np.array_equal(draws, RngStream(0, 0).generator().random(4))
    assert top.child(3).generator().random(4).shape == (4,)
    low, high = top.child(0).generator().random(4), top.child(2**64 - 1).generator().random(4)
    assert not np.array_equal(low, high)
    assert top.child(np.int64(7)) == top.child(7)


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**64 - 1, 2**64 - 1),
                                             (42, 0x9E3779B97F4A7C15)])
def test_generator_is_sfc64_on_the_spawned_seed_sequence(seed, stream_id):
    # the stream contract: numpy's own child-stream construction, nothing else
    explicit = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(stream_id,))))
    gen = RngStream(seed, stream_id).generator()
    assert isinstance(gen.bit_generator, np.random.SFC64)
    assert np.array_equal(gen.random(64), explicit.random(64))


def test_distinct_streams_differ():
    a = RngStream(123, 5).generator().random(1000)
    b = RngStream(123, 6).generator().random(1000)
    c = RngStream(124, 5).generator().random(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # crude independence probe: near-zero correlation
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_child_streams_are_deterministic_and_distinct():
    s = RngStream(9, 2)
    assert s.child(3) == s.child(3) == RngStream(9, 2, (3,))
    addresses = {s.child(k) for k in range(100)}
    assert len(addresses) == 100
    assert s not in addresses
    assert {(c.seed, c.stream_id, c.path) for c in addresses} == {
        (9, 2, (k,)) for k in range(100)}


@pytest.mark.parametrize("seed, stream_id, i, j", [(0, 0, 0, 0), (7, 3, 4, 9),
                                                   (2**64 - 1, 2**64 - 1, 2, 1)])
def test_child_is_numpys_spawned_child(seed, stream_id, i, j):
    # the child contract: SeedSequence.spawn appends the index to the spawn key
    root = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    spawned = root.spawn(i + 1)[i].spawn(j + 1)[j]
    explicit = np.random.Generator(np.random.SFC64(spawned))
    gen = RngStream(seed, stream_id).child(i).child(j).generator()
    assert np.array_equal(gen.random(64), explicit.random(64))


@pytest.mark.parametrize("index", [-1, 2**64, 2.5, np.float64(3.0), "3", None])
def test_child_index_outside_64_bits_or_not_an_integer_is_rejected(index):
    # -1 must not wrap onto 2**64 - 1, and a float is no index, however whole
    with pytest.raises(ParameterError, match=r"must lie in \[0, 2\*\*64\)") as excinfo:
        RngStream(0, 5).child(index)
    assert excinfo.value.param == "path"


def test_distinct_paths_of_equal_depth_draw_distinct_numbers():
    s = RngStream(31, 4)
    paths = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2)]
    draws = {tuple(s.child(i).child(j).generator().random(8)) for i, j in paths}
    assert len(draws) == len(paths)


def test_map_blocks_worker_invariance():
    def fill(block, lo, hi):
        return block.generator().random((hi - lo, 3))

    n = 2 * BLOCK_ROWS + 17
    one = map_blocks(RngStream(7), n, fill, ncols=3, workers=1)
    four = map_blocks(RngStream(7), n, fill, ncols=3, workers=4)
    assert one.shape == (n, 3)
    assert np.array_equal(one, four)


def test_map_blocks_prefix_consistency():
    # growing n extends the sample without changing earlier rows
    def fill(block, lo, hi):
        return block.generator().random(hi - lo)

    short = map_blocks(RngStream(3), 1000, fill)
    long = map_blocks(RngStream(3), 2000, fill)
    assert np.array_equal(short, long[:1000])


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("RISKSCALE_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("RISKSCALE_THREADS", "zebra")
    with pytest.raises(ValueError):
        resolve_workers()


def test_resolve_workers_default_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # os.cpu_count() counts every CPU of the machine, even those outside the
    # process's affinity mask (say, under taskset -c 0)
    monkeypatch.delenv("RISKSCALE_THREADS", raising=False)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers() == 1
    monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert resolve_workers() == 3


def test_resolve_workers_default_falls_back_to_cpu_count(monkeypatch):
    # platforms without sched_getaffinity (macOS, Windows)
    monkeypatch.delenv("RISKSCALE_THREADS", raising=False)
    monkeypatch.delattr(rng.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 6)
    assert resolve_workers() == 6
    monkeypatch.setattr(rng.os, "cpu_count", lambda: None)  # undeterminable
    assert resolve_workers() == 1


def test_pool_size_never_exceeds_block_count(monkeypatch):
    # the computed count only: no pool of this size is ever started
    assert pool_size(10**6, 3) == 3
    assert pool_size(2, 3) == 2
    assert pool_size(4, 1) == 1
    assert pool_size(0, 5) == 1
    monkeypatch.setenv("RISKSCALE_THREADS", str(10**6))
    assert pool_size(None, 30518) == MAX_WORKERS
    assert pool_size(None, 31) == 31


def test_thread_count_is_capped_at_any_setting(monkeypatch, inline_pool):
    # a 1e9-row reduction asked for a million workers: the inline pool
    # records the size asked for and starts no thread
    monkeypatch.setenv("RISKSCALE_THREADS", str(10**6))
    blocks = 30518
    assert pool_size(None, blocks) == pool_size(10**6, MAX_WORKERS + 1) == MAX_WORKERS
    total = reduce_blocks(RngStream(16), blocks * BLOCK_ROWS, lambda block, lo, hi: hi - lo,
                          operator.add)
    assert total == blocks * BLOCK_ROWS
    assert inline_pool.sizes == [MAX_WORKERS] and inline_pool.submitted == blocks


def _block_mean(block, lo, hi):
    return block.generator().random(hi - lo).mean()


def test_reduce_blocks_worker_invariance():
    # a floating-point sum is not associative: only the block order fixes the bits
    n = 3 * BLOCK_ROWS + 1
    one = reduce_blocks(RngStream(11), n, _block_mean, lambda a, b: a * 0.75 + b,
                        workers=1)
    four = reduce_blocks(RngStream(11), n, _block_mean, lambda a, b: a * 0.75 + b,
                         workers=4)
    assert one == four


def test_reduce_blocks_combines_in_block_order():
    # tuple concatenation does not commute: the result lists the blocks as combined
    n = 3 * BLOCK_ROWS + 1
    for workers in (1, 4):
        got = reduce_blocks(RngStream(12), n, lambda block, lo, hi: ((lo, hi),),
                            lambda a, b: a + b, workers=workers)
        assert got == ((0, BLOCK_ROWS), (BLOCK_ROWS, 2 * BLOCK_ROWS),
                       (2 * BLOCK_ROWS, 3 * BLOCK_ROWS), (3 * BLOCK_ROWS, n))


def test_reduce_blocks_draws_what_map_blocks_draws():
    def fill(block, lo, hi):
        return block.generator().random((hi - lo, 2))

    n = 3 * BLOCK_ROWS + 1
    rows = map_blocks(RngStream(13), n, fill, ncols=2, workers=1)
    parts = reduce_blocks(RngStream(13), n, lambda block, lo, hi: (fill(block, lo, hi),),
                          lambda a, b: a + b, workers=4)
    assert len(parts) == 4 and np.array_equal(np.vstack(parts), rows)


def test_reduce_blocks_pool_size(monkeypatch):
    # the pool is sized through pool_size; record the request, start no thread
    asked = []

    def spy(workers, blocks):
        asked.append((workers, blocks))
        return 1

    monkeypatch.setattr(rng, "pool_size", spy)
    reduce_blocks(RngStream(14), 3 * BLOCK_ROWS + 1, lambda block, lo, hi: hi - lo,
                  lambda a, b: a + b, workers=10**6)
    assert asked == [(10**6, 4)]
    assert pool_size(10**6, 4) == 4


def test_reduce_blocks_memory_does_not_grow_with_n():
    # 3052 blocks of a trivial fill on one worker: nothing is kept per block
    tracemalloc.start()
    try:
        total = reduce_blocks(RngStream(17), 10**8, lambda block, lo, hi: hi - lo,
                              operator.add, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 10**8
    assert peak < 64 * 1024, peak


def test_reduce_blocks_rejects_empty():
    with pytest.raises(ValueError):
        reduce_blocks(RngStream(15), 0, _block_mean, lambda a, b: a + b)


def test_ordered_map_bounds_calls_in_flight(inline_pool):
    # each call runs at submission, so submitted - yielded is what is in flight
    in_flight = []
    for yielded, value in enumerate(ordered_map(lambda i: i * i, range(50), workers=3)):
        assert value == yielded * yielded
        in_flight.append(inline_pool.submitted - yielded)
    assert inline_pool.sizes == [3]
    assert max(in_flight) == 2 * 3 and inline_pool.submitted == 50


def test_ordered_map_clamps_threads_to_items(inline_pool):
    assert list(ordered_map(str, range(3), workers=10**6)) == ["0", "1", "2"]
    assert list(ordered_map(str, range(5), workers=1)) == [str(i) for i in range(5)]
    assert list(ordered_map(str, [], workers=4)) == []
    assert inline_pool.sizes == [3]


def test_ordered_map_keeps_order_on_real_threads():
    # more workers than cores and frequent thread switches
    def slow_first(i):
        if i == 0:
            time.sleep(0.05)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert list(ordered_map(slow_first, range(200), workers=8)) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def test_workspaces_lend_each_running_task_its_own_array():
    # more workers than cores and frequent thread switches: a task that
    # shared its work array with another would read back the other's mark
    workspaces = Workspaces(64 * BLOCK_ROWS, 2)
    made = set()

    def fill(block, lo, hi):
        with workspaces.borrow(hi - lo) as work:
            made.add(work[0].base.ctypes.data)
            for a in work:
                a[:] = lo
            time.sleep(0)  # let another task run mid-block
            return all(bool((a == lo).all()) for a in work)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert reduce_blocks(RngStream(2), 64 * BLOCK_ROWS, fill, operator.and_, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(made) <= 8  # at most one per thread, at any n


def test_ordered_map_raises_the_call_error():
    def fail_on_three(i):
        if i == 3:
            raise ZeroDivisionError("three")
        return i

    with pytest.raises(ZeroDivisionError, match="three"):
        list(ordered_map(fail_on_three, range(10), workers=2))


def test_map_blocks_rejects_a_negative_row_count():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        map_blocks(RngStream(0), -1, lambda block, lo, hi: np.zeros(hi - lo))


_MGB2 = MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(2.0))


@pytest.mark.parametrize("call, message", [
    (lambda: lp_dirichlet_sample(LpSpec((1.0, 1.0), 2.0), PointMass(1.0), -1, RngStream(0)),
     "n must be >= 0, got -1"),
    (lambda: mgb2_sample(_MGB2, -5, RngStream(0)), "n must be >= 0, got -5"),
    (lambda: tail_dependence_limit(_MGB2, 1.0, 1.0, 0, RngStream(0)),
     "n must be >= 1, got 0"),
], ids=["lp_dirichlet_sample", "mgb2_sample", "tail_dependence_limit"])
def test_a_bad_row_count_is_a_parameter_error_on_n(call, message):
    with pytest.raises(ParameterError, match=message) as excinfo:
        call()
    assert excinfo.value.param == "n"


_SHIFT = GenericShiftModel(prior_density=lambda points: np.exp(-0.5 * points[:, 0] ** 2),
                           noise_sampler=lambda gen, m: gen.standard_normal((m, 1)))

# Every count of the package, with the argument it names and a valid value
# of it: one integer rule (rng._require_int) decides each of them.
_COUNT_SITES = {
    "map_blocks": (lambda v: map_blocks(RngStream(1), v, lambda block, lo, hi:
                                        block.generator().random(hi - lo)), "n", 5),
    "reduce_blocks": (lambda v: reduce_blocks(RngStream(1), v, lambda block, lo, hi: hi - lo,
                                              operator.add), "n", 5),
    "TailQuery.n": (lambda v: TailQuery(c1=1.0, c2=1.0, t_grid=(1.0,), n=v), "n", 5),
    "ClaytonSpec.d": (lambda v: ClaytonSpec(theta_shape=1.5, d=v), "d", 3),
    "random_scale_sequence_sample": (lambda v: random_scale_sequence_sample(
        0.5, 2.0, PointMass(1.0), v, 5, RngStream(1)), "d", 3),
    "premium_mc": (lambda v: premium_mc(_SHIFT, [0.5], v, RngStream(1)), "n", 2000),
    "tail_dependence_limit": (lambda v: tail_dependence_limit(_MGB2, 1.0, 1.0, v, RngStream(1)),
                              "n", 50),
    "resolve_workers": (resolve_workers, "workers", 3),
    "ordered_map workers": (lambda v: list(ordered_map(abs, [-1, 2], workers=v)),
                            "workers", 2),
}


@pytest.mark.parametrize("site", _COUNT_SITES)
@pytest.mark.parametrize("value", [2.7, 3.0, float("nan"), "5"], ids=repr)
def test_a_count_that_is_no_integer_is_a_parameter_error_naming_it(site, value):
    call, param, _ = _COUNT_SITES[site]
    with pytest.raises(ParameterError) as excinfo:
        call(value)
    assert excinfo.value.param == param


@pytest.mark.parametrize("site", _COUNT_SITES)
def test_a_numpy_integer_count_is_that_integer(site):
    call, _, k = _COUNT_SITES[site]
    assert pickle.dumps(call(np.int64(k))) == pickle.dumps(call(k))


def test_a_worker_count_of_at_most_0_means_1():
    assert resolve_workers(0) == resolve_workers(-2) == resolve_workers(np.int64(0)) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_calls_run_under_the_callers_errstate(workers):
    def divide(x):
        return np.divide(np.ones(4), np.full(4, x))

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            list(ordered_map(divide, [1.0, 0.0, 1.0, 0.0], workers=workers))
    with np.errstate(divide="ignore"):
        assert np.isinf(list(ordered_map(divide, [0.0, 0.0], workers=workers))).all()
