import numpy as np
import pytest

from riskscale.rng import (BLOCK_ROWS, RngStream, as_generator, map_blocks, pool_size,
                           resolve_workers)


def test_same_address_replays_identical_sequence():
    a = RngStream(123, 5).generator().random(1000)
    b = RngStream(123, 5).generator().random(1000)
    assert np.array_equal(a, b)


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
    assert s.child(3) == s.child(3)
    ids = {s.child(k).stream_id for k in range(100)}
    assert len(ids) == 100
    assert s.stream_id not in ids


def test_as_generator_accepts_both():
    s = RngStream(1)
    assert as_generator(s).random() == as_generator(RngStream(1)).random()
    gen = s.generator()
    assert as_generator(gen) is gen
    with pytest.raises(TypeError):
        as_generator(42)


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


def test_pool_size_never_exceeds_block_count(monkeypatch):
    # the computed count only: no pool of this size is ever started
    assert pool_size(10**6, 3) == 3
    assert pool_size(2, 3) == 2
    assert pool_size(4, 1) == 1
    assert pool_size(0, 5) == 1
    monkeypatch.setenv("RISKSCALE_THREADS", str(10**6))
    assert pool_size(None, 30518) == 30518
    assert pool_size(None, 31) == 31
