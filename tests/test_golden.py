"""The byte contract as two committed tables.

A run is a pure function of ``(config, seed)``, with the same bytes at any
worker count. Each config under ``tests/golden/`` is one output. It runs in
process through :func:`riskscale.cli.run` at ``RISKSCALE_THREADS`` 1 and 2,
once each per session, with a spy on ``RngStream.generator`` that records
the address ``(seed, stream_id, path)`` of every generator the run asks
for. Two tables hold what each config must give:

- ``tests/golden/digests.json``, the SHA-256 of the output under the
  running key, ``"<numpy version> <scipy version> <machine> <SIMD
  targets>"``. numpy may change a Generator stream between releases, and
  its ``pow`` and ``exp`` give other last bits on the SIMD kernels it picks
  at run time (its AVX-512 ones, say), so the key names the dispatch
  targets this CPU enables: ``np.show_runtime()``'s
  ``simd_extensions.found``. The verify reports print p-values from
  ``scipy.special`` (``kolmogorov``, ``ndtr``, ``betainc``, ``gammainc``
  and ``gammaincc``), whose last bits another scipy release may change, so
  the key names scipy's version too. Under a key with no entry only the
  1-versus-2-worker equality is checked, and the test skips the digest
  with a reason that names the key.
- ``tests/golden/addresses.json``, the sorted list of the addresses drawn
  from, with no key. The table is portable: an address is numpy's spawn
  path, and which addresses a run draws from does not depend on the
  numbers drawn, since the blocks are fixed by the row count and every
  check of ``verify`` runs whatever the others gave. So every numpy
  release and every CPU checks it, and no run skips it.

Both tables must also agree between 1 and 2 workers.

A ``<name>_tiny`` config is ``<name>`` with every covariance or mixing entry
times 2^-40, written exactly: a change of monetary unit, which leaves the
premium as it is. Under any key its output must equal its sibling's.
``clayton_mgb2`` is ``clayton`` written as the MGB2 model it is, a = b =
p = 1 with an InvGamma(theta_shape) mixer: under any key it must give
``clayton``'s bytes, drawn from the same addresses.

The tests never write the tables. A change that is meant to change bytes
or addresses regenerates the running key's digests and the whole address
table with

    PYTHONPATH=src python tests/test_golden.py

which refuses to write when 1 and 2 workers disagree, and names the
outputs that moved in CHANGES.md; the diffs of the two files show them.
"""

import functools
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from riskscale.cli import run
from riskscale.config import parse_config
from riskscale.rng import RngStream

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
ADDRESSES = GOLDEN / "addresses.json"
CONFIGS = sorted(path.stem for path in GOLDEN.glob("*.cfg"))
KEY = " ".join([np.__version__, scipy.__version__, platform.machine(),
                *(target for target in __cpu_dispatch__ if __cpu_features__.get(target))])


@functools.cache
def _runs(name: str) -> tuple[tuple[str, list], ...]:
    """(SHA-256 of the output, sorted ``[seed, stream_id, path]`` of every
    generator asked for) of ``name``.cfg at 1 and at 2 workers."""
    text = (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8")
    generator = RngStream.generator
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 2):
            out = Path(tmp) / f"{name}-{threads}.out"
            calls = []

            def spy(stream):
                calls.append([stream.seed, stream.stream_id, list(stream.path)])
                return generator(stream)

            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("RISKSCALE_THREADS", str(threads))
                patch.setattr(RngStream, "generator", spy)
                assert run(parse_config(text, output_path=str(out))) in (0, 1)
            runs.append((hashlib.sha256(out.read_bytes()).hexdigest(), sorted(calls)))
    return tuple(runs)


def _digest_table() -> dict | None:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(KEY)


def _address_table() -> dict:
    return json.loads(ADDRESSES.read_text(encoding="utf-8"))


def test_the_table_covers_every_config():
    table = _digest_table()
    if table is None:
        pytest.skip(f"digests.json has no entry for {KEY!r}")
    assert sorted(table) == CONFIGS


def test_the_address_table_covers_every_config():
    assert sorted(_address_table()) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_output_bytes_match_the_table(name):
    (one, _), (two, _) = _runs(name)
    assert one == two, f"{name}: the output differs between 1 and 2 workers"
    table = _digest_table()
    if table is None:
        pytest.skip(f"digests.json has no entry for {KEY!r}; "
                    "1 and 2 workers gave the same bytes")
    assert one == table[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_stream_addresses_match_the_table(name):
    (_, one), (_, two) = _runs(name)
    assert one == two, f"{name}: the streams drawn from differ between 1 and 2 workers"
    assert one == _address_table()[name]


@pytest.mark.parametrize("name", ["premium", "elliptical", "premium_corr", "elliptical_corr"])
def test_a_change_of_unit_leaves_the_premium_bytes(name):
    assert [digest for digest, _ in _runs(f"{name}_tiny")] == [
        digest for digest, _ in _runs(name)]


def test_the_clayton_sample_is_the_mgb2_sample_at_unit_parameters():
    assert _runs("clayton_mgb2") == _runs("clayton")


@pytest.mark.parametrize("name", ["taildep", "taildep_c2", "verify_seed42"])
def test_four_workers_give_the_golden_bytes(name, monkeypatch, tmp_path):
    # the tail estimators and premium_mc (in verify) lend one work array to
    # each running block task: at 4 workers the call holds up to 4 of them
    out = tmp_path / f"{name}.out"
    monkeypatch.setenv("RISKSCALE_THREADS", "4")
    text = (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8")
    assert run(parse_config(text, output_path=str(out))) in (0, 1)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _runs(name)[0][0]
    table = _digest_table()
    if table is None:
        pytest.skip(f"digests.json has no entry for {KEY!r}; 1 and 4 workers gave the same bytes")
    assert digest == table[name]


def _dump_addresses(table: dict) -> str:
    """The address table as JSON, one address to a line."""
    entries = []
    for name in sorted(table):
        lines = ",\n".join(f"    {json.dumps(address)}" for address in table[name])
        entries.append(f"  {json.dumps(name)}: [\n{lines}\n  ]" if lines
                       else f"  {json.dumps(name)}: []")
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    entry, addresses = {}, {}
    for name in CONFIGS:
        (one, calls), (two, calls_two) = _runs(name)
        if one != two:
            sys.exit(f"{name}: the output differs between 1 and 2 workers")
        if calls != calls_two:
            sys.exit(f"{name}: the streams drawn from differ between 1 and 2 workers")
        entry[name], addresses[name] = one, calls
    digests[KEY] = entry
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ADDRESSES.write_text(_dump_addresses(addresses), encoding="utf-8")
    print(f"wrote {len(entry)} digests under {KEY!r} to {DIGESTS}")
    print(f"wrote the addresses of {len(addresses)} configs to {ADDRESSES}")
