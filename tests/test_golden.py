"""The byte contract as a committed table.

A run is a pure function of ``(config, seed)``, with the same bytes at any
worker count. Each config under ``tests/golden/`` is one output. It runs in
process through :func:`riskscale.cli.run` at ``RISKSCALE_THREADS`` 1 and 2;
the two outputs must be equal, and their SHA-256 must be the one that
``tests/golden/digests.json`` holds for the config under the running key,
``"<numpy version> <machine> <SIMD targets>"``. numpy may change a Generator
stream between releases, and its ``pow`` and ``exp`` give other last bits
on the SIMD kernels it picks at run time (its AVX-512 ones, say), so the
key names the dispatch targets this CPU enables: ``np.show_runtime()``'s
``simd_extensions.found``. Under a key with no entry only the
1-versus-2-worker equality is checked, and the test skips the digest with
a reason that names the key.

A ``<name>_tiny`` config is ``<name>`` with every covariance or mixing entry
times 2^-40, written exactly: a change of monetary unit, which leaves the
premium as it is. Under any key its output must equal its sibling's.

The tests never write the table. A change that is meant to change bytes
regenerates the running key's entry with

    PYTHONPATH=src python tests/test_golden.py

and names the outputs that moved in CHANGES.md; the diff of
``digests.json`` shows them.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from riskscale.cli import run
from riskscale.config import parse_config

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
CONFIGS = sorted(path.stem for path in GOLDEN.glob("*.cfg"))
KEY = " ".join([np.__version__, platform.machine(),
                *(target for target in __cpu_dispatch__ if __cpu_features__.get(target))])


def _digests(name: str, tmp: Path) -> list[str]:
    """SHA-256 of the output of ``name``.cfg at 1 and at 2 workers."""
    text = (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8")
    digests = []
    for threads in (1, 2):
        out = tmp / f"{name}-{threads}.out"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("RISKSCALE_THREADS", str(threads))
            assert run(parse_config(text, output_path=str(out))) in (0, 1)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return digests


def _table() -> dict | None:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(KEY)


def test_the_table_covers_every_config():
    table = _table()
    if table is None:
        pytest.skip(f"digests.json has no entry for {KEY!r}")
    assert sorted(table) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_output_bytes_match_the_table(name, tmp_path):
    one, two = _digests(name, tmp_path)
    assert one == two, f"{name}: the output differs between 1 and 2 workers"
    table = _table()
    if table is None:
        pytest.skip(f"digests.json has no entry for {KEY!r}; "
                    "1 and 2 workers gave the same bytes")
    assert one == table[name]


@pytest.mark.parametrize("name", ["premium", "elliptical"])
def test_a_change_of_unit_leaves_the_premium_bytes(name, tmp_path):
    assert _digests(f"{name}_tiny", tmp_path) == _digests(name, tmp_path)


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    entry = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            one, two = _digests(name, Path(tmp))
            if one != two:
                sys.exit(f"{name}: the output differs between 1 and 2 workers")
            entry[name] = one
    table[KEY] = entry
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entry)} digests under {KEY!r} to {DIGESTS}")
