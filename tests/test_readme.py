"""The configuration examples in README.md parse, and the small ones run as
the README says they do. The simulation side of those examples, in a fresh
interpreter, loads no scipy module and no checking-side riskscale module.
The names the benchmark tracer wraps live in their modules only."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskscale
import riskscale.cli as cli
from riskscale.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"

#: Python statement giving the sorted names of the loaded scipy modules.
SCIPY_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"

#: Python expression giving the sorted names of the loaded checking-side
#: modules: scipy's and the oracles, KS harness and suite of riskscale.
CHECKING_LOADED = ("sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'"
                   " or m in ('riskscale.cdfs', 'riskscale.gof', 'riskscale.verify'))")


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a new interpreter on this riskscale."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, RISKSCALE_THREADS="2", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _config_blocks() -> dict[str, str]:
    """Every fenced block of README.md whose first line is ``command = ...``,
    keyed by that command."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    configs = [b for b in blocks if re.match(r"command\s*=", b)]
    by_command = {parse_config(text).command: text for text in configs}
    assert len(by_command) == len(configs), "one example per command"
    return by_command


def test_every_config_block_parses():
    # parse_config raises on any block that does not parse
    assert set(_config_blocks()) == {"sample", "premium", "taildep"}
    taildep = parse_config(_config_blocks()["taildep"])
    assert taildep.n == 10**7  # parsed only: the 1e7-row table is not run here


def test_sample_example_writes_1000_audited_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    out = tmp_path / "sphere.csv"
    config = parse_config(_config_blocks()["sample"], output_path=str(out))
    assert (config.n, config.audit) == (1000, True)
    assert cli.run(config) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (1000, len(config.model.spec.alphas))


def test_sample_example_at_tiny_exponent_fails_its_audit(tmp_path, capsys):
    # the real sampler, unpatched: at p = 0.001 the powers w^(1/p) of the
    # simplex weights underflow and every row leaves the sphere
    text = _config_blocks()["sample"].replace("model.p = 2\n", "model.p = 0.001\n")
    assert "model.p = 0.001" in text
    config = tmp_path / "sphere.cfg"
    config.write_text(text)
    out = tmp_path / "sphere.csv"
    assert cli.main(["sample", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("riskscale: sphere self-audit failed")
    assert not out.exists()


def test_premium_example_writes_3(tmp_path, monkeypatch):
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    out = tmp_path / "premium.csv"
    config = parse_config(_config_blocks()["premium"], output_path=str(out))
    assert cli.run(config) == 0
    header, value = out.read_text().splitlines()
    assert header == "p1" and float(value) == 3.0


@pytest.mark.parametrize("c2", [1.0, 2.0])
def test_taildep_example_limit_matches_the_exact_limit(tmp_path, monkeypatch, c2):
    # the README model at 2e5 rows (the example's 1e7 would take ~0.5 s per
    # run), as written and at c1 != c2: the table's limit estimate lies
    # within 4 of its standard errors of cdfs.breiman_limit
    from riskscale.cdfs import breiman_limit

    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    text = re.sub(r"^n = .*$", "n = 200000", _config_blocks()["taildep"], flags=re.M)
    text = re.sub(r"^c2 = .*$", f"c2 = {c2:g}", text, flags=re.M)
    out = tmp_path / "taildep.csv"
    config = parse_config(text, output_path=str(out))
    assert (config.query.c1, config.query.c2) == (1.0, c2)
    assert cli.run(config) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    limit, limit_se = rows[0, 3], rows[0, 4]
    assert abs(limit - breiman_limit(config.model, 1.0, c2)) <= 4.0 * limit_se


def test_simulation_commands_load_no_scipy(tmp_path):
    # scipy.special costs ~0.3 s of set-up; only the verify command needs it,
    # and with it the checking side: the simulation commands load neither
    blocks = _config_blocks()
    blocks["taildep"] = re.sub(r"^n = .*$", "n = 200000", blocks["taildep"], flags=re.M)
    args = []
    for command in ("sample", "premium", "taildep"):
        config = tmp_path / f"{command}.cfg"
        config.write_text(blocks[command])
        args += [command, str(config), str(tmp_path / f"{command}.csv")]
    probe = f"""
import json, sys
import riskscale, riskscale.cli
loaded = {{"import": {CHECKING_LOADED}}}
for command, config, out in zip(*[iter(sys.argv[1:])] * 3):
    status = riskscale.cli.main([command, "--config", config, "--out", out])
    loaded[command] = [status, {CHECKING_LOADED}]
print(json.dumps(loaded))
"""
    loaded = json.loads(_fresh_python(probe, *args))
    assert loaded == {"import": [], "sample": [0, []], "premium": [0, []],
                      "taildep": [0, []]}
    assert len((tmp_path / "taildep.csv").read_text().splitlines()) == 4  # header + 3 t


def test_verify_config_loads_the_suite_in_parse_config():
    # the benchmark times parse_config as set-up and cli.run as the run: the
    # scipy.special import belongs to the first
    probe = f"""
import json, sys
from riskscale.config import parse_config
before = ["riskscale.verify" in sys.modules, {SCIPY_LOADED}]
parse_config("command = verify\\nseed = 42\\n")
print(json.dumps([before, ["riskscale.verify" in sys.modules, "scipy.special" in sys.modules]]))
"""
    assert json.loads(_fresh_python(probe)) == [[False, []], [True, True]]


def test_verify_loads_no_quadrature_statistics_or_linalg_scipy():
    # the exact Breiman limit integrates with numpy on scipy.special alone:
    # neither set-up (parse_config) nor the tail check loads scipy.integrate,
    # scipy.stats or scipy.linalg, each of which would cost verify import time
    probe = """
import json, sys
from riskscale.config import parse_config
parse_config("command = verify\\nseed = 42\\n")
from riskscale.verify import check_breiman_limit
assert check_breiman_limit(42).passed
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] in (["scipy", "integrate"],
                                                ["scipy", "stats"], ["scipy", "linalg"]))))
"""
    assert json.loads(_fresh_python(probe)) == []


def test_library_use_blocks_run_and_only_the_checking_side_loads_scipy():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text().partition("## Library use")[2], re.M | re.S)
    assert len(blocks) == 2, "the simulation example and the checking example"
    probe = f"""
import json, sys
exec(sys.argv[1])
print(json.dumps({CHECKING_LOADED}))
assert x.shape == (10_000, 3) and np.allclose(premium, [2.0, 2.0 / 3.0])
norms = np.sqrt((y ** 2).sum(axis=1))  # p = 2: the radius is the row's L_2 norm
assert ((norms > 1.0 - 1e-12) & (norms < 2.0 + 1e-12)).all()
exec(sys.argv[2])
assert marginal.passed
"""
    out = _fresh_python(probe, *blocks).splitlines()
    assert out[0] == "[]"
    assert len(out[1:]) == 14 and all(line.endswith(",true") for line in out[1:])


def test_tracer_only_names_are_module_attributes_not_package_exports():
    # no command, check or README example reaches these through the package;
    # the tracer looks the three functions up in their modules
    for name in ("normal_sample", "tail_ratio_empirical", "tail_dependence_limit",
                 "ChiSquareSqrt"):
        assert not hasattr(riskscale, name), name
    assert callable(riskscale.samplers.normal_sample)
    assert callable(riskscale.tails.tail_ratio_empirical)
    assert callable(riskscale.tails.tail_dependence_limit)
