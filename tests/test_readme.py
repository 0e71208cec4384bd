"""The configuration examples in README.md parse, and the small ones run as
the README says they do."""

import re
from pathlib import Path

import numpy as np

import riskscale.cli as cli
from riskscale.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_sample_example_writes_1000_audited_rows(tmp_path):
    out = tmp_path / "sphere.csv"
    config = parse_config(_config_blocks()["sample"], output_path=str(out))
    assert (config.n, config.audit) == (1000, True)
    assert cli.run(config, workers=1) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (1000, len(config.model.spec.alphas))


def test_premium_example_writes_3(tmp_path):
    out = tmp_path / "premium.csv"
    config = parse_config(_config_blocks()["premium"], output_path=str(out))
    assert cli.run(config, workers=1) == 0
    header, value = out.read_text().splitlines()
    assert header == "p1" and float(value) == 3.0
