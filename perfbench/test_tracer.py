"""Tests of the benchmark's tracer: ``python3 -m pytest perfbench``."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import riskscale.cli  # noqa: E402,F401  (cli is not imported by the package)
from riskscale import GammaPower, LpSpec, RngStream, lp_dirichlet_sample  # noqa: E402
from riskscale import radial, rng, verify  # noqa: E402
from tracer import FILL, FUNCTIONS, SpanSummary, Tracer, is_wrapper, layer_metric  # noqa: E402


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "riskscale" or name.startswith("riskscale."))
            for attr, value in vars(module).items()}


def _radial_methods():
    return {cls: vars(cls)["sample"] for cls in vars(radial).values()
            if isinstance(cls, type) and issubclass(cls, radial.RadialLaw)
            and cls is not radial.RadialLaw}


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = _bindings()
    checks = verify.CHECKS
    generator = rng.RngStream.generator
    methods = _radial_methods()
    originals = {id(getattr(importlib.import_module(f"riskscale.{mod}"), attr))
                 for mod, attr, _ in FUNCTIONS.values()}
    originals |= {id(rng.map_blocks), *map(id, checks)}

    tr = Tracer()
    tr.install()
    try:
        wrapped = set()
        for (module, attr), value in before.items():
            current = getattr(sys.modules[module], attr)
            if id(value) in originals:
                assert is_wrapper(current) and current.__wrapped__ is value, (module, attr)
                wrapped.add(id(value))
            elif (module, attr) != ("riskscale.verify", "CHECKS"):
                assert current is value, (module, attr)
        assert wrapped == originals
        assert [c.__wrapped__ for c in verify.CHECKS] == list(checks)
        assert is_wrapper(rng.RngStream.generator)
        assert methods and all(is_wrapper(vars(cls)["sample"]) for cls in methods)
    finally:
        tr.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert verify.CHECKS is checks
    assert rng.RngStream.generator is generator
    assert _radial_methods() == methods


def test_traced_run_gives_the_same_numbers_and_counts_its_blocks(tracer):
    n = 3 * rng.BLOCK_ROWS + 5
    spec = LpSpec(alphas=(0.5, 1.0, 2.5), p=2.0)
    radius = GammaPower(4.0, 0.5, 0.5)
    traced = lp_dirichlet_sample(spec, radius, n, RngStream(7), workers=2)
    tracer.uninstall()
    plain = lp_dirichlet_sample(spec, radius, n, RngStream(7), workers=2)
    assert np.array_equal(traced, plain)

    summary = SpanSummary(tracer.spans)
    assert summary.block_counts() == [(n, 4)]
    assert summary.calls(FILL) == 4
    assert layer_metric(summary, "samplers.gamma.draws", {}) == 4 * n
    assert layer_metric(summary, "rng.map_blocks.bytes_out", {}) == 8 * 3 * n
    assert layer_metric(summary, "dirichlet.angular_sample.rows", {}) == n


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [[1, None, "a", 0, 0.0, 10.0, None],
             [2, 1, "b", 0, 1.0, 3.0, None],
             [3, 1, "b", 1, 2.0, 5.0, None],
             [4, 1, "b", 1, 8.0, 12.0, None]]
    summary = SpanSummary(spans)
    assert summary.self_s("a") == pytest.approx(4.0)
    assert summary.busy("b") == pytest.approx(9.0)
    assert summary.largest_self() == ("b", pytest.approx(9.0))
