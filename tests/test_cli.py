import codecs
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskscale.cli as cli
import riskscale.dirichlet as dirichlet
import riskscale.verify as verify
from riskscale.cli import CSV_CHUNK_ROWS, main
from riskscale.config import KINDS, parse_config
from riskscale.credibility import (EllipticalShiftModel, GaussianShiftModel,
                                   premium_elliptical, premium_gaussian)
from riskscale.csvfmt import format_rows
from riskscale.dirichlet import (SPHERE_TOL, LpSpec, RandomPSpec, WeightedSpec,
                                 lp_dirichlet_sample, random_p_sample, weighted_sample)
from riskscale.errors import ParameterError
from riskscale.gof import GofReport, ks_one_sample
from riskscale.radial import GammaPower, InvGamma, Pareto, PointMass
from riskscale.rng import BLOCK_ROWS, RngStream
from riskscale.tails import (ClaytonSpec, MGB2Model, TailQuery, mgb2_sample,
                             scale_mixture_exp_sample, tail_convergence_table)
from test_readme import _fresh_python

SCALAR_PREMIUM = """
command = premium
seed = 1
model.kind = gaussian_shift
model.mu = 0
model.sigma = 1
model.sigma0 = 3
x = 4
"""

LP_SAMPLE = """
command = sample
seed = 7
n = 200
model.kind = lp_dirichlet
model.alphas = 1,1,2
model.p = 2
model.radial = point_mass:1
"""

TAILDEP = """
command = taildep
seed = 3
n = 200000
model.kind = mgb2
model.a = 1,1
model.b = 1,1
model.p = 1,1
model.theta = pareto:1
c1 = 1
c2 = 1
t_grid = 2,4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_premium_csv_contains_closed_form_value(tmp_path):
    config = _write(tmp_path, "premium.cfg", SCALAR_PREMIUM)
    out = tmp_path / "premium.csv"
    assert main(["premium", "--config", config, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "p1"
    assert float(row) == 3.0


def test_sample_writes_header_and_rows_on_sphere(tmp_path):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 201
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.abs((rows ** 2).sum(axis=1) - 1.0).max() < 1e-12


def test_same_config_same_bytes(tmp_path):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", config, "--out", str(out1)]) == 0
    assert main(["sample", "--config", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sample", "--config", config, "--out", str(out1)])
    main(["sample", "--config", config, "--seed", "8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_roundtrips_doubles(tmp_path):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    main(["sample", "--config", config, "--out", str(out)])
    direct = lp_dirichlet_sample(LpSpec((1.0, 1.0, 2.0), 2.0), PointMass(1.0),
                                 200, RngStream(7))
    lines = out.read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.array_equal(parsed, direct)


def test_taildep_table(tmp_path):
    config = _write(tmp_path, "taildep.cfg", TAILDEP)
    out = tmp_path / "taildep.csv"
    assert main(["taildep", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,empirical_ratio,stderr,limit_estimate,limit_stderr"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 2.0
    assert 0.0 < first[1] < 1.5


def test_parse_error_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "bad.cfg", LP_SAMPLE + "bogus = 1\n")
    assert main(["sample", "--config", config]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["sample", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_numeric_error_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "thin.cfg", """
command = taildep
seed = 3
n = 2000
model.kind = mgb2
model.a = 1,1
model.b = 1,1
model.p = 1,1
model.theta = pareto:1
c1 = 1
c2 = 1
t_grid = 1000000
""")
    assert main(["taildep", "--config", config]) == 3
    assert "exceedances" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("c1 = 1", "c1 = -1", "c1"),
    ("c1 = 1", "c1 = nan", "c1"),
    ("t_grid = 2,4", "t_grid = 20,10", "t_grid"),
    ("model.a = 1,1", "model.a = 1,2", "model.a"),
    ("model.theta = pareto:1", "model.theta = point_mass:1", "model.theta"),
    ("model.a = 1,1\nmodel.b = 1,1\nmodel.p = 1,1",
     "model.a = 1\nmodel.b = 1\nmodel.p = 1", "model.a"),
])
def test_bad_taildep_parameters_exit_2_on_their_line(tmp_path, capsys, old, new, key):
    _assert_exit_2_on_line(tmp_path, capsys, "taildep", TAILDEP.replace(old, new), key)


def _assert_exit_2_on_line(tmp_path, capsys, command, text, key, argv=()):
    lineno = next(i for i, line in enumerate(text.splitlines(), start=1)
                  if line.startswith(key + " ="))
    config = _write(tmp_path, "bad.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"riskscale: config error: line {lineno}: {key}: ")
    assert err.count("\n") == 1
    assert not out.exists()


GAUSSIAN_2D = """
command = premium
seed = 1
model.kind = gaussian_shift
model.mu = 0,1
model.sigma = 1,0.3;0.3,2
model.sigma0 = 2,0.5;0.5,1
x = 1,3
"""


@pytest.mark.parametrize("text, new", [
    (GAUSSIAN_2D, "x = nan,1"),
    (GAUSSIAN_2D, "x = 1,-inf"),
    (SCALAR_PREMIUM, "x = inf"),
    (SCALAR_PREMIUM, "x = 4,4"),
])
def test_bad_premium_x_exits_2_on_its_line(tmp_path, capsys, text, new):
    old = next(line for line in text.splitlines() if line.startswith("x ="))
    _assert_exit_2_on_line(tmp_path, capsys, "premium", text.replace(old, new), "x")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_key_outside_64_bits_exits_2_on_its_line(tmp_path, capsys, seed):
    text = LP_SAMPLE.replace("seed = 7", f"seed = {seed}")
    _assert_exit_2_on_line(tmp_path, capsys, "sample", text, "seed")
    # a valid --seed does not excuse the bad line
    _assert_exit_2_on_line(tmp_path, capsys, "sample", text, "seed", ["--seed", "7"])


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(-2**64)])
def test_seed_option_outside_64_bits_exits_2(tmp_path, capsys, seed):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "out.csv"
    assert main(["sample", "--config", config, f"--seed={seed}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"riskscale: config error: seed must lie in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_seed_bounds_are_inclusive_of_0_and_2_to_64_minus_1(tmp_path):
    outputs = []
    for seed in ("0", str(2**64 - 1)):
        config = _write(tmp_path, "sample.cfg", LP_SAMPLE.replace("seed = 7", f"seed = {seed}"))
        out = tmp_path / f"{seed}.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command, text", [
    ("sample", LP_SAMPLE),
    ("premium", SCALAR_PREMIUM),
    ("verify", "command = verify\nseed = 42\n"),
])
@pytest.mark.parametrize("threads", ["abc", ""])
def test_bad_thread_count_exit_code(tmp_path, capsys, monkeypatch, command, text, threads):
    monkeypatch.setenv("RISKSCALE_THREADS", threads)
    config = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RISKSCALE_THREADS" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_stdout_default(tmp_path, capsys):
    config = _write(tmp_path, "premium.cfg", SCALAR_PREMIUM)
    assert main(["premium", "--config", config]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("p1\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_premium_elliptical_path(tmp_path):
    # C = I_2, mu = 2, x = 3: B = [[2,1],[1,1]], so the premium is 2 + 1/2
    config = _write(tmp_path, "ell.cfg", """
command = premium
seed = 1
model.kind = elliptical_shift
model.c = 1,0;0,1
model.nu = 0,2
x = 3
""")
    out = tmp_path / "ell.csv"
    assert main(["premium", "--config", config, "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1]) == 2.5


def test_elliptical_radial_key_is_unknown(tmp_path, capsys):
    # the premium never reads a radial law, so the kind takes none
    text = _SERVED_TEXTS["elliptical_shift"] + "model.radial = point_mass:1\n"
    lineno = len(text.splitlines())  # the added last line
    config = _write(tmp_path, "ell.cfg", text)
    out = tmp_path / "ell.csv"
    assert main(["premium", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"riskscale: config error: line {lineno}: unknown key 'model.radial'\n"
    assert not out.exists()


def test_config_with_byte_order_mark_runs(tmp_path):
    # an editor may save UTF-8 with a leading BOM; the first key must still parse
    text = SCALAR_PREMIUM.lstrip("\n").encode("utf-8")
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    outputs = []
    for config in (plain, marked):
        out = tmp_path / f"{config.stem}.csv"
        assert main(["premium", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == b"p1\n3\n"


def test_config_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 comment is a config that cannot be read, not a failed check
    config = tmp_path / "latin1.cfg"
    config.write_bytes("# café\n".encode("latin-1") + SCALAR_PREMIUM.encode("ascii"))
    out = tmp_path / "premium.csv"
    assert main(["premium", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("riskscale: cannot read config: ") and err.count("\n") == 1
    assert "codec can't decode" in err
    assert not out.exists()


def test_verify_command_reports_and_exit_codes(tmp_path, monkeypatch, capsys):
    calls = {}

    def fake_pass(seed):
        calls["seed"] = seed
        return GofReport("stub_pass", {"a": 0.0}, 1.0)

    def fake_fail(seed):
        return GofReport("stub_fail", {"m1": 0.5, "m2": 2.0, "m3": math.nan}, 1.0)

    config = _write(tmp_path, "verify.cfg", "command = verify\nseed = 42\n")
    out = tmp_path / "report.txt"

    monkeypatch.setattr(verify, "CHECKS", (fake_pass, fake_pass))
    assert main(["verify", "--config", config, "--out", str(out)]) == 0
    assert calls["seed"] == 42
    assert out.read_text() == "stub_pass,0,1,true\nstub_pass,0,1,true\n"
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(verify, "CHECKS", (fake_fail, fake_pass, fake_fail))
    assert main(["verify", "--config", config, "--out", str(out)]) == 1
    assert out.read_text().count("stub_fail,nan,1,false\n") == 2
    # one line after the report names each failing check and its sub-tests
    assert capsys.readouterr().err == ("riskscale: verify failed: stub_fail (m2, m3); "
                                       "stub_fail (m2, m3)\n")


def test_nan_in_a_ks_sample_fails_its_sub_test_not_the_run(tmp_path, monkeypatch, capsys):
    # gof refuses a non-finite sample; verify scores that KS sub-test nan,
    # so its check fails, names it, and the whole report is still written
    sample = verify.beta_gamma_sample

    def with_nan(alpha, p, n, stream):  # the second of the check's three samples
        x = sample(alpha, p, n, stream)
        if (alpha, p) == (0.5, 2.0):
            x[n // 2] = math.nan
        return x

    monkeypatch.setattr(verify, "beta_gamma_sample", with_nan)
    rep = verify.check_beta_gamma_algebra(42)
    assert math.isnan(rep.statistic) and rep.failing == ("alpha=0.5 p=2",)
    config = _write(tmp_path, "verify.cfg", "command = verify\nseed = 42\n")
    out = tmp_path / "report.txt"
    assert main(["verify", "--config", config, "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert len(lines) == 14 and "beta_gamma_algebra,nan," in lines[7]
    assert [line for line in lines if line.endswith(",false")] == [lines[7]]
    err = capsys.readouterr().err
    assert err == "riskscale: verify failed: beta_gamma_algebra (alpha=0.5 p=2)\n"
    with pytest.raises(ParameterError, match="non-finite"):
        ks_one_sample(np.array([math.nan] + [0.5] * 20), lambda v: v)


def test_csv_writer_matches_per_value_format(tmp_path):
    # the last block holds one row; the oracle is the one-value-at-a-time rule
    gen = np.random.default_rng(0)
    rows = np.column_stack([
        gen.integers(0, 2**64, BLOCK_ROWS + 1, dtype=np.uint64).view(np.float64),
        gen.standard_normal(BLOCK_ROWS + 1) * 10.0 ** gen.integers(-300, 300, BLOCK_ROWS + 1),
        gen.random(BLOCK_ROWS + 1),
    ])
    rows[BLOCK_ROWS - 3:] = [[np.nan, np.inf, -np.inf],
                             [-0.0, 5e-324, -2.2250738585072009e-308],
                             [1e17, 1e16, -1e17],
                             [0.1, 1.0, 0.0]]
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["a", "b", "c"], rows)
    expected = "a,b,c\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows.tolist())
    assert out.read_bytes() == expected.encode("ascii")


def test_sample_stdout_and_out_file_bytes_match(tmp_path, capsysbinary):
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 0
    assert main(["sample", "--config", config]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


# the three Dirichlet kinds at a point_mass radius of 1, on LP_SAMPLE's lines
_POINT_MASS_SAMPLES = {
    "lp_dirichlet": LP_SAMPLE,
    "weighted_dirichlet": LP_SAMPLE.replace("lp_dirichlet", "weighted_dirichlet")
    + "model.qs = 0.5,1,0.25\n",
    "random_p_dirichlet": LP_SAMPLE.replace("lp_dirichlet", "random_p_dirichlet").replace(
        "model.p = 2", "model.p_law = pareto:2"),
}


def _off_sphere(n):
    """n rows of 2s, off every unit sphere."""
    return np.full((n, 3), 2.0)


# each kind's sampler, patched to give off-sphere rows in its own return form
_OFF_SPHERE_SAMPLERS = {
    "lp_dirichlet": ("lp_dirichlet_sample", _off_sphere),
    "weighted_dirichlet": ("weighted_sample", _off_sphere),
    "random_p_dirichlet": ("random_p_sample", lambda n: (_off_sphere(n), np.full(n, 2.0))),
}


def test_failed_sphere_audit_leaves_no_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sample.csv"
    for kind, (name, rows) in _OFF_SPHERE_SAMPLERS.items():
        monkeypatch.setattr(dirichlet, name,
                            lambda spec, radial, n, stream, workers=None, rows=rows: rows(n))
        config = _write(tmp_path, "sample.cfg", _POINT_MASS_SAMPLES[kind])
        assert main(["sample", "--config", config, "--out", str(out)]) == 3, kind
        # 3 * 2^2 - 1 at p = 2
        assert capsys.readouterr().err == ("riskscale: sphere self-audit failed: max "
                                           "deviation 1.100e+01 exceeds 1e-12\n"), kind
        assert not out.exists()


@pytest.mark.parametrize("radius, status, err", [
    (2.0, 0, ""),
    (1.0, 3, "riskscale: sphere self-audit failed: max deviation 3.000e+00 exceeds 1e-12\n"),
])
def test_rows_are_checked_on_the_sphere_their_kind_names(tmp_path, monkeypatch, capsys,
                                                         radius, status, err):
    # rows on the L_2 sphere of radius 2; the config's point_mass:1 is not read
    rows = np.array([[2.0, 0.0, 0.0], [0.0, -2.0, 0.0], [1.2, 0.0, 1.6]])
    monkeypatch.setitem(KINDS, "lp_dirichlet", dataclasses.replace(
        KINDS["lp_dirichlet"], run=lambda config, stream: (rows, (2.0, radius))))
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == status
    assert capsys.readouterr().err == err
    if status == 0:
        assert out.read_bytes() == b"x1,x2,x3\n" + format_rows(rows)
    else:
        assert not out.exists()


def test_random_radius_rows_are_not_held_to_a_sphere(tmp_path, monkeypatch, capsys):
    # a gamma_power radius puts each row on a sphere of its own random radius
    monkeypatch.setattr(dirichlet, "lp_dirichlet_sample",
                        lambda spec, radial, n, stream, workers=None: _off_sphere(n))
    text = LP_SAMPLE.replace("point_mass:1", "gamma_power:3,0.5,0.5")
    config = _write(tmp_path, "sample.cfg", text)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b"x1,x2,x3\n" + format_rows(_off_sphere(200))


def test_sphere_audit_rejects_nan_rows(tmp_path, monkeypatch, capsys):
    def nan_rows(spec, radial, n, stream, workers=None):
        rows = np.full((n, 3), np.sqrt(1 / 3))
        rows[n // 2, 1] = np.nan
        return rows

    monkeypatch.setattr(dirichlet, "lp_dirichlet_sample", nan_rows)
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 3
    # the finiteness check runs first, so the fault gets its one line only
    assert capsys.readouterr().err == ("riskscale: the output holds non-finite values "
                                       "(min nan, max nan); nothing was written\n")
    assert not out.exists()


@pytest.mark.parametrize("value, extremes", [
    (np.nan, "min nan, max nan"),
    (np.inf, "min 0.57735, max inf"),
    (-np.inf, "min -inf, max 0.57735"),
], ids=["nan", "inf", "-inf"])
def test_non_finite_rows_exit_3_and_leave_no_file(tmp_path, monkeypatch, capsys,
                                                   value, extremes):
    def bad_row(spec, radial, n, stream, workers=None):
        rows = np.full((n, 3), np.sqrt(1 / 3))
        rows[n - 1, 2] = value
        return rows

    monkeypatch.setattr(dirichlet, "lp_dirichlet_sample", bad_row)
    # the finiteness check comes first: a non-finite row gets its line only
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"riskscale: the output holds non-finite values ({extremes}); nothing was written\n")
    assert not out.exists()


NON_FINITE_CONFIGS = {
    # Gamma(1e-4) draws are 0 with probability ~0.93: whole rows become 0/0;
    # three blocks, so that two workers compute rows in pool threads
    "lp_dirichlet": """
command = sample
seed = 7
n = 70000
model.kind = lp_dirichlet
model.alphas = 0.0001,0.0001,0.0001
model.p = 2
model.radial = point_mass:1
""",
    # G^(1/a) and Theta^(1/a) at a = 0.01 overflow to inf, and inf * 0 is nan
    "mgb2": """
command = sample
seed = 7
n = 200000
model.kind = mgb2
model.a = 0.01,0.01
model.b = 1,1
model.p = 1,1
model.theta = pareto:0.5
""",
}


_MAIN_PROBE = """
import contextlib, io, json, os, sys
os.environ["RISKSCALE_THREADS"] = sys.argv[1]
from riskscale.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    status = main(sys.argv[2:])
print(json.dumps([status, err.getvalue()]))
"""


def _main_in_fresh_python(threads, *argv):
    """(exit status, stderr) of ``main(argv)`` at RISKSCALE_THREADS=threads
    in a fresh interpreter, where numpy's RuntimeWarnings print as usual (in
    this one pyproject's filterwarnings makes them errors)."""
    return tuple(json.loads(_fresh_python(_MAIN_PROBE, threads, *argv)))


@pytest.mark.parametrize("kind", sorted(NON_FINITE_CONFIGS))
def test_accepted_configs_with_non_finite_rows_exit_3(tmp_path, kind):
    # the finiteness check's line is all of stderr, at one worker and with
    # the sampling in pool threads
    config = _write(tmp_path, "sample.cfg", NON_FINITE_CONFIGS[kind])
    out = tmp_path / "sample.csv"
    for threads in ("1", "2"):
        status, err = _main_in_fresh_python(threads, "sample", "--config", config,
                                            "--out", str(out))
        assert status == 3
        assert err.count("\n") == 1
        assert err.startswith("riskscale: the output holds non-finite values (min nan,")
        assert not out.exists()


NAN_TAILDEP = """
command = taildep
seed = 1
n = 1000
model.kind = mgb2
model.a = 1,1
model.b = 1,1
model.p = 0.0001,0.0001
model.theta = pareto:1e-300
c1 = 1
c2 = 1
t_grid = 2
"""

NAN_TAILDEP_LINE = ("riskscale: the MGB2 sample holds nan values (Theta^(1/a) * W is "
                    "inf * 0); no tail ratio is formed\n")

OVERFLOWING_CONFIGS = [
    # Gamma(1e-4) draws are 0 and Theta = u^(-1e300) is inf: X = inf * 0 is
    # nan, which no threshold counts
    ("taildep", NAN_TAILDEP, 3, NAN_TAILDEP_LINE),
    # G^1000 and Theta^1000 overflow to inf or underflow to 0: inf * 0 again
    ("taildep", NAN_TAILDEP.replace("model.p = 0.0001,0.0001", "model.p = 1,1")
     .replace("model.a = 1,1", "model.a = 0.001,0.001"), 3, NAN_TAILDEP_LINE),
    # Theta = inf times W > 0: every X is inf, which exceeds every threshold
    ("taildep", NAN_TAILDEP.replace("model.p = 0.0001,0.0001", "model.p = 1,1"), 0, ""),
    # numpy warns as the model checks form the non-finite sum they refuse
    ("premium", SCALAR_PREMIUM.replace("model.sigma = 1", "model.sigma = 1e308")
     .replace("model.sigma0 = 3", "model.sigma0 = 1e308"), 2,
     "riskscale: config error: model: sigma + sigma0 contains non-finite entries\n"),
    ("premium", "command = premium\nseed = 1\nmodel.kind = elliptical_shift\n"
     "model.c = 1e308,1e308;1e308,1e308\nmodel.nu = 0,0\nx = 1.5\n", 2,
     "riskscale: config error: model: matrix contains non-finite entries\n"),
]


@pytest.mark.parametrize("command, text, status, err", OVERFLOWING_CONFIGS,
                         ids=["taildep-nan", "taildep-overflow", "taildep-inf",
                              "gaussian-sum", "elliptical-sum"])
def test_overflowing_configs_print_their_line_only(tmp_path, command, text, status, err):
    # numpy's warnings print to no one: stderr is the one line of the
    # refusal, or empty on exit 0
    config = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "run.csv"
    assert _main_in_fresh_python("1", command, "--config", config, "--out", str(out)) \
        == (status, err)
    assert out.exists() == (status == 0)


def test_a_library_call_still_warns_of_its_non_finite_rows():
    # only the command line, which reports the rows, silences the warning
    spec = LpSpec((1e-4, 1e-4, 1e-4), 2.0)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        lp_dirichlet_sample(spec, PointMass(1.0), 1000, RngStream(7), workers=1)


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    def exhausted(spec, radial, n, stream, workers=None):
        raise MemoryError

    monkeypatch.setattr(dirichlet, "lp_dirichlet_sample", exhausted)
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("riskscale: out of memory")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("sample", LP_SAMPLE),
    ("premium", SCALAR_PREMIUM),
    ("taildep", TAILDEP),
    ("verify", "command = verify\nseed = 42\n"),
])
def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch, command, text):
    monkeypatch.setattr(verify, "CHECKS",
                        (lambda seed: GofReport("stub", {"a": 0.0}, 1.0),))
    config = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("riskscale: cannot write output: ")
    assert "Traceback" not in err


def test_taildep_names_dropped_thresholds(tmp_path, capsys):
    out, out_kept = tmp_path / "all.csv", tmp_path / "kept.csv"
    config = _write(tmp_path, "all.cfg", TAILDEP.replace("t_grid = 2,4", "t_grid = 2,4,1e9"))
    assert main(["taildep", "--config", config, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    named = [float(v) for v in err.split("t = ")[1].split(" (")[0].split(", ")]
    assert named == [1e9]
    config = _write(tmp_path, "kept.cfg", TAILDEP)
    assert main(["taildep", "--config", config, "--out", str(out_kept)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 3
    assert out.read_bytes() == out_kept.read_bytes()


def _per_value_text(header, rows):
    return (",".join(header) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n"
        for row in rows.tolist())).encode("ascii")


def _rows_with_fallback_chunk():
    # three chunks; the second holds only values that "%" formats itself
    gen = np.random.default_rng(5)
    rows = gen.standard_normal((3 * CSV_CHUNK_ROWS - 7, 3)) * 10.0 ** gen.integers(
        -6, 19, (3 * CSV_CHUNK_ROWS - 7, 3))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -3e-5, 2e17, -1e300])
    rows[CSV_CHUNK_ROWS:2 * CSV_CHUNK_ROWS] = np.resize(special, (CSV_CHUNK_ROWS, 3))
    return rows


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_csv_writer_bytes_at_any_thread_count(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("RISKSCALE_THREADS", str(threads))
    rows = _rows_with_fallback_chunk()
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["a", "b", "c"], rows)
    assert out.read_bytes() == _per_value_text(["a", "b", "c"], rows)


@pytest.mark.parametrize("command, text", [
    ("sample", LP_SAMPLE.replace("n = 200", f"n = {BLOCK_ROWS + 3 * CSV_CHUNK_ROWS + 5}")),
    ("taildep", TAILDEP),
])
def test_same_bytes_at_1_2_and_4_threads(tmp_path, monkeypatch, command, text):
    config = _write(tmp_path, "run.cfg", text)
    outputs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("RISKSCALE_THREADS", threads)
        out = tmp_path / f"out{threads}.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") > 2


@pytest.mark.parametrize("workers, chunks", [(2, 10), (10**6, 3)])
def test_csv_chunks_in_flight_are_bounded(monkeypatch, inline_pool, workers, chunks):
    written = []

    @contextlib.contextmanager
    def collect(path):
        yield written.append

    in_flight = []
    format_rows = cli.format_rows

    def spy(chunk):
        # the pool runs a call when it is submitted; written[0] is the header
        in_flight.append(inline_pool.submitted - (len(written) - 1))
        return format_rows(chunk)

    monkeypatch.setattr(cli, "_output", collect)
    monkeypatch.setattr(cli, "format_rows", spy)
    monkeypatch.setenv("RISKSCALE_THREADS", str(workers))
    rows = np.arange(chunks * CSV_CHUNK_ROWS * 2, dtype=np.float64).reshape(-1, 2) / 7
    cli._write_csv(None, ["a", "b"], rows)
    pool = min(workers, chunks)
    assert inline_pool.sizes == [pool]
    assert len(in_flight) == chunks and max(in_flight) == min(2 * pool, chunks)
    assert b"".join(written) == _per_value_text(["a", "b"], rows)


def test_stdout_without_binary_buffer(tmp_path):
    config = _write(tmp_path, "premium.cfg", SCALAR_PREMIUM)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["premium", "--config", config]) == 0
    assert text.getvalue() == "p1\n3\n"


def test_unexpected_exception_in_sampler_exits_3(tmp_path, monkeypatch, capsys):
    def broken(spec, radial, n, stream, workers=None):
        return 1 / 0

    monkeypatch.setattr(dirichlet, "lp_dirichlet_sample", broken)
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "riskscale: internal error: ZeroDivisionError: division by zero\n"
    assert not out.exists()


def test_unexpected_exception_in_check_exits_3_not_1(tmp_path, monkeypatch, capsys):
    def broken(seed):
        raise KeyError("missing\nkey")

    monkeypatch.setattr(verify, "CHECKS",
                        (lambda seed: GofReport("stub", {"a": 0.0}, 1.0),
                         broken))
    config = _write(tmp_path, "verify.cfg", "command = verify\nseed = 42\n")
    out = tmp_path / "report.txt"
    assert main(["verify", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "riskscale: internal error: KeyError: 'missing\\nkey'\n"
    assert not out.exists()


_TAILDEP_COLUMNS = ["t", "empirical_ratio", "stderr", "limit_estimate", "limit_stderr"]


def _taildep_direct(stream):
    model = MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(1.0))
    query = TailQuery(c1=1.0, c2=1.0, t_grid=(2.0, 4.0), n=200000)
    rows = tail_convergence_table(model, query, stream)
    return _TAILDEP_COLUMNS, np.array([[r[key] for key in _TAILDEP_COLUMNS] for r in rows])


def _columns(prefix, rows):
    return [f"{prefix}{i + 1}" for i in range(rows.shape[1])], rows


# (kind, command, config text, the library call the run must equal on the
# config's RngStream); the calls are spelled out here, not read from KINDS
_DISPATCH = [
    ("lp_dirichlet", "sample", LP_SAMPLE, lambda s: _columns("x", lp_dirichlet_sample(
        LpSpec((1.0, 1.0, 2.0), 2.0), PointMass(1.0), 200, s))),
    ("weighted_dirichlet", "sample", """
command = sample
seed = 5
n = 300
model.kind = weighted_dirichlet
model.alphas = 0.5,0.5,2
model.p = 1.5
model.qs = 0.5,1,0.25
model.radial = point_mass:2
""", lambda s: _columns("x", weighted_sample(
        WeightedSpec(LpSpec((0.5, 0.5, 2.0), 1.5), (0.5, 1.0, 0.25)), PointMass(2.0), 300, s))),
    ("random_p_dirichlet", "sample", """
command = sample
seed = 6
n = 300
model.kind = random_p_dirichlet
model.alphas = 1,2
model.p_law = pareto:2
model.radial = gamma_power:3,0.5,0.5
""", lambda s: _columns("x", random_p_sample(
        RandomPSpec((1.0, 2.0), Pareto(2.0)), GammaPower(3.0, 0.5, 0.5), 300, s)[0])),
    ("mgb2", "sample", """
command = sample
seed = 8
n = 300
model.kind = mgb2
model.a = 2,0.5,1
model.b = 1,2,1
model.p = 1,1.5,0.5
model.theta = inv_gamma:2
""", lambda s: _columns("x", mgb2_sample(
        MGB2Model((2.0, 0.5, 1.0), (1.0, 2.0, 1.0), (1.0, 1.5, 0.5), InvGamma(2.0)), 300, s))),
    ("mgb2", "taildep", TAILDEP, _taildep_direct),
    ("clayton", "sample", """
command = sample
seed = 9
n = 300
model.kind = clayton
model.theta_shape = 1.5
model.d = 3
""", lambda s: _columns("x", scale_mixture_exp_sample(ClaytonSpec(1.5, 3), 300, s))),
    ("gaussian_shift", "premium", GAUSSIAN_2D, lambda s: _columns("p", np.atleast_2d(
        premium_gaussian(GaussianShiftModel((0.0, 1.0), [[1.0, 0.3], [0.3, 2.0]],
                                            [[2.0, 0.5], [0.5, 1.0]]), (1.0, 3.0))))),
    ("elliptical_shift", "premium", """
command = premium
seed = 1
model.kind = elliptical_shift
model.c = 1,0.2,0,0;0.1,1,0,0;0.3,0,1,0.2;0,0.4,0.1,1
model.nu = 0,0,2,1
x = 3,0.5
""", lambda s: _columns("p", np.atleast_2d(premium_elliptical(EllipticalShiftModel(
        [[1.0, 0.2, 0.0, 0.0], [0.1, 1.0, 0.0, 0.0], [0.3, 0.0, 1.0, 0.2],
         [0.0, 0.4, 0.1, 1.0]], (0.0, 0.0, 2.0, 1.0)), (3.0, 0.5))))),
]


def test_dispatch_cases_cover_every_kind_and_command():
    served = {(kind, command) for kind, entry in KINDS.items() for command in entry.commands}
    assert sorted((kind, command) for kind, command, _, _ in _DISPATCH) == sorted(served)


@pytest.mark.parametrize("kind, command, text, direct", _DISPATCH,
                         ids=[f"{kind}-{command}" for kind, command, _, _ in _DISPATCH])
def test_each_kind_writes_its_library_call(tmp_path, monkeypatch, kind, command, text,
                                           direct):
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    out = tmp_path / "out.csv"
    run_config = parse_config(text, output_path=str(out))
    assert (run_config.kind, run_config.command) == (kind, command)
    assert cli.run(run_config) == 0
    header, rows = direct(RngStream(run_config.seed))
    assert rows.shape[0] >= 1
    assert out.read_bytes() == (",".join(header) + "\n").encode("ascii") + format_rows(rows)


# One bad value per numeric model.* key of each kind, on the _DISPATCH configs.
_SERVED_TEXTS = {kind: text for kind, command, text, _ in _DISPATCH if command != "taildep"}
_BAD_MODEL_VALUES = [
    ("lp_dirichlet", "model.alphas", "1,0,2"),
    ("lp_dirichlet", "model.p", "nan"),
    ("weighted_dirichlet", "model.alphas", "0.5,-1,2"),
    ("weighted_dirichlet", "model.p", "0"),
    ("weighted_dirichlet", "model.qs", "0.5,2,0.25"),
    ("weighted_dirichlet", "model.qs", "0.5,1"),
    ("random_p_dirichlet", "model.alphas", "1,inf"),
    ("mgb2", "model.a", "2,0,1"),
    ("mgb2", "model.b", "1,-2,1"),
    ("mgb2", "model.p", "1,nan,0.5"),
    # a, b and p of unequal lengths fail on the first of b and p unlike a
    ("mgb2", "model.b", "1"),
    ("mgb2", "model.p", "1,1"),
    ("clayton", "model.theta_shape", "0"),
    ("clayton", "model.d", "0"),
    ("gaussian_shift", "model.mu", "0,nan"),
    ("gaussian_shift", "model.sigma", "1,0.3;0.3,inf"),
    # indefinite, and 50% asymmetric: small entries are judged as at scale 1
    ("gaussian_shift", "model.sigma", "1e-11,0;0,-1e-11"),
    ("gaussian_shift", "model.sigma", "1e-11,5e-12;0,1e-11"),
    ("gaussian_shift", "model.sigma0", "2,0.5;0.6,1"),
    ("elliptical_shift", "model.c", "1,0.2,0,0;0.1,1,0,0;0.3,0,nan,0.2;0,0.4,0.1,1"),
    ("elliptical_shift", "model.nu", "1,0,2,1"),
    ("elliptical_shift", "model.c", "1,0,0;0,1,0;0,0,1"),
    ("elliptical_shift", "model.nu", "0,0,2"),
]


def test_bad_model_values_cover_every_kind():
    assert {kind for kind, _, _ in _BAD_MODEL_VALUES} == set(KINDS)


@pytest.mark.parametrize("kind, key, value", _BAD_MODEL_VALUES,
                         ids=[f"{kind}-{key}={value}" for kind, key, value in _BAD_MODEL_VALUES])
def test_bad_model_value_exits_2_on_its_line(tmp_path, capsys, kind, key, value):
    text = _SERVED_TEXTS[kind]
    old = next(line for line in text.splitlines() if line.startswith(key + " ="))
    command = KINDS[kind].commands[0]
    _assert_exit_2_on_line(tmp_path, capsys, command, text.replace(old, f"{key} = {value}"),
                           key)


@pytest.mark.parametrize("command, text, old, new, message", [
    ("sample", LP_SAMPLE, "model.p = 2", "= 1", "empty key"),
    # a config from before every point_mass sample was checked on its sphere
    ("sample", LP_SAMPLE + "audit = true\n", "audit = true", "audit = true",
     "unknown key 'audit'"),
    ("premium", GAUSSIAN_2D, "model.sigma = 1,0.3;0.3,2", "model.sigma = 1,0;0",
     "model.sigma: rows have unequal lengths"),
    ("sample", LP_SAMPLE, "model.radial = point_mass:1", "model.radial = pareto:x",
     "model.radial: law parameters must be numbers, got 'x'"),
    ("sample", LP_SAMPLE, "n = 200", "n = 0", "n: must be >= 1, got 0"),
], ids=["empty-key", "audit-key", "unequal-rows", "law-parameters", "n=0"])
def test_config_error_exits_2_with_one_line_naming_its_line(tmp_path, capsys, command,
                                                            text, old, new, message):
    lineno = text.splitlines().index(old) + 1
    config = _write(tmp_path, "bad.cfg", text.replace(old, new))
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"riskscale: config error: line {lineno}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, edits, message", [
    ("gaussian_shift", {"model.sigma = 1,0.3;0.3,2": "model.sigma = 1,0;0,0",
                        "model.sigma0 = 2,0.5;0.5,1": "model.sigma0 = 1,0;0,0"},
     "sigma + sigma0 must be positive definite"),
])
def test_model_error_of_no_single_key_keeps_model_prefix(tmp_path, capsys, kind, edits,
                                                         message):
    text = _SERVED_TEXTS[kind]
    for old, new in edits.items():
        text = text.replace(old, new)
    config = _write(tmp_path, "bad.cfg", text)
    assert main([KINDS[kind].commands[0], "--config", config]) == 2
    assert capsys.readouterr().err.startswith(f"riskscale: config error: model: {message}")


def test_indefinite_covariance_sum_exits_2_as_a_model_error(tmp_path, capsys):
    # sigma and sigma0 each pass the PSD rule; their sum does not
    text = GAUSSIAN_2D.replace("model.mu = 0,1", "model.mu = 0,0,0").replace(
        "model.sigma = 1,0.3;0.3,2", "model.sigma = 1,0,0;0,0,0;0,0,-0.9e-12").replace(
        "model.sigma0 = 2,0.5;0.5,1", "model.sigma0 = 0,0,0;0,1,0;0,0,-0.9e-12").replace(
        "x = 1,3", "x = 1,1,1")
    out = tmp_path / "out.csv"
    assert main(["premium", "--config", _write(tmp_path, "bad.cfg", text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "riskscale: config error: model: sigma + sigma0 must be positive semidefinite\n")
    assert not out.exists()


RANDOM_P_SAMPLE = """
command = sample
seed = 9601
n = 100000
model.kind = random_p_dirichlet
model.alphas = 1,1,2
model.p_law = gamma_power:0.5,1,1
model.radial = point_mass:1
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_random_p_audit_fails_rows_off_their_own_sphere(tmp_path, monkeypatch, capsys,
                                                        threads):
    # exponents down to ~1e-10: the powers w^(1/p) underflow, and some rows
    # miss the sphere of their own exponent by up to 1
    monkeypatch.setenv("RISKSCALE_THREADS", threads)
    config = _write(tmp_path, "sample.cfg", RANDOM_P_SAMPLE)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("riskscale: sphere self-audit failed: max deviation 1.000e+00 "
                   "exceeds 1e-12\n")
    assert not out.exists()


def test_random_p_audit_passes_rows_on_their_own_sphere(tmp_path, capsys):
    text = RANDOM_P_SAMPLE.replace("seed = 9601", "seed = 9602").replace(
        "gamma_power:0.5,1,1", "pareto:2")
    config = _write(tmp_path, "sample.cfg", text)
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows, _ = random_p_sample(RandomPSpec((1.0, 1.0, 2.0), Pareto(2.0)), PointMass(1.0),
                              100000, RngStream(9602))
    assert out.read_bytes() == b"x1,x2,x3\n" + format_rows(rows)


def _log_uniform(lo, hi):
    """Floats 10**e for e uniform in [lo, hi], written as config text."""
    return st.floats(lo, hi).map(lambda e: repr(10.0 ** e))


# random-p exponent laws, from exponents near 0 (gamma_power:0.5,1,1 among them)
_P_LAWS = st.one_of(
    st.builds("point_mass:{}".format, _log_uniform(-3, 1)),
    st.builds("pareto:{}".format, _log_uniform(-1, 1)),
    st.builds("inv_gamma:{}".format, _log_uniform(-1, 1)),
    st.builds("chi_square_sqrt:{}".format, _log_uniform(-1, 1)),
    st.builds("gamma_power:{},{},{}".format, _log_uniform(-1, 1), _log_uniform(-1, 1),
              _log_uniform(-1, 1)),
)


@st.composite
def _point_mass_sample(draw):
    """A config of a Dirichlet kind with a point_mass radius, over the
    accepted domain: alphas, p (0.001-0.05 among them), p_law and radius."""
    kind = draw(st.sampled_from(sorted(_POINT_MASS_SAMPLES)))
    d = draw(st.integers(1, 4))
    lines = [f"seed = {draw(st.integers(0, 2**64 - 1))}",
             f"model.kind = {kind}",
             "model.alphas = " + ",".join(draw(st.lists(_log_uniform(-2, 2),
                                                        min_size=d, max_size=d))),
             f"model.radial = point_mass:{draw(_log_uniform(-3, 3))}"]
    if kind == "random_p_dirichlet":
        lines.append(f"model.p_law = {draw(_P_LAWS)}")
    else:
        lines.append("model.p = " + draw(st.one_of(st.floats(0.001, 0.05).map(repr),
                                                   _log_uniform(-3, 1.5))))
    if kind == "weighted_dirichlet":
        lines.append("model.qs = " + ",".join(draw(st.lists(
            st.floats(0.01, 1.0).map(repr), min_size=d, max_size=d))))
    return "command = sample\nn = 40\n" + "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=_point_mass_sample())
def test_point_mass_samples_are_on_their_sphere_or_exit_3(tmp_path_factory, text):
    # exit 0 with every written row on its sphere, or exit 3 with one line
    # and no file; the sphere is computed here, from the written CSV
    folder = tmp_path_factory.mktemp("sphere")
    config, out = folder / "sample.cfg", folder / "sample.csv"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["sample", "--config", str(config), "--out", str(out)])
    if status == 3:
        assert err.getvalue().count("\n") == 1 and not out.exists()
        return
    assert status == 0 and err.getvalue() == ""
    run_config = parse_config(text)
    model = run_config.model
    if isinstance(model.spec, RandomPSpec):
        exponents = random_p_sample(model.spec, model.radial, run_config.n,
                                    RngStream(run_config.seed))[1][:, None]
    else:
        exponents = model.spec.p
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == run_config.n
    on_sphere = (np.abs(rows / model.radial.value) ** exponents).sum(axis=1)
    assert np.abs(on_sphere - 1.0).max() <= SPHERE_TOL
