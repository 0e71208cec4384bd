import numpy as np
import pytest

from riskscale.cli import main

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
audit = true
model.kind = lp_dirichlet
model.alphas = 1,1,2
model.p = 2
model.radial = point_mass:1
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
    config = _write(tmp_path, "sample.cfg", LP_SAMPLE.replace("audit = true", ""))
    out = tmp_path / "sample.csv"
    main(["sample", "--config", config, "--out", str(out)])
    from riskscale.dirichlet import LpSpec, lp_dirichlet_sample
    from riskscale.radial import PointMass
    from riskscale.rng import RngStream

    direct = lp_dirichlet_sample(LpSpec((1.0, 1.0, 2.0), 2.0), PointMass(1.0),
                                 200, RngStream(7))
    lines = out.read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.array_equal(parsed, direct)


def test_taildep_table(tmp_path):
    config = _write(tmp_path, "taildep.cfg", """
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
""")
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
model.radial = point_mass:1
x = 3
""")
    out = tmp_path / "ell.csv"
    assert main(["premium", "--config", config, "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1]) == 2.5


def test_verify_command_reports_and_exit_codes(tmp_path, monkeypatch):
    import riskscale.verify as verify
    from riskscale.gof import GofReport

    calls = {}

    def fake_pass(seed, workers=None):
        calls["seed"] = seed
        return GofReport("stub_pass", 0.0, 1.0, True, 10)

    def fake_fail(seed, workers=None):
        return GofReport("stub_fail", 2.0, 1.0, False, 10)

    config = _write(tmp_path, "verify.cfg", "command = verify\nseed = 42\n")
    out = tmp_path / "report.txt"

    monkeypatch.setattr(verify, "CHECKS", (fake_pass, fake_pass))
    assert main(["verify", "--config", config, "--out", str(out)]) == 0
    assert calls["seed"] == 42
    assert out.read_text() == "stub_pass,0,1,true\nstub_pass,0,1,true\n"

    monkeypatch.setattr(verify, "CHECKS", (fake_pass, fake_fail))
    assert main(["verify", "--config", config, "--out", str(out)]) == 1
    assert "stub_fail,2,1,false" in out.read_text()
