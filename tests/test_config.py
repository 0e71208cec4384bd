import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskscale.config import COMMANDS, KINDS, DirichletModel, RunConfig, parse_config
from riskscale.credibility import EllipticalShiftModel, GaussianShiftModel
from riskscale.dirichlet import LpSpec, RandomPSpec, WeightedSpec
from riskscale.errors import ConfigError
from riskscale.radial import GammaPower, Pareto, PointMass
from riskscale.rng import RngStream
from riskscale.samplers import gamma_sample
from riskscale.tails import ClaytonSpec, MGB2Model, TailQuery, _check_limit_regime

MINIMAL_SAMPLE = """
command = sample
seed = 7
n = 100
model.kind = lp_dirichlet
model.alphas = 1,1
model.p = 2
model.radial = point_mass:1
"""


def test_minimal_sample_config():
    config = parse_config(MINIMAL_SAMPLE)
    assert config.command == "sample"
    assert config.seed == 7
    assert config.n == 100
    assert config.kind == "lp_dirichlet"
    assert config.model == DirichletModel(LpSpec((1.0, 1.0), 2.0), PointMass(1.0))


def test_zero_alpha_rejected_with_pinpointed_message():
    text = MINIMAL_SAMPLE.replace("model.alphas = 1,1", "model.alphas = 0,1")
    with pytest.raises(ConfigError, match=r"alphas\[0\] must be > 0"):
        parse_config(text)


def test_non_square_sigma_fails_at_parse_time():
    text = """
command = premium
seed = 1
model.kind = gaussian_shift
model.mu = 0,0
model.sigma = 1,0,0;0,1,0
model.sigma0 = 1,0;0,1
x = 1,1
"""
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(text)


def test_unknown_key_rejected_with_line():
    text = MINIMAL_SAMPLE + "model.extra = 3\n"
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'model.extra'"):
        parse_config(text)


def test_duplicate_key_rejected():
    text = MINIMAL_SAMPLE + "seed = 8\n"
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(text)


def test_missing_required_key_named():
    text = MINIMAL_SAMPLE.replace("model.p = 2\n", "")
    with pytest.raises(ConfigError, match="'model.p'"):
        parse_config(text)


def test_missing_seed():
    text = MINIMAL_SAMPLE.replace("seed = 7\n", "")
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(text)
    # a caller-supplied seed fills the gap
    assert parse_config(text, seed=11).seed == 11


def test_command_override_must_agree():
    assert parse_config(MINIMAL_SAMPLE, command="sample").command == "sample"
    with pytest.raises(ConfigError, match="command"):
        parse_config(MINIMAL_SAMPLE, command="premium")


def test_kind_command_mismatch():
    text = MINIMAL_SAMPLE.replace("command = sample", "command = premium")
    with pytest.raises(ConfigError, match="not valid for 'premium'"):
        parse_config(text)


def test_weighted_and_random_p_kinds():
    weighted = parse_config("""
command = sample
seed = 1
n = 10
model.kind = weighted_dirichlet
model.alphas = 0.5,0.5
model.p = 2
model.qs = 0.5,1
model.radial = chi_square_sqrt:2
""")
    assert isinstance(weighted.model.spec, WeightedSpec)

    random_p = parse_config("""
command = sample
seed = 1
n = 10
model.kind = random_p_dirichlet
model.alphas = 1,2
model.p_law = pareto:2
model.radial = gamma_power:3,0.5,0.5
""")
    assert random_p.model == DirichletModel(RandomPSpec((1.0, 2.0), Pareto(2.0)),
                                            GammaPower(3.0, 0.5, 0.5))


def test_clayton_and_mgb2_kinds():
    clayton = parse_config("""
command = sample
seed = 2
n = 10
model.kind = clayton
model.theta_shape = 1.5
model.d = 3
""")
    assert clayton.model == ClaytonSpec(1.5, 3)

    taildep = parse_config("""
command = taildep
seed = 2
n = 1000
model.kind = mgb2
model.a = 1,1
model.b = 1,1
model.p = 1,1
model.theta = pareto:1
c1 = 1
c2 = 0.5
t_grid = 2,4,8
""")
    assert isinstance(taildep.model, MGB2Model)
    assert taildep.query == TailQuery(c1=1.0, c2=0.5, t_grid=(2.0, 4.0, 8.0), n=1000)


def test_premium_configs():
    gaussian = parse_config("""
command = premium
seed = 1
model.kind = gaussian_shift
model.mu = 0
model.sigma = 1
model.sigma0 = 3
x = 4
""")
    assert isinstance(gaussian.model, GaussianShiftModel)
    assert gaussian.x == (4.0,)

    elliptical = parse_config("""
command = premium
seed = 1
model.kind = elliptical_shift
model.c = 1,0;0,1
model.nu = 0,2
x = 3
""")
    assert isinstance(elliptical.model, EllipticalShiftModel)
    assert elliptical.model.nu.tolist() == [0.0, 2.0]


def test_premium_x_dimension_checked():
    text = """
command = premium
seed = 1
model.kind = gaussian_shift
model.mu = 0,0
model.sigma = 1,0;0,1
model.sigma0 = 1,0;0,1
x = 4
"""
    with pytest.raises(ConfigError, match="does not match model dimension"):
        parse_config(text)


def test_verify_minimal_and_strict():
    config = parse_config("command = verify\nseed = 42\n")
    assert config.command == "verify"
    assert config.model is None
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("command = verify\nseed = 42\nmodel.kind = mgb2\n")


def test_law_parse_errors():
    bad_name = MINIMAL_SAMPLE.replace("point_mass:1", "cauchy:1")
    with pytest.raises(ConfigError, match="unknown law"):
        parse_config(bad_name)
    bad_arity = MINIMAL_SAMPLE.replace("point_mass:1", "gamma_power:1,2")
    with pytest.raises(ConfigError, match="takes 3 parameter"):
        parse_config(bad_arity)
    bad_value = MINIMAL_SAMPLE.replace("point_mass:1", "pareto:-1")
    with pytest.raises(ConfigError, match="must be a positive finite number"):
        parse_config(bad_value)


@pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 4.0, 7.5])
def test_chi_square_sqrt_is_the_powered_gamma(df):
    # chi(df): the square root of a Gamma(df/2, rate 1/2) variable
    law = parse_config(MINIMAL_SAMPLE.replace("point_mass:1", f"chi_square_sqrt:{df}")
                       ).model.radial
    assert law == GammaPower(df / 2.0, 0.5, 0.5)
    written_out = gamma_sample(df / 2.0, 0.5, RngStream(17).generator(), size=10**5) ** 0.5
    assert np.array_equal(law.sample(RngStream(17).generator(), size=10**5), written_out)


def test_chi_square_sqrt_rejects_nonpositive_df():
    text = MINIMAL_SAMPLE.replace("point_mass:1", "chi_square_sqrt:-1")
    with pytest.raises(ConfigError, match=r"^line 8: model.radial: df must be a positive"):
        parse_config(text)


def test_audit_flag_scope():
    ok = parse_config(MINIMAL_SAMPLE + "audit = true\n")
    assert ok.audit
    random_p = """
command = sample
seed = 1
n = 10
audit = true
model.kind = random_p_dirichlet
model.alphas = 1,1
model.p_law = pareto:2
model.radial = point_mass:1
"""
    assert parse_config(random_p).audit  # each row against its own exponent
    not_point_mass = MINIMAL_SAMPLE.replace("point_mass:1", "pareto:2") + "audit = true\n"
    with pytest.raises(ConfigError, match="audit"):
        parse_config(not_point_mass)
    no_sphere = """
command = sample
seed = 1
n = 10
audit = true
model.kind = clayton
model.theta_shape = 2
model.d = 2
"""
    with pytest.raises(ConfigError, match="line 5: audit: sphere audit needs"):
        parse_config(no_sphere)


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")


def test_output_path_sources():
    assert parse_config(MINIMAL_SAMPLE).output_path is None
    assert parse_config(MINIMAL_SAMPLE + "out = a.csv\n").output_path == "a.csv"
    assert parse_config(MINIMAL_SAMPLE, output_path="b.csv").output_path == "b.csv"


def _assert_runnable(config):
    """Parsed means runnable up to the data: the kind's table entry serves
    the command, and a taildep model is in the tail limit's regime."""
    assert isinstance(config, RunConfig)
    if config.command == "verify":
        assert config.kind is None and config.model is None
        return
    assert config.command in KINDS[config.kind].commands
    if config.command == "taildep":
        _check_limit_regime(config.model)
        assert isinstance(config.query, TailQuery) and config.query.n == config.n


def test_runconfig_is_frozen():
    config = parse_config(MINIMAL_SAMPLE)
    _assert_runnable(config)
    with pytest.raises(AttributeError):
        config.seed = 9


# valid documents, one per command and model kind, for the fuzzer to perturb
_TEMPLATES = (
    {"command": "sample", "seed": "7", "n": "100", "audit": "true",
     "model.kind": "lp_dirichlet", "model.alphas": "1,1", "model.p": "2",
     "model.radial": "point_mass:1"},
    {"command": "sample", "seed": "7", "n": "100", "model.kind": "weighted_dirichlet",
     "model.alphas": "0.5,0.5", "model.p": "2", "model.qs": "0.5,1",
     "model.radial": "chi_square_sqrt:2"},
    {"command": "sample", "seed": "7", "n": "100", "model.kind": "random_p_dirichlet",
     "model.alphas": "1,2", "model.p_law": "pareto:2",
     "model.radial": "gamma_power:3,0.5,0.5"},
    {"command": "sample", "seed": "7", "n": "100", "model.kind": "clayton",
     "model.theta_shape": "1.5", "model.d": "3"},
    {"command": "taildep", "seed": "3", "n": "1000", "model.kind": "mgb2",
     "model.a": "1,1", "model.b": "1,1", "model.p": "1,1", "model.theta": "pareto:1",
     "c1": "1", "c2": "1", "t_grid": "2,4,8"},
    {"command": "premium", "seed": "1", "model.kind": "gaussian_shift",
     "model.mu": "0,0", "model.sigma": "1,0;0,1", "model.sigma0": "2,0.5;0.5,1",
     "x": "1,1"},
    {"command": "premium", "seed": "1", "model.kind": "elliptical_shift",
     "model.c": "1,0;0,1", "model.nu": "0,2", "x": "3"},
    {"command": "verify", "seed": "42", "out": "report.txt"},
)
_KEYS = tuple(sorted({key for doc in _TEMPLATES for key in doc}))
_NUMBER = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["1e400", "-0", "0x10", "1_0", "9" * 5000, "", " "]))
_VALUE = st.one_of(
    st.sampled_from(COMMANDS + tuple(KINDS)),
    st.sampled_from(["true", "no", "point_mass:1", "pareto:0.5", "inv_gamma:2",
                     "gamma_power:1,2,3", "chi_square_sqrt:-1", "pareto:", ":",
                     "1,0;0,1", "1,2;3", "0,0,1,1", "1,1,2", "1,0;0,0"]),
    st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
    st.lists(st.lists(_NUMBER, min_size=1, max_size=3).map(",".join),
             min_size=1, max_size=3).map(";".join),
    st.text(max_size=20),
)
_LINE = st.one_of(st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUE),
                  st.text(max_size=30))


@st.composite
def _config_text(draw):
    """A valid template with values replaced or dropped and lines added."""
    lines = []
    for key, value in draw(st.sampled_from(_TEMPLATES)).items():
        action = draw(st.sampled_from(("keep", "keep", "replace", "drop")))
        if action == "replace":
            value = draw(_VALUE)
        if action != "drop":
            lines.append(f"{key} = {value}")
    lines += draw(st.lists(_LINE, max_size=3))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(_config_text(), st.lists(_LINE, max_size=8).map("\n".join)),
       command=st.sampled_from((None,) + COMMANDS))
def test_arbitrary_text_raises_only_config_error(text, command):
    try:
        config = parse_config(text, command=command)
    except ConfigError:
        return
    _assert_runnable(config)


def test_theta_law_error_fails_on_the_model_theta_line(monkeypatch):
    # parse_config always builds a RadialLaw, so a parse that hands MGB2Model
    # something else stands in for a theta_law error of the model itself
    def parse(doc):
        doc.take("model.theta")
        return MGB2Model(a=(1.0,), b=(1.0,), p=(1.0,), theta_law="pareto:1")

    monkeypatch.setitem(KINDS, "mgb2", dataclasses.replace(KINDS["mgb2"], parse=parse))
    text = "command = sample\nseed = 1\nn = 5\nmodel.kind = mgb2\nmodel.theta = pareto:1\n"
    with pytest.raises(ConfigError,
                       match=r"^line 5: model\.theta: theta_law must be a RadialLaw$"):
        parse_config(text)
