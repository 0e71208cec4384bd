"""Flat key-value run configurations.

The format is one dotted key per line, ``key = value``, with ``#`` comments
and blank lines ignored. Lists are comma-separated, matrices use ``;``
between rows (``1,0;0,2``), and scaling laws are written ``name:params``
(for example ``point_mass:1``, ``gamma_power:2,0.5,0.5``, ``pareto:2``,
``chi_square_sqrt:4``, ``inv_gamma:2``). Unknown keys are rejected, and
every diagnostic names the offending key and line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import credibility, dirichlet, tails
from .credibility import EllipticalShiftModel, GaussianShiftModel
from .dirichlet import LpSpec, RandomPSpec, WeightedSpec
from .errors import ConfigError, RiskscaleError
from .radial import GammaPower, InvGamma, Pareto, PointMass, RadialLaw
from .samplers import _require_positive
from .tails import ClaytonSpec, MGB2Model, TailQuery, _check_limit_regime

COMMANDS = ("sample", "premium", "taildep", "verify")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description handed to the dispatcher."""

    command: str
    seed: int
    kind: str | None = None
    model: object | None = None
    n: int | None = None
    output_path: str | None = None
    x: tuple[float, ...] | None = None
    query: TailQuery | None = None
    audit: bool = False


@dataclass(frozen=True)
class DirichletModel:
    """An angular law and the independent radial law R that scales it."""

    spec: LpSpec | WeightedSpec | RandomPSpec
    radial: RadialLaw


@dataclass
class _Entry:
    value: str
    line: int
    used: bool = field(default=False)


class _Doc:
    """Parsed key table with line tracking and typed accessors."""

    def __init__(self, text: str):
        self.entries: dict[str, _Entry] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in self.entries:
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} "
                    f"(first seen on line {self.entries[key].line})"
                )
            self.entries[key] = _Entry(value, lineno)

    def take(self, key: str, required: bool = True) -> str | None:
        entry = self.entries.get(key)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return None
        entry.used = True
        return entry.value

    def fail(self, key: str, message: str):
        entry = self.entries.get(key)
        where = f"line {entry.line}: " if entry else ""
        raise ConfigError(f"{where}{key}: {message}")

    def reject_unused(self):
        for key, entry in self.entries.items():
            if not entry.used:
                raise ConfigError(f"line {entry.line}: unknown key {key!r}")


def _read(doc: _Doc, key: str, convert: Callable[[str], object], expected: str,
          required: bool = True):
    """``convert`` of the value of ``key``, or None when an optional key is
    missing; a ValueError from ``convert`` fails on the key's line."""
    raw = doc.take(key, required)
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        doc.fail(key, f"expected {expected}, got {raw!r}")


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(raw)
    return lowered in ("true", "yes", "1")


def _to_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


def _to_matrix(raw: str) -> list[list[float]]:
    return [[float(v) for v in row.split(",")] for row in raw.split(";")]


_parse_float = partial(_read, convert=float, expected="a number")
_parse_int = partial(_read, convert=int, expected="an integer")
_parse_bool = partial(_read, convert=_to_bool, expected="true/false")
_parse_floats = partial(_read, convert=_to_floats, expected="comma-separated numbers")


def _parse_matrix(doc: _Doc, key: str) -> list[list[float]]:
    rows = _read(doc, key, _to_matrix, "rows like '1,0;0,1'")
    if len({len(r) for r in rows}) != 1:
        doc.fail(key, "rows have unequal lengths")
    return rows


_LAW_ARITY = {
    "point_mass": (PointMass, 1),
    "gamma_power": (GammaPower, 3),
    # the chi(df) radius: the square root of a Gamma(df/2, rate 1/2) draw
    "chi_square_sqrt": (lambda df: GammaPower(_require_positive("df", df) / 2.0, 0.5, 0.5), 1),
    "pareto": (Pareto, 1),
    "inv_gamma": (InvGamma, 1),
}


def _parse_law(doc: _Doc, key: str) -> RadialLaw:
    raw = doc.take(key)
    name, _, params = raw.partition(":")
    name = name.strip()
    if name not in _LAW_ARITY:
        doc.fail(key, f"unknown law {name!r}; choose from {sorted(_LAW_ARITY)}")
    cls, arity = _LAW_ARITY[name]
    try:
        values = [float(v) for v in params.split(",")] if params else []
    except ValueError:
        doc.fail(key, f"law parameters must be numbers, got {params!r}")
    if len(values) != arity:
        doc.fail(key, f"{name} takes {arity} parameter(s), got {len(values)}")
    try:
        return cls(*values)
    except RiskscaleError as exc:
        doc.fail(key, str(exc))


def _parse_lp(doc: _Doc) -> LpSpec:
    return LpSpec(alphas=_parse_floats(doc, "model.alphas"),
                  p=_parse_float(doc, "model.p"))


def _dirichlet(parse_spec: Callable[[_Doc], object]) -> Callable[[_Doc], DirichletModel]:
    return lambda doc: DirichletModel(parse_spec(doc), _parse_law(doc, "model.radial"))


@dataclass(frozen=True)
class Kind:
    """A model kind: the commands it serves, ``parse(doc)`` building its model
    from the ``model.*`` keys, ``run(config, stream)`` giving the rows that
    ``sample`` or ``premium`` writes (``taildep`` tabulates the model
    itself), and, for a kind whose rows lie on L_p spheres, the
    ``audit(config, stream)`` that gives the same rows with the exponent of
    their sphere, one for all rows or one per row, for ``sample``'s
    ``audit = true``. Each ``run`` and ``audit`` reads its function from
    that function's module at call time, so a wrapper or test double put
    there is the one that runs. The samplers take their worker count from
    RISKSCALE_THREADS.
    """

    commands: tuple[str, ...]
    parse: Callable[[_Doc], object]
    run: Callable[..., np.ndarray]
    audit: Callable[..., tuple[np.ndarray, object]] | None = None


def _sphere_kind(parse: Callable[[_Doc], object],
                 rows_and_exponents: Callable[..., tuple[np.ndarray, object]]) -> Kind:
    """A ``sample`` kind whose ``audit`` is ``rows_and_exponents`` and whose
    ``run`` keeps its rows."""
    return Kind(("sample",), parse, lambda c, s: rows_and_exponents(c, s)[0],
                audit=rows_and_exponents)


KINDS = {
    "lp_dirichlet": _sphere_kind(
        _dirichlet(_parse_lp),
        lambda c, s: (dirichlet.lp_dirichlet_sample(c.model.spec, c.model.radial, c.n, s),
                      c.model.spec.p)),
    "weighted_dirichlet": _sphere_kind(
        _dirichlet(lambda doc: WeightedSpec(base=_parse_lp(doc),
                                            qs=_parse_floats(doc, "model.qs"))),
        lambda c, s: (dirichlet.weighted_sample(c.model.spec, c.model.radial, c.n, s),
                      c.model.spec.p)),
    "random_p_dirichlet": _sphere_kind(
        _dirichlet(lambda doc: RandomPSpec(alphas=_parse_floats(doc, "model.alphas"),
                                           p_law=_parse_law(doc, "model.p_law"))),
        lambda c, s: dirichlet.random_p_sample(c.model.spec, c.model.radial, c.n, s)),
    "mgb2": Kind(
        ("sample", "taildep"),
        lambda doc: MGB2Model(a=_parse_floats(doc, "model.a"),
                              b=_parse_floats(doc, "model.b"),
                              p=_parse_floats(doc, "model.p"),
                              theta_law=_parse_law(doc, "model.theta")),
        lambda c, s: tails.mgb2_sample(c.model, c.n, s)),
    "clayton": Kind(
        ("sample",),
        lambda doc: ClaytonSpec(theta_shape=_parse_float(doc, "model.theta_shape"),
                                d=_parse_int(doc, "model.d")),
        lambda c, s: tails.scale_mixture_exp_sample(c.model, c.n, s)),
    "gaussian_shift": Kind(
        ("premium",),
        lambda doc: GaussianShiftModel(mu=_parse_floats(doc, "model.mu"),
                                       sigma=_parse_matrix(doc, "model.sigma"),
                                       sigma0=_parse_matrix(doc, "model.sigma0")),
        lambda c, s: np.atleast_2d(credibility.premium_gaussian(c.model, c.x))),
    "elliptical_shift": Kind(
        ("premium",),
        lambda doc: EllipticalShiftModel(c=_parse_matrix(doc, "model.c"),
                                         nu=_parse_floats(doc, "model.nu")),
        lambda c, s: np.atleast_2d(credibility.premium_elliptical(c.model, c.x))),
}


# the file keys of the parameters not named model.<param>
_PARAM_KEYS = {"theta_law": "model.theta", "C": "model.c",
               "c1": "c1", "c2": "c2", "t_grid": "t_grid"}


def _fail_on_param(doc: _Doc, exc: RiskscaleError):
    """Re-raise ``exc`` as a ConfigError on the line of the key its ``param``
    names (a model parameter's ``model.*`` key, or a taildep query key), or
    as a ``model:`` error when no single key of the file owns it."""
    key = _PARAM_KEYS.get(exc.param, f"model.{exc.param}")
    if exc.param is not None and key in doc.entries:
        doc.fail(key, str(exc))
    raise ConfigError(f"model: {exc}") from exc


def _build_model(doc: _Doc, command: str) -> tuple[str, object]:
    """The kind named by ``model.kind`` and its model, checked to serve ``command``."""
    kind = doc.take("model.kind")
    allowed = tuple(name for name, entry in KINDS.items() if command in entry.commands)
    if kind not in allowed:
        doc.fail("model.kind",
                 f"kind {kind!r} is not valid for {command!r}; choose from {allowed}")
    try:
        return kind, KINDS[kind].parse(doc)
    except ConfigError:
        raise
    except RiskscaleError as exc:
        _fail_on_param(doc, exc)


def _parse_query(doc: _Doc, model: MGB2Model, n: int) -> TailQuery:
    """The taildep query of c1, c2, t_grid and n; fails on the offending line
    unless the model is in the joint tail limit's regime and the values
    build a :class:`TailQuery`."""
    c1 = _parse_float(doc, "c1")
    c2 = _parse_float(doc, "c2")
    t_grid = _parse_floats(doc, "t_grid")
    try:
        _check_limit_regime(model)
        return TailQuery(c1=c1, c2=c2, t_grid=t_grid, n=n)
    except RiskscaleError as exc:
        _fail_on_param(doc, exc)


def parse_config(text: str, command: str | None = None,
                 seed: int | None = None, output_path: str | None = None) -> RunConfig:
    """Parse and validate a configuration document.

    ``command``, ``seed``, and ``output_path`` may be supplied by the caller
    (the command line); file keys must agree with a caller-supplied command.
    A seed from either source must lie in [0, 2**64).
    """
    doc = _Doc(text)

    file_command = doc.take("command", required=False)
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        doc.fail("command",
                 f"file says {file_command!r} but {command!r} was requested")
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")

    file_seed = _parse_int(doc, "seed", required=False)
    if file_seed is not None and not 0 <= file_seed < 2**64:
        doc.fail("seed", f"must lie in [0, 2**64), got {file_seed}")
    if seed is None:
        seed = file_seed
    elif not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    if seed is None:
        raise ConfigError("missing required key 'seed'")

    out = doc.take("out", required=False)
    if output_path is not None:
        out = output_path

    kind = model = n = x = query = None
    audit = False
    if command == "verify":
        # the suite and its scipy oracles load here, in set-up, not in the run
        from . import verify  # noqa: F401
    else:
        kind, model = _build_model(doc, command)
    if command in ("sample", "taildep"):
        n = _parse_int(doc, "n")
        if n < 1:
            doc.fail("n", f"must be >= 1, got {n}")
    if command == "sample":
        audit = bool(_parse_bool(doc, "audit", required=False))
        if audit and not (KINDS[kind].audit and isinstance(model.radial, PointMass)):
            doc.fail("audit", "sphere audit needs a Dirichlet kind with a "
                              "point_mass radial law")
    elif command == "premium":
        x = _parse_floats(doc, "x")
        if not np.isfinite(x).all():
            doc.fail("x", f"entries must be finite numbers, got {x}")
        if len(x) != model.dim:
            doc.fail("x", f"length {len(x)} does not match model dimension {model.dim}")
    elif command == "taildep":
        query = _parse_query(doc, model, n)

    doc.reject_unused()
    return RunConfig(command=command, seed=seed, kind=kind, model=model, n=n,
                     output_path=out, x=x, query=query, audit=audit)
