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
from typing import Callable

import numpy as np

from . import credibility, dirichlet, tails
from .credibility import EllipticalShiftModel, GaussianShiftModel
from .dirichlet import LpSpec, RandomPSpec, WeightedSpec
from .errors import ConfigError, ParameterError, RiskscaleError, UnsupportedModelError
from .radial import ChiSquareSqrt, GammaPower, InvGamma, Pareto, PointMass, RadialLaw
from .samplers import _require_positive
from .tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    _check_limit_regime,
    _check_limit_shape,
)

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


def _parse_float(doc: _Doc, key: str, required=True) -> float | None:
    raw = doc.take(key, required)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        doc.fail(key, f"expected a number, got {raw!r}")


def _parse_int(doc: _Doc, key: str, required=True) -> int | None:
    raw = doc.take(key, required)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        doc.fail(key, f"expected an integer, got {raw!r}")


def _parse_bool(doc: _Doc, key: str) -> bool:
    raw = doc.take(key, required=False)
    if raw is None:
        return False
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    doc.fail(key, f"expected true/false, got {raw!r}")


def _parse_floats(doc: _Doc, key: str, required=True) -> tuple[float, ...] | None:
    raw = doc.take(key, required)
    if raw is None:
        return None
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        doc.fail(key, f"expected comma-separated numbers, got {raw!r}")


def _parse_matrix(doc: _Doc, key: str) -> list[list[float]]:
    raw = doc.take(key)
    try:
        rows = [[float(v) for v in row.split(",")] for row in raw.split(";")]
    except ValueError:
        doc.fail(key, f"expected rows like '1,0;0,1', got {raw!r}")
    if len({len(r) for r in rows}) != 1:
        doc.fail(key, "rows have unequal lengths")
    return rows


_LAW_ARITY = {
    "point_mass": (PointMass, 1),
    "gamma_power": (GammaPower, 3),
    "chi_square_sqrt": (ChiSquareSqrt, 1),
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
    from the ``model.*`` keys, ``run(config, stream, workers)`` giving the
    rows that ``sample`` or ``premium`` writes (``taildep`` tabulates the
    model itself), and whether ``sample`` can audit its rows on the sphere.
    Each ``run`` reads its function from that function's module at call
    time, so a wrapper or test double put there is the one that runs.
    """

    commands: tuple[str, ...]
    parse: Callable[[_Doc], object]
    run: Callable[..., np.ndarray]
    audit: bool = False


KINDS = {
    "lp_dirichlet": Kind(
        ("sample",), _dirichlet(_parse_lp),
        lambda c, s, w: dirichlet.lp_dirichlet_sample(c.model.spec, c.model.radial,
                                                      c.n, s, w),
        audit=True),
    "weighted_dirichlet": Kind(
        ("sample",),
        _dirichlet(lambda doc: WeightedSpec(base=_parse_lp(doc),
                                            qs=_parse_floats(doc, "model.qs"))),
        lambda c, s, w: dirichlet.weighted_sample(c.model.spec, c.model.radial, c.n, s, w),
        audit=True),
    "random_p_dirichlet": Kind(
        ("sample",),
        _dirichlet(lambda doc: RandomPSpec(alphas=_parse_floats(doc, "model.alphas"),
                                           p_law=_parse_law(doc, "model.p_law"))),
        lambda c, s, w: dirichlet.random_p_sample(c.model.spec, c.model.radial, c.n, s, w)),
    "mgb2": Kind(
        ("sample", "taildep"),
        lambda doc: MGB2Model(a=_parse_floats(doc, "model.a"),
                              b=_parse_floats(doc, "model.b"),
                              p=_parse_floats(doc, "model.p"),
                              theta_law=_parse_law(doc, "model.theta")),
        lambda c, s, w: tails.mgb2_sample(c.model, c.n, s, w)),
    "clayton": Kind(
        ("sample",),
        lambda doc: ClaytonSpec(theta_shape=_parse_float(doc, "model.theta_shape"),
                                d=_parse_int(doc, "model.d")),
        lambda c, s, w: tails.scale_mixture_exp_sample(c.model, c.n, s, w)),
    "gaussian_shift": Kind(
        ("premium",),
        lambda doc: GaussianShiftModel(mu=_parse_floats(doc, "model.mu"),
                                       sigma=_parse_matrix(doc, "model.sigma"),
                                       sigma0=_parse_matrix(doc, "model.sigma0")),
        lambda c, s, w: np.atleast_2d(credibility.premium_gaussian(c.model, c.x))),
    "elliptical_shift": Kind(
        ("premium",),
        lambda doc: EllipticalShiftModel(c=_parse_matrix(doc, "model.c"),
                                         nu=_parse_floats(doc, "model.nu"),
                                         radial=_parse_law(doc, "model.radial")),
        lambda c, s, w: np.atleast_2d(credibility.premium_elliptical(c.model, c.x))),
}


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
        # an error pinned on one parameter fails on its model.* key's line
        param = getattr(exc, "param", None)
        key = {"theta_law": "model.theta", "C": "model.c"}.get(param, f"model.{param}")
        if param is not None and key in doc.entries:
            doc.fail(key, str(exc))
        raise ConfigError(f"model: {exc}") from exc


def _parse_query(doc: _Doc, model: MGB2Model, n: int) -> TailQuery:
    """The taildep query of c1, c2, t_grid and n; fails on the offending line
    unless the model is in the joint tail limit's regime and the values
    build a :class:`TailQuery`."""
    c1 = _parse_float(doc, "c1")
    c2 = _parse_float(doc, "c2")
    t_grid = _parse_floats(doc, "t_grid")
    for key, check in (("model.a", _check_limit_shape),
                       ("model.theta", _check_limit_regime)):
        try:
            check(model)
        except UnsupportedModelError as exc:
            doc.fail(key, str(exc))
    for key, value in (("c1", c1), ("c2", c2)):
        try:
            _require_positive(key, value)
        except ParameterError as exc:
            doc.fail(key, str(exc))
    try:
        return TailQuery(c1=c1, c2=c2, t_grid=t_grid, n=n)
    except ParameterError as exc:  # c1, c2 and n passed: the grid is at fault
        doc.fail("t_grid", str(exc))


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
    if command != "verify":
        kind, model = _build_model(doc, command)
    if command in ("sample", "taildep"):
        n = _parse_int(doc, "n")
        if n < 1:
            doc.fail("n", f"must be >= 1, got {n}")
    if command == "sample":
        audit = _parse_bool(doc, "audit")
        if audit and not (KINDS[kind].audit and isinstance(model.radial, PointMass)):
            doc.fail("audit", "sphere audit needs a fixed-exponent Dirichlet "
                              "kind with a point_mass radial law")
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
