"""Run configuration: YAML parsing, validation, and serialization.

The numerics of a run are one ``RunSettings``; its fields carry the defaults.
A section or key the parser does not read is refused, so a misspelt or
retired key cannot silently leave a setting at its default.  A key may not
be blank, a numeric key must be a number (not "128"; 1e-6 reads as a float,
as in YAML 1.2), and a real-valued key a finite one: .nan, .inf and
booleans are refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import yaml

from .asymptotic import (
    AsymptoticDatum,
    ClassParameters,
    load_tabulated_grid,
    make_gaussian_cosine_datum,
)
from .errors import ConfigError, ParameterError
from .scheme import RunSettings

# (section, YAML key, RunSettings field, type) of every numeric setting;
# run.mode maps to RunSettings.exploratory.
SETTINGS_KEYS = (
    ("grid", "nx", "nx", int),
    ("grid", "nv", "nv", int),
    ("grid", "nt", "nt", int),
    ("grid", "vmax", "vmax", float),
    ("grid", "T", "horizon", float),
    ("solver", "fixed_point_tol", "fixed_point_tol", float),
    ("solver", "max_iterations", "max_iterations", int),
)
# The keys of the other sections: the datum's by family, the class parameters
# and the run's.
DATUM_KEYS = {
    "gaussian-cosine": ("family", "amplitude", "sigma"),
    "tabulated-grid": ("family", "path"),
}
CLASS_KEYS = ("a", "a1", "a2", "alpha", "t0")
RUN_KEYS = ("mode", "out", "seed")


@dataclass(frozen=True)
class DatumSpec:
    family: str
    amplitude: float = 0.0
    sigma: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class RunConfig:
    datum: DatumSpec
    klass: ClassParameters
    settings: RunSettings
    out_dir: str | None = None
    seed: int = 0

    @property
    def mode(self) -> str:
        return "exploratory" if self.settings.exploratory else "theorem"


_REQUIRED = object()


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads an exponent without a decimal point (1e-6) as a float."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"), "-+0123456789")


def _get(section: dict, section_name: str, key: str, typ, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing mandatory key {section_name}.{key}", key=f"{section_name}.{key}")
        return default
    val = section[key]
    try:
        if val is None or (typ is not str and (isinstance(val, bool) or not isinstance(val, (int, float)))):
            raise ValueError
        if typ is int:
            if int(val) != val:
                raise ValueError
            return int(val)
        if typ is float and not math.isfinite(val):
            raise ValueError
        return typ(val)
    except (TypeError, ValueError, OverflowError):
        expected = "finite float" if typ is float else typ.__name__
        raise ConfigError(
            f"key {section_name}.{key} has invalid value {val!r} (expected {expected})",
            key=f"{section_name}.{key}",
        ) from None


def _check_settings(s: RunSettings, klass: ClassParameters) -> None:
    for key, least in (("nx", 8), ("nv", 2), ("nt", 2)):
        if getattr(s, key) < least:
            raise ConfigError(f"grid.{key} must be >= {least}", key=f"grid.{key}")
    for key in ("nx", "nv"):
        if getattr(s, key) % 2 != 0:
            raise ConfigError(f"grid.{key} must be even", key=f"grid.{key}")
    if s.vmax is not None and s.vmax <= 0:
        raise ConfigError("grid.vmax must be positive", key="grid.vmax")
    if s.horizon is not None and s.horizon <= klass.t0:
        raise ConfigError("grid.T must exceed class.t0", key="grid.T")
    if s.fixed_point_tol <= 0:
        raise ConfigError("solver.fixed_point_tol must be positive", key="solver.fixed_point_tol")
    if s.max_iterations < 1:
        raise ConfigError("solver.max_iterations must be >= 1", key="solver.max_iterations")


def _refuse_unknown_keys(doc: dict, family: str) -> None:
    """Raise ConfigError naming the first section or dotted key the parser does not read."""
    known = {"datum": DATUM_KEYS[family], "class": CLASS_KEYS, "run": RUN_KEYS}
    for section, key, _, _ in SETTINGS_KEYS:
        known[section] = known.get(section, ()) + (key,)
    for name, section in doc.items():
        if name not in known:
            raise ConfigError(f"unknown section {name!r}", key=str(name))
        if section is not None and not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping", key=str(name))
        for key in section or {}:
            if key not in known[name]:
                raise ConfigError(f"unknown key {name}.{key}", key=f"{name}.{key}")


def parse_config(text: str) -> RunConfig:
    """Parse a YAML configuration document into a validated RunConfig."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")

    for name in ("datum", "class"):
        if name not in doc or not isinstance(doc[name], dict):
            raise ConfigError(f"missing mandatory section {name!r}", key=name)

    d = doc["datum"]
    family = _get(d, "datum", "family", str)
    if family not in DATUM_KEYS:
        raise ConfigError(f"unknown datum.family {family!r}", key="datum.family")
    _refuse_unknown_keys(doc, family)
    if family == "gaussian-cosine":
        datum = DatumSpec(
            family=family,
            amplitude=_get(d, "datum", "amplitude", float),
            sigma=_get(d, "datum", "sigma", float),
        )
    else:
        datum = DatumSpec(family=family, path=_get(d, "datum", "path", str))

    c = doc["class"]
    try:
        klass = ClassParameters(**{key: _get(c, "class", key, float) for key in CLASS_KEYS})
    except ParameterError as exc:
        raise ConfigError(f"class parameters invalid: {exc}", key="class") from exc

    given = {}
    for section, key, name, typ in SETTINGS_KEYS:
        values = doc.get(section, {}) or {}
        if key in values:
            given[name] = _get(values, section, key, typ)

    r = doc.get("run", {}) or {}
    if "mode" in r:
        mode = _get(r, "run", "mode", str)
        if mode not in ("theorem", "exploratory"):
            raise ConfigError(f"run.mode must be 'theorem' or 'exploratory', got {mode!r}", key="run.mode")
        given["exploratory"] = mode == "exploratory"
    settings = RunSettings(**given)
    _check_settings(settings, klass)

    return RunConfig(
        datum=datum,
        klass=klass,
        settings=settings,
        out_dir=_get(r, "run", "out", str, None),
        seed=_get(r, "run", "seed", int, RunConfig.seed),
    )


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig back to YAML; parse(serialize(parse(x))) is the identity."""
    doc: dict = {
        "datum": {"family": config.datum.family},
        "class": {key: getattr(config.klass, key) for key in CLASS_KEYS},
        "run": {"mode": config.mode, "seed": config.seed},
    }
    if config.datum.family == "gaussian-cosine":
        doc["datum"]["amplitude"] = config.datum.amplitude
        doc["datum"]["sigma"] = config.datum.sigma
    else:
        doc["datum"]["path"] = config.datum.path
    for section, key, name, _ in SETTINGS_KEYS:
        value = getattr(config.settings, name)
        if value is not None:
            doc.setdefault(section, {})[key] = value
    if config.out_dir is not None:
        doc["run"]["out"] = config.out_dir
    return yaml.safe_dump(doc, sort_keys=True)


def build_datum(config: RunConfig) -> AsymptoticDatum:
    """Construct the asymptotic datum described by the configuration."""
    if config.datum.family == "gaussian-cosine":
        return make_gaussian_cosine_datum(config.datum.amplitude, config.datum.sigma, config.klass)
    return load_tabulated_grid(config.datum.path, config.klass)
