"""Experiment configuration: JSON ingestion, defaults, validation, echo.

A config document is plain JSON.  ``flux`` is either a builtin name
("burgers", "convex-quartic") or a list of ascending polynomial
coefficients.  Every field has a documented default so a minimal config
like {"flux": "burgers", "u_minus": 1, "u_plus": -1, "dimension": 2}
expands to a full experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .analysis import fit_window_issues
from .errors import ConfigParseError, ConfigValidationError
from .flux import (FluxSpec, ShockData, burgers_flux, convex_quartic_flux,
                   polynomial_flux, shock_issues)
from .grid import grid_issues
from .solver import p_list_issues, perturbation_issues, whole_outputs


@dataclass
class GridSpec:
    half_length: float
    n1: int = 1024
    nprime: int = 16


@dataclass
class StepperSpec:
    t_final: float = 50.0
    dt_out: float = 0.5


@dataclass
class PerturbationSpec:
    kind: str = "gaussian-bump"
    amplitude: float = 0.02
    width: float = 2.0
    # random-nonzero-mode draws the pair of mode k on transverse axis i
    # from random.Random(f"{seed}/{i}/{k}"), whatever N'
    seed: int = 12345


@dataclass
class ExperimentConfig:
    flux: object = "burgers"            # name or coefficient list
    u_minus: float = 1.0
    u_plus: float = -1.0
    dimension: int = 2
    grid: GridSpec = None
    stepper: StepperSpec = field(default_factory=StepperSpec)
    perturbation: PerturbationSpec = None
    p_list: list = field(default_factory=lambda: [2.0, 4.0, 6.0])
    out_dir: str = "shocklab-out"
    fit_window: tuple | None = None
    snapshots: bool = False

    def __post_init__(self):
        """Fill the sections whose defaults scale with the shock strength."""
        d = self.strength
        if self.grid is None:
            # tails scale like exp(-c d |x1|): the box grows as the shock weakens
            self.grid = GridSpec(half_length=max(30.0 / d, 30.0) if d > 0 else 30.0)
        if self.perturbation is None:
            self.perturbation = PerturbationSpec(amplitude=0.01 * d if d > 0 else 0.01)

    @property
    def strength(self) -> float:
        return abs(self.u_minus - self.u_plus)


def build_flux(cfg: ExperimentConfig) -> FluxSpec:
    """FluxSpec for the config, on a validity range wide enough for the run.

    The range covers [min(u_pm) - 1, max(u_pm) + 1] expanded by the
    perturbation amplitude.
    """
    amp = cfg.perturbation.amplitude
    lo = min(cfg.u_minus, cfg.u_plus) - 1.0 - amp
    hi = max(cfg.u_minus, cfg.u_plus) + 1.0 + amp
    if isinstance(cfg.flux, str):
        if cfg.flux == "burgers":
            return burgers_flux(u_lo=lo, u_hi=hi)
        if cfg.flux == "convex-quartic":
            return convex_quartic_flux(u_lo=lo, u_hi=hi)
        raise ValueError(f"unknown flux name {cfg.flux!r}")
    return polynomial_flux(cfg.flux, u_lo=lo, u_hi=hi)


def _nonfinite(obj, prefix: str = ""):
    """Dotted names of the fields of the config dataclass ``obj`` holding a
    NaN or an infinity, alone or in a list (JSON lets both through)."""
    for f in fields(obj):
        value, name = getattr(obj, f.name), prefix + f.name
        if is_dataclass(value):
            yield from _nonfinite(value, name + ".")
        elif any(isinstance(v, float) and not math.isfinite(v)
                 for v in (value if isinstance(value, (list, tuple)) else [value])):
            yield name


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Aggregate validation; raises ConfigValidationError listing every issue.

    NaNs and infinities are reported alone, one issue per field.  The other
    rules are the core's and the analysis' own checks, each issue under its
    config field.  Returns the non-fatal warnings (only a perturbation
    amplitude above a tenth of the shock strength).  Each command runs it
    once, in `experiment._prepare_out_dir`.
    """
    issues = [(name, "must be finite") for name in _nonfinite(cfg)]
    if issues:
        # every later check would misread a NaN or an infinity
        raise ConfigValidationError(issues)
    try:
        flux = build_flux(cfg)
    except ValueError as exc:
        flux = None
        issues.append(("flux", str(exc)))
    g, st, pert = cfg.grid, cfg.stepper, cfg.perturbation
    end_states = shock_issues(cfg.u_minus, cfg.u_plus)
    checks = {
        "grid.": grid_issues(cfg.dimension, g.half_length, g.n1, g.nprime),
        "": end_states + p_list_issues(cfg.p_list),
        "stepper.": whole_outputs(st.t_final, st.dt_out),
        "perturbation.": perturbation_issues(cfg.dimension, pert.kind, pert.amplitude,
                                             pert.width, pert.seed),
        "fit_": fit_window_issues(cfg.fit_window, st.t_final)}
    # each argument under its config field; the grid's dimension is top-level
    issues += [(name if name == "dimension" else section + name, rule)
               for section, found in checks.items() for name, rule in found]
    if flux is not None and not end_states \
            and not ShockData(flux, cfg.u_minus, cfg.u_plus).admissible:
        issues.append(("u_minus", "ordering is not Lax-admissible for this flux "
                                  "(need f1'(u_minus) > s > f1'(u_plus))"))
    if issues:
        raise ConfigValidationError(issues)
    if pert.amplitude > 0.1 * cfg.strength > 0.0:
        return [f"perturbation amplitude {pert.amplitude:g} exceeds a tenth of the "
                f"shock strength {cfg.strength:g}; the small-perturbation regime "
                "is not guaranteed"]
    return []


_SECTIONS = ("grid", "stepper", "perturbation")


def _checked(key: str, value, default):
    """``value`` if it has the type of the field default ``default`` (an int
    may stand for a float).  p_list and fit_window (or null) take lists of
    numbers; the flux name or coefficients are left to validate_config."""
    if key == "flux" or key == "fit_window" and value is None:
        return value
    if key in ("p_list", "fit_window"):
        if not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
            raise ConfigValidationError([(key, "must be a list of numbers")])
        return [float(v) for v in value] if key == "p_list" else tuple(map(float, value))
    kind = type(default)
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigValidationError([(key, f"must be of type {kind.__name__}")])
    return value


def _with_values(obj, doc, prefix: str, issues: list):
    """Copy of the dataclass ``obj`` with the values of ``doc`` put in; a key
    or value that fails its check is reported in ``issues`` instead."""
    if not isinstance(doc, dict):
        issues.append((prefix.rstrip("."), "must be an object"))
        return obj
    known = {f.name for f in fields(obj)}
    values = {}
    for key, value in doc.items():
        name = prefix + key
        try:
            if key not in known:
                raise ConfigValidationError([(name, "unknown config key")])
            default = getattr(obj, key)
            values[key] = (_with_values(default, value, name + ".", issues)
                           if is_dataclass(default) else _checked(name, value, default))
        except ConfigValidationError as exc:
            issues.extend(exc.issues)
    return replace(obj, **values)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON document; absent keys keep their defaults.

    The defaults are the dataclass fields'; the two sections that scale with
    the shock strength are filled at the document's end states.  Unknown
    keys and mistyped values raise ConfigValidationError.
    """
    issues: list = []
    top = {k: v for k, v in doc.items() if k not in _SECTIONS}
    cfg = replace(_with_values(ExperimentConfig(), top, "", issues),
                  grid=None, perturbation=None)
    cfg = _with_values(cfg, {k: doc[k] for k in _SECTIONS if k in doc}, "", issues)
    if issues:
        raise ConfigValidationError(issues)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc["flux"] = cfg.flux if isinstance(cfg.flux, str) else list(cfg.flux)
    doc["fit_window"] = list(cfg.fit_window) if cfg.fit_window is not None else None
    return doc


def parse_config(path) -> ExperimentConfig:
    """Load and default-fill a JSON config file, which each command then
    checks with `validate_config`; unknown keys and mistyped values raise."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path} is not well-formed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path} must hold a JSON object")
    return config_from_dict(doc)


def emit_config(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved config; parse(emit(cfg)) == cfg bit-exactly."""
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
