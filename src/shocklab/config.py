"""Experiment configuration: JSON ingestion, defaults, validation, echo.

A config document is plain JSON.  ``flux`` is either a builtin name
("burgers", "convex-quartic") or a list of ascending polynomial
coefficients.  Every field has a documented default so a minimal config
like {"flux": "burgers", "u_minus": 1, "u_plus": -1, "dimension": 2}
expands to a full experiment.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .errors import ConfigParseError, ConfigValidationError
from .flux import (FluxSpec, ShockData, burgers_flux, convex_quartic_flux,
                   polynomial_flux)
from .grid import DIMENSIONS, MIN_N1, MIN_NPRIME
from .solver import PERTURBATION_KINDS, whole_outputs

log = logging.getLogger("shocklab")


@dataclass
class GridSpec:
    half_length: float
    n1: int = 1024
    nprime: int = 16


@dataclass
class StepperSpec:
    t_final: float = 50.0
    dt_out: float = 0.5
    cfl_safety: float = 0.8
    llf: bool = False


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
            self.grid = GridSpec(half_length=default_half_length(d))
        if self.perturbation is None:
            self.perturbation = PerturbationSpec(amplitude=0.01 * d if d > 0 else 0.01)

    @property
    def strength(self) -> float:
        return abs(self.u_minus - self.u_plus)


def default_half_length(strength: float) -> float:
    """Domain half-length rule: tails scale like exp(-c * strength * |x1|),
    so the box must grow as the shock weakens."""
    if not strength > 0.0:
        return 30.0
    return max(30.0 / strength, 30.0)


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

    NaNs and infinities are reported alone, one issue per field.  Returns a
    list of non-fatal warnings (currently only the perturbation amplitude
    knob exceeding a tenth of the shock strength).
    """
    issues = [(name, "must be finite") for name in _nonfinite(cfg)]
    if issues:
        # every later check would misread a NaN or an infinity
        raise ConfigValidationError(issues)
    warnings: list[str] = []

    flux = None
    if isinstance(cfg.flux, str) or (isinstance(cfg.flux, (list, tuple))
                                     and all(type(c) in (int, float) for c in cfg.flux)):
        try:
            flux = build_flux(cfg)
        except ValueError as exc:
            issues.append(("flux", str(exc)))
    else:
        issues.append(("flux", "must be a builtin name or a list of numbers"))

    if cfg.dimension not in DIMENSIONS:
        issues.append(("dimension", f"must be one of {DIMENSIONS}"))
    if cfg.u_minus == cfg.u_plus:
        issues.append(("u_plus", "end states must differ (degenerate shock)"))
    elif flux is not None and not ShockData(flux, cfg.u_minus, cfg.u_plus).admissible:
        issues.append(("u_minus",
                       "ordering is not Lax-admissible for this flux "
                       "(need f1'(u_minus) > s > f1'(u_plus))"))

    g = cfg.grid
    if g.half_length <= 0.0:
        issues.append(("grid.half_length", "must be positive"))
    if g.n1 < MIN_N1:
        issues.append(("grid.n1", f"need at least {MIN_N1} points"))
    if cfg.dimension >= 2 and g.nprime < MIN_NPRIME:
        issues.append(("grid.nprime", f"need at least {MIN_NPRIME} points"))

    st = cfg.stepper
    if not 0.0 < st.cfl_safety <= 1.0:
        issues.append(("stepper.cfl_safety", "must lie in (0, 1]"))
    if st.t_final <= 0.0:
        issues.append(("stepper.t_final", "must be positive"))
    if not 0.0 < st.dt_out <= st.t_final:
        issues.append(("stepper.dt_out", "must lie in (0, t_final]"))
    elif not whole_outputs(st.t_final, st.dt_out):
        issues.append(("stepper.dt_out", "must divide t_final into whole outputs"))

    pert = cfg.perturbation
    if pert.kind not in PERTURBATION_KINDS:
        issues.append(("perturbation.kind", f"must be one of {PERTURBATION_KINDS}"))
    elif pert.kind == "random-nonzero-mode" and cfg.dimension == 1:
        issues.append(("perturbation.kind",
                       "random-nonzero-mode needs a transverse direction"))
    if pert.amplitude < 0.0:
        issues.append(("perturbation.amplitude", "must be nonnegative"))
    if pert.width <= 0.0:
        issues.append(("perturbation.width", "must be positive"))
    if pert.seed < 0:
        issues.append(("perturbation.seed", "must be nonnegative"))
    if pert.amplitude > 0.1 * cfg.strength > 0.0:
        warnings.append(
            f"perturbation amplitude {pert.amplitude:g} exceeds a tenth of the "
            f"shock strength {cfg.strength:g}; the small-perturbation regime "
            "is not guaranteed")

    if not cfg.p_list or any(not p >= 1.0 for p in cfg.p_list):
        issues.append(("p_list", "need a non-empty list of exponents >= 1"))
    else:
        # each p names its norm channels f"{p:g}"; two p must not share them
        seen = {}
        for p in cfg.p_list:
            name = f"{p:g}"
            if name in seen:
                issues.append(("p_list", f"{seen[name]!r} and {p!r} share the "
                               f"channel name {name}"))
                break
            seen[name] = p
    window = cfg.fit_window
    if window is not None and (len(window) != 2
                               or not 0.0 <= window[0] < window[1] <= st.t_final):
        issues.append(("fit_window", "must be a pair 0 <= t_a < t_b <= t_final"))

    if issues:
        raise ConfigValidationError(issues)
    return warnings


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
    """Load, default-fill, and validate a JSON config file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path} is not well-formed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path} must hold a JSON object")
    cfg = config_from_dict(doc)
    for warning in validate_config(cfg):
        log.warning("%s", warning)
    return cfg


def emit_config(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved config; parse(emit(cfg)) == cfg bit-exactly."""
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
