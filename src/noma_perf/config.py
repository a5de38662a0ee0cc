"""Flat key = value run configuration for the command line tools.

Grammar: UTF-8 text, whatever the locale, with one `key = value` pair per
line; `#` starts a comment, blank lines are ignored. List-valued keys take
comma-separated entries. Unknown keys are rejected. Axis values keep their
original tokens so sweep output echoes exactly what was configured.
"""

import math
from types import SimpleNamespace

from .channel import SystemConfig

DEFAULT_SEED = 1234567

# config key -> the SystemConfig field it sets; rho_db sets rho in decibels
_FIELDS = {"d": "D", "eta": "eta", "k": "K", "r_m": "R_M", "sigma2": "sigma2_zeta",
           "csi": "csi_mode", "rho_db": "rho"}

# sweep axis -> (CSV axis name, list key, entry type, the key an entry sets)
AXES = {"snr": ("snr_db", "snr_db", float, "rho_db"),
        "sigma2": ("sigma2", "sigma2_values", float, "sigma2"),
        "k": ("k", "k_values", int, "k")}

# list key -> the type every entry must parse as; every other key parses as
# the type of its default
LIST_KEYS = {key: kind for _, key, kind, _ in AXES.values()}

# every config key and its default: a _FIELDS key takes its field's (rho_db
# in decibels), and a list key's default is its text in a file
_DEFAULTS = {
    **{key: SystemConfig._field_defaults[field] for key, field in _FIELDS.items()},
    "rho_db": 10.0 * math.log10(SystemConfig._field_defaults["rho"]),
    "snr_db": "0,5,10,15,20,25,30,35,40", "sigma2_values": "0,0.005,0.01,0.02",
    "k_values": "2,4,6,8", "trials": 100_000, "seed": DEFAULT_SEED, "workers": 1,
    "out": "sweep.csv",
}


class ConfigError(Exception):
    pass


class Settings(SimpleNamespace):
    """One attribute per config key, set to its default; a list key holds
    its raw tokens in a list of its own. Compares by value."""

    def __init__(self):
        super().__init__(**{key: value.split(",") if key in LIST_KEYS else value
                            for key, value in _DEFAULTS.items()})


def parse_config(path: str) -> Settings:
    settings = Settings()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for '{key}'")
        try:
            if key in LIST_KEYS:
                tokens = [t.strip() for t in value.split(",") if t.strip()]
                if not tokens:
                    raise ValueError("empty list")
                for t in tokens:
                    LIST_KEYS[key](t)
                setattr(settings, key, tokens)
            else:
                setattr(settings, key, type(_DEFAULTS[key])(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
    return settings


def system_config(settings: Settings, **override) -> SystemConfig:
    """Materialize a SystemConfig, optionally overriding keys of _FIELDS (one swept quantity)."""
    unknown = sorted(override.keys() - _FIELDS.keys())
    if unknown:
        raise TypeError(f"system_config() got unexpected keyword arguments {unknown}")
    fields = {field: override.get(key, getattr(settings, key)) for key, field in _FIELDS.items()}
    rho_db = fields["rho"]
    try:
        fields["rho"] = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        fields["rho"] = math.inf
    if not 0.0 < fields["rho"] < math.inf:  # nan too
        raise ConfigError(f"rho_db = {rho_db:g} gives no finite positive linear SNR")
    try:
        return SystemConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
