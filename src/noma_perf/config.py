"""Flat key = value run configuration for the command line tools.

Grammar: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored. List-valued keys take comma-separated entries. Unknown keys are
rejected. Axis values keep their original tokens so sweep output echoes
exactly what was configured.
"""

from types import SimpleNamespace

from .channel import CSI_MODES, SystemConfig
from .montecarlo import BATCH_ELEMENTS

DEFAULT_SEED = 1234567

# list key -> the type every entry must parse as; every other key parses as
# the type of its default
LIST_KEYS = {"snr_db": float, "sigma2_values": float, "k_values": int}

# every config key and its default; a list key's default is its text in a file
_DEFAULTS = {
    "d": 5.0, "eta": 2.0, "k": 8, "r_m": 0.5, "sigma2": 0.01, "csi": "imperfect", "rho_db": 30.0,
    "snr_db": "0,5,10,15,20,25,30,35,40",
    "sigma2_values": "0,0.005,0.01,0.02", "k_values": "2,4,6,8",
    "trials": 100_000, "seed": DEFAULT_SEED, "workers": 1, "out": "sweep.csv",
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
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
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

    if settings.csi not in CSI_MODES:
        raise ConfigError(f"csi must be one of {CSI_MODES}")
    if settings.csi == "perfect":
        settings.sigma2 = 0.0
    return settings


def system_config(settings: Settings, rho_db=None, sigma2=None, k=None) -> SystemConfig:
    """Materialize a SystemConfig, optionally overriding one swept quantity."""
    rho_db = settings.rho_db if rho_db is None else rho_db
    try:
        config = SystemConfig(
            K=settings.k if k is None else k,
            D=settings.d,
            eta=settings.eta,
            rho=10.0 ** (rho_db / 10.0),
            R_M=settings.r_m,
            sigma2_zeta=settings.sigma2 if sigma2 is None else sigma2,
            csi_mode=settings.csi,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:
        raise ConfigError(f"rho_db = {rho_db:g} overflows the linear SNR") from exc
    if config.K > BATCH_ELEMENTS:  # one Monte Carlo row of K gains must fit a batch
        raise ConfigError(f"K must be at most {BATCH_ELEMENTS}")
    return config
