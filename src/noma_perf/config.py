"""Flat key = value run configuration for the command line tools.

Grammar: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored. List-valued keys take comma-separated entries. Unknown keys are
rejected. Axis values keep their original tokens so sweep output echoes
exactly what was configured.
"""

from dataclasses import dataclass, field
from typing import List

from .channel import CSI_MODES, DEFAULT_QUAD_ORDERS, SystemConfig

DEFAULT_SEED = 1234567

_FLOAT_KEYS = {"d", "eta", "r_m", "sigma2", "rho_db"}
_INT_KEYS = {"k", "trials", "seed", "workers", "quad_c", "quad_m", "quad_n", "quad_l", "quad_q"}
_STR_KEYS = {"csi", "out"}
# list key -> the type every entry must parse as
_LIST_KEYS = {"snr_db": float, "sigma2_values": float, "k_values": int}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | set(_LIST_KEYS)


class ConfigError(Exception):
    pass


@dataclass
class Settings:
    d: float = 5.0
    eta: float = 2.0
    k: int = 8
    r_m: float = 0.5
    sigma2: float = 0.01
    csi: str = "imperfect"
    rho_db: float = 30.0
    snr_db: List[str] = field(default_factory=lambda: "0,5,10,15,20,25,30,35,40".split(","))
    sigma2_values: List[str] = field(default_factory=lambda: "0,0.005,0.01,0.02".split(","))
    k_values: List[str] = field(default_factory=lambda: "2,4,6,8".split(","))
    trials: int = 100_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    quad_c: int = DEFAULT_QUAD_ORDERS[0]
    quad_m: int = DEFAULT_QUAD_ORDERS[1]
    quad_n: int = DEFAULT_QUAD_ORDERS[2]
    quad_l: int = DEFAULT_QUAD_ORDERS[3]
    quad_q: int = DEFAULT_QUAD_ORDERS[4]
    out: str = "sweep.csv"


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for '{key}'")
        try:
            if key in _FLOAT_KEYS:
                setattr(settings, key, float(value))
            elif key in _INT_KEYS:
                setattr(settings, key, int(value))
            elif key in _LIST_KEYS:
                tokens = [t.strip() for t in value.split(",") if t.strip()]
                if not tokens:
                    raise ValueError("empty list")
                for t in tokens:
                    _LIST_KEYS[key](t)
                setattr(settings, key, tokens)
            else:
                setattr(settings, key, value)
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
        return SystemConfig(
            K=settings.k if k is None else k,
            D=settings.d,
            eta=settings.eta,
            rho=10.0 ** (rho_db / 10.0),
            R_M=settings.r_m,
            sigma2_zeta=settings.sigma2 if sigma2 is None else sigma2,
            csi_mode=settings.csi,
            quad_orders=(settings.quad_c, settings.quad_m, settings.quad_n,
                         settings.quad_l, settings.quad_q),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:
        raise ConfigError(f"rho_db = {rho_db:g} overflows the linear SNR") from exc
