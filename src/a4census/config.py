"""Conductor configuration, the field-data cache, and golden table access.

A config is an INI file with one section, [conductor], which describes
the conductor only: ell is required, and polynomial or unit overrides
are re-verified on load, never trusted.  How far a census runs, on how
many workers and where it writes are set on the command line alone.
Cached field records are JSON, versioned, and re-checked on read, so a
stale or edited cache can slow a run down but never corrupt it.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

CACHE_ENV = "A4CENSUS_CACHE"
CACHE_VERSION = 1

TABLE_CHECKPOINTS = (
    10**3,
    5 * 10**3,
    5 * 10**4,
    10**5,
    4 * 10**5,
    5 * 10**5,
    10**6,
    10**7,
    5 * 10**7,
    10**8,
)


@dataclass
class Config:
    ell: int
    cubic_poly: tuple = None
    quartic_poly: tuple = None
    units: tuple = None  # tuple of coordinate tuples over the integral basis of F
    use_cache: bool = True


# Every key read_config understands; anything else is rejected, not ignored.
_KNOWN_KEYS = {"ell", "cubic_poly", "quartic_poly", "units"}


def parse_ints(text: str) -> tuple:
    """Integers separated by spaces or commas."""
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def read_config(path) -> Config:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    if "conductor" not in cp:
        raise ValueError(f"{path}: missing [conductor] section")
    for name in cp.sections():
        if name != "conductor":
            raise ValueError(f"{path}: unknown section [{name}]")
    sec = cp["conductor"]
    for key in sec:
        if key not in _KNOWN_KEYS:
            raise ValueError(f"{path}: unknown key '{key}' in section [conductor]")
    if "ell" not in sec:
        raise ValueError(f"{path}: missing key 'ell' in section [conductor]")
    cfg = Config(ell=sec.getint("ell"))
    if "cubic_poly" in sec:
        cfg.cubic_poly = parse_ints(sec["cubic_poly"])
    if "quartic_poly" in sec:
        cfg.quartic_poly = parse_ints(sec["quartic_poly"])
    if "units" in sec:
        cfg.units = tuple(parse_ints(part) for part in sec["units"].split(";") if part.strip())
    return cfg


def shipped_config(ell: int) -> Config:
    """The in-repo config for a golden conductor."""
    res = resources.files(__package__) / "data" / f"conductor_{ell}.ini"
    with resources.as_file(res) as p:
        if not p.exists():
            raise FileNotFoundError(f"no shipped config for conductor {ell}")
        return read_config(p)


def conductor_config(ell: int) -> Config:
    """The shipped config for ell when there is one, else a bare Config(ell)."""
    try:
        return shipped_config(ell)
    except FileNotFoundError:
        return Config(ell=ell)


def golden_census_path(ell: int):
    return resources.files(__package__) / "data" / f"golden_{ell}.csv"


def golden_rows(ell: int):
    """Golden checkpoint rows for a shipped conductor, as raw CSV lines."""
    text = golden_census_path(ell).read_text()
    lines = [ln for ln in text.strip().splitlines() if ln]
    return lines


# ---------------------------------------------------------------------------
# Field cache: JSON records keyed by conductor, re-verified on read.


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "a4census"


def cache_read(ell: int):
    path = cache_dir() / f"conductor_{ell}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if data.get("version") != CACHE_VERSION or data.get("ell") != ell:
        return None
    return data


def cache_write(ell: int, records: dict):
    path = cache_dir() / f"conductor_{ell}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": CACHE_VERSION, "ell": ell}
        payload.update(records)
        path.write_text(json.dumps(payload, sort_keys=True))
    except OSError:
        pass  # cache is best effort
