"""Config files, shipped data, and the field cache."""

import dataclasses
import json

import pytest

from a4census.config import (
    CACHE_VERSION,
    TABLE_CHECKPOINTS,
    Config,
    cache_read,
    cache_write,
    golden_rows,
    read_config,
    shipped_config,
)


def test_read_config_full(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[conductor]\n"
        "ell = 163\n"
        "cubic_poly = -1 -14 -11 1\n"
        "quartic_poly = 9, -2, -7, 1, 1\n"
        "units = 1 0 0 0; 0 1 0 0\n"
    )
    cfg = read_config(path)
    assert cfg.ell == 163
    assert cfg.cubic_poly == (-1, -14, -11, 1)
    assert cfg.quartic_poly == (9, -2, -7, 1, 1)
    assert cfg.units == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_read_config_minimal(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text("[conductor]\nell = 349\n")
    cfg = read_config(path)
    assert cfg.ell == 349
    assert cfg.cubic_poly is None


def test_read_config_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_config(tmp_path / "absent.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[census]\nmax_v = 5\n")
    with pytest.raises(ValueError):
        read_config(bad)


@pytest.mark.parametrize(
    "text, section, key",
    [
        ("[conductor]\nell = 163\nquartic = 9 -2 -7 1 1\n", "conductor", "quartic"),
        ("[conductor]\nell = 163\ncondition3 = true\n", "conductor", "condition3"),
    ],
)
def test_read_config_rejects_unknown_keys(tmp_path, text, section, key):
    path = tmp_path / "u.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"'{key}' in section \[{section}\]"):
        read_config(path)


def test_read_config_requires_ell(tmp_path):
    path = tmp_path / "e.ini"
    path.write_text("[conductor]\ncubic_poly = -1 -14 -11 1\n")
    with pytest.raises(ValueError, match=r"e\.ini: missing key 'ell'"):
        read_config(path)


@pytest.mark.parametrize(
    "section, body",
    [("census", "seed = 9\n"), ("output", "fmt = csv\n"), ("run", "workers = 2\n")],
    ids=["census", "output", "run"],
)
def test_read_config_rejects_unknown_section(tmp_path, section, body):
    # a conductor INI describes the conductor only; the census run is set
    # on the command line
    path = tmp_path / "s.ini"
    path.write_text(f"[conductor]\nell = 163\n[{section}]\n{body}")
    with pytest.raises(ValueError, match=rf"s\.ini: unknown section \[{section}\]"):
        read_config(path)


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_shipped_configs(ell):
    cfg = shipped_config(ell)
    assert cfg.ell == ell
    assert cfg.cubic_poly is not None
    assert cfg.quartic_poly is not None
    assert cfg.units is None


def test_shipped_config_missing():
    with pytest.raises(FileNotFoundError):
        shipped_config(7)


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_golden_rows_shape(ell):
    rows = golden_rows(ell)
    assert rows[0].startswith("n,c3,")
    first = rows[1].split(",")
    assert int(first[0]) == 1000
    bounds = [int(r.split(",")[0]) for r in rows[1:]]
    assert bounds == sorted(bounds)
    assert set(bounds) <= set(TABLE_CHECKPOINTS)


def test_cache_roundtrip_and_version_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("A4CENSUS_CACHE", str(tmp_path))
    assert cache_read(163) is None
    cache_write(163, {"payload": [1, 2, 3]})
    data = cache_read(163)
    assert data["payload"] == [1, 2, 3]
    assert data["version"] == CACHE_VERSION

    # stale version is ignored
    stale = dict(data)
    stale["version"] = CACHE_VERSION + 1
    (tmp_path / "conductor_163.json").write_text(json.dumps(stale))
    assert cache_read(163) is None

    # corrupted file is ignored
    (tmp_path / "conductor_163.json").write_text("{not json")
    assert cache_read(163) is None

    # mismatched conductor is ignored
    cache_write(277, {"payload": []})
    (tmp_path / "conductor_163.json").write_text((tmp_path / "conductor_277.json").read_text())
    assert cache_read(163) is None


def test_config_defaults():
    cfg = Config(ell=163)
    assert cfg.use_cache is True
    assert [f.name for f in dataclasses.fields(Config)] == [
        "ell", "cubic_poly", "quartic_poly", "units", "use_cache"
    ]
