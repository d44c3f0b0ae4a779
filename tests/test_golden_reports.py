"""The bundled configs reproduce their committed reports byte for byte.

``scripts/reports/<kind>.json`` is what ``scripts/run_all_experiments.py``
writes for each config in ``scripts/configs``; any change in the last bit of
a computed value shows up here as a changed byte.
"""

import importlib.util
import pathlib

import pytest

from cocyclib.cli import emit, load_config, run

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
CONFIG_PATHS = sorted((SCRIPTS / "configs").glob("*.json"))


def test_every_kind_has_a_bundled_config():
    kinds = {load_config(str(p))["experiment"]["kind"] for p in CONFIG_PATHS}
    assert kinds == {p.stem for p in (SCRIPTS / "reports").glob("*.json")}
    assert len(kinds) == 7


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_report_matches_committed_bytes(path):
    config = load_config(str(path))
    golden = (SCRIPTS / "reports" / f"{config['experiment']['kind']}.json").read_bytes()
    assert emit(run(config), "json").encode("utf-8") == golden


def test_make_configs_regenerates_the_bundled_configs(tmp_path, monkeypatch):
    # pins the config format, table keys included, that make_configs writes
    spec = importlib.util.spec_from_file_location("make_configs",
                                                  SCRIPTS / "make_configs.py")
    make_configs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_configs)
    monkeypatch.setattr(make_configs, "OUT", tmp_path)
    make_configs.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in CONFIG_PATHS]
    for path in CONFIG_PATHS:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
