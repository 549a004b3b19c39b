"""The shipped desk data files against the builders that generate them."""

import json
import math

import pytest

from gridftc.desk_models import _regenerate_data, data_path

REL_TOL = 1e-13


def _assert_close(got, want, where):
    """Same structure, same strings and flags, numbers within REL_TOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), \
            where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", ["desk5_plant.json", "desk5_scenario.json"])
def test_regenerated_data_matches_shipped_file(tmp_path, name):
    _regenerate_data(tmp_path)
    with open(tmp_path / name) as fh:
        got = json.load(fh)
    with data_path(name).open() as fh:
        want = json.load(fh)
    _assert_close(got, want, name)
