"""Algorithm specs."""

import pytest

from repro.core.algorithms import get_algorithm


def test_0c():
    spec = get_algorithm("0c")
    assert not spec.communicate
    assert not spec.sync_gradients


def test_cd0():
    spec = get_algorithm("cd-0")
    assert spec.communicate and spec.delay == 0
    assert spec.sync_gradients
    assert spec.is_synchronous
    assert spec.num_bins == 1


def test_cd5_paper_delay():
    spec = get_algorithm("cd-5")
    assert spec.delay == 5
    assert spec.num_bins == 5
    assert not spec.sync_gradients
    assert spec.display_name() == "cd-5"


def test_explicit_delay_name():
    spec = get_algorithm("cd-7")
    assert spec.delay == 7


def test_cd_zero_via_name():
    assert get_algorithm("cd-0").name == "cd-0"
    assert get_algorithm("cd-0").sync_gradients


def test_unknown():
    with pytest.raises(ValueError):
        get_algorithm("async-sgd")


def test_delay_is_spelled_out():
    """``cd-<r>`` names its delay; there is no ``cd-r`` alias and no
    negative delay."""
    for name in ("cd-r", "cd--1"):
        with pytest.raises(ValueError):
            get_algorithm(name)


def test_underscore_spelling():
    spec = get_algorithm("cd_5")
    assert (spec.name, spec.delay) == ("cd-5", 5)


def test_case_insensitive():
    assert get_algorithm("CD-0").name == "cd-0"
    assert get_algorithm("0C").name == "0c"
