"""Run the documented interactive examples."""

import doctest

from zerohecke import hecke, kmodule, rootdata, weyl


def test_rootdata_doctests():
    assert doctest.testmod(rootdata).failed == 0


def test_weyl_doctests():
    assert doctest.testmod(weyl).failed == 0


def test_kmodule_doctests():
    result = doctest.testmod(kmodule)
    assert result.failed == 0 and result.attempted > 0


def test_hecke_doctests():
    assert doctest.testmod(hecke).failed == 0
