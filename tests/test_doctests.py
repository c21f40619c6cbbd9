"""The examples in the module docstrings run as doctests."""

import doctest

import pytest

from tiltc import coxeter, laurent


@pytest.mark.parametrize("module", [coxeter, laurent], ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted >= 3  # the examples are found, so they are run
