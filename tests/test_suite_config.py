"""The test suite's own settings in pyproject.toml."""

import importlib


def test_a_failing_hypothesis_test_can_print_its_example():
    # hypothesis's pytest plugin imports this module to print the falsifying
    # example of a failing test; under the suite's warning filters, which
    # turn warnings into errors, that import must not raise
    importlib.import_module("hypothesis.extra._patching")
