"""Shared test set-up: every test starts with an empty base-forest memo, so a
test that counts the searches or chart calls of one forest reads the same
numbers alone and in the full suite."""

import pytest

from planecubic import cremona


@pytest.fixture(autouse=True)
def empty_forest_memo():
    cremona._searched_forest.cache_clear()
