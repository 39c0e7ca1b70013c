import pytest

from macweyl import ramyip


@pytest.fixture
def fresh_specialize():
    """specialize() with its memo cleared before and after the test, for a
    test that patches what the routes read: an earlier test's result would
    otherwise answer for the patched code."""
    ramyip._specialized.cache_clear()
    yield
    ramyip._specialized.cache_clear()
