import sys

import pytest
from hypothesis import settings

# keep property sweeps reproducible run to run
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def int_digits():
    """Set Python's default limit of 4300 digits on printing an int; restore the old one after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
