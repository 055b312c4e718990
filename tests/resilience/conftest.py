"""Safety net: no fault plan leaks between tests."""

import pytest

from repro.resilience import clear_fault_plan


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    clear_fault_plan()
