"""Fixtures shared by more than one test module."""

import pytest


@pytest.fixture(scope="session")
def event_log_pass():
    """test_simnet's export pass, made once per session: test_simnet checks
    its reference export and census, test_wire_view its wire pins."""
    from test_simnet import export_pass
    return export_pass()
