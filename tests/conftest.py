import pytest


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    """A CASIF_CONFIG set in the shell must not reach the commands under test; tests that need it set it."""
    monkeypatch.delenv("CASIF_CONFIG", raising=False)
