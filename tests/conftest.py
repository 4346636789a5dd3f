import pytest

from tmisim import backend
from tmisim.sim import ScenarioConfig, run_full_session


def pytest_report_header(config):
    return (f"tmisim EC backend: {backend.active_name()} "
            f"(available: {', '.join(backend.available_backends())})")


@pytest.fixture(scope="session")
def outcome_a():
    """One completed session, report-key variant A. Read-only."""
    return run_full_session(ScenarioConfig(seed=1))


@pytest.fixture(scope="session")
def outcome_b():
    """One completed session, report-key variant B. Read-only."""
    return run_full_session(ScenarioConfig(seed=1, variant="B"))
