import pytest

from tmisim import backend
from tmisim.sim import ScenarioConfig, run_full_session


def pytest_report_header(config):
    header = (f"tmisim EC backend: {backend.active_name()} "
              f"(available: {', '.join(backend.available_backends())})")
    if backend._compiled_error is not None:
        header += f"; compiled kernel did not load: {backend._compiled_error!r}"
    return header


@pytest.fixture(scope="session")
def compiled_kernel():
    """The libcrypto kernel, as loaded by the backend; skips only when it
    could not load, and the report header then says why."""
    if backend._compiled is None:
        pytest.skip(f"compiled kernel did not load: {backend._compiled_error!r}")
    return backend._compiled


@pytest.fixture(scope="session")
def outcome_a():
    """One completed session, report-key variant A. Read-only."""
    return run_full_session(ScenarioConfig(seed=1))


@pytest.fixture(scope="session")
def outcome_b():
    """One completed session, report-key variant B. Read-only."""
    return run_full_session(ScenarioConfig(seed=1, variant="B"))
