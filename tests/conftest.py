import glob
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from tmisim import backend
from tmisim.sim import ScenarioConfig, run_full_session

ROOT = Path(__file__).resolve().parent.parent


def pytest_report_header(config):
    return (f"tmisim EC backend: {backend.active_name()} "
            f"(available: {', '.join(backend.available_backends())})")


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The C kernel, built by setup.py into a temporary directory and
    loaded from there, so nothing is written under src/. Compiler warnings
    fail the build, so an unused static function fails the session."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC")
                     or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler: {cc} not found")
    out = tmp_path_factory.mktemp("kernel")
    cflags = f"{os.environ.get('CFLAGS', '')} -Wall -Wextra -Werror".strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "CFLAGS": cflags})
    built = glob.glob(str(out / "tmisim" / "_speedups*.so"))
    if not built:
        pytest.fail(f"{cc} is present but the C kernel did not build:\n"
                    f"{proc.stdout}{proc.stderr}", pytrace=False)
    spec = importlib.util.spec_from_file_location("tmisim._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def outcome_a():
    """One completed session, report-key variant A. Read-only."""
    return run_full_session(ScenarioConfig(seed=1))


@pytest.fixture(scope="session")
def outcome_b():
    """One completed session, report-key variant B. Read-only."""
    return run_full_session(ScenarioConfig(seed=1, variant="B"))
