"""Print one line per acceptance check at the end of a run, and hold the
``hypothesis`` profiles: derandomized, with no example database and no
deadline, at a fixed number of examples, so every run draws the same
examples in bounded time.  ``marketforge`` (25 examples) is the default;
``--hypothesis-profile=marketforge-deep`` runs 500.  The few files
hypothesis still caches go to a temporary directory removed at the end of
the run, so no ``.hypothesis/`` directory is written into the checkout."""

import shutil
import tempfile

import pytest
from hypothesis import Phase, configuration, settings

PROFILE = dict(derandomize=True, database=None, deadline=None,
               phases=set(Phase) - {Phase.explain})
settings.register_profile("marketforge", max_examples=25, **PROFILE)
settings.register_profile("marketforge-deep", max_examples=500, **PROFILE)
settings.load_profile("marketforge")
HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                rows[nodeid] = status
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for nodeid in sorted(rows):
        state = "PASS" if rows[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{state}: {nodeid.split('::')[-1]}")
