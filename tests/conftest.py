"""Print the acceptance criterion lines at the end of every test run.

pytest's default capture holds a passing test's output back, so without
this hook a plain run shows only the criteria that fail. The summary takes
each ``criterion N (...)`` line from the acceptance tests' captured stdout
once, in criterion order. Under ``-s`` nothing is captured and the lines
have already been printed, so the summary stays empty.

The ``tier1`` hypothesis profile draws the same examples on every run and
keeps no example database. Hypothesis still caches the constants it reads
from source files, which no setting turns off; its storage lives in a
temporary directory removed at exit, so a run leaves no ``.hypothesis/``
folder in the checkout.
"""

import re
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

CRITERION_LINE = re.compile(r"^criterion (\d+) \(")


def pytest_terminal_summary(terminalreporter):
    lines = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if not getattr(rep, "nodeid", "").startswith("tests/test_acceptance.py"):
                continue
            for line in getattr(rep, "capstdout", "").splitlines():
                if CRITERION_LINE.match(line):
                    lines.setdefault(line, int(CRITERION_LINE.match(line).group(1)))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines, key=lines.get):
            terminalreporter.write_line(line)
