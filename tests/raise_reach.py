"""Pytest plugin: every ``raise`` statement in ``src/holoflow`` is reached.

Run the tier-1 suite with it loaded::

    PYTHONPATH=src:tests python -m pytest -q -p raise_reach

It traces, with ``sys.settrace``, only the functions of the package that
hold a ``raise`` statement, and in them only the lines that start one.  At
the end of the session every raise site that no test reached, and is not in
``ALLOWED``, is listed and the run fails.  Sites reached only in a child
process do not count.  Tracing costs about 2.2 times the untraced wall time,
so the plugin is meant for a whole-suite run, not for everyday use.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

#: raise sites that may stay unreached, ``"<module>.py:<line>"`` mapped to
#: the one-line reason; an entry that a test reaches fails the run too
ALLOWED: Dict[str, str] = {}


def raise_sites(package: Path) -> Dict[str, Set[int]]:
    """The first line of every ``raise`` statement, per source file."""
    sites = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites[str(path)] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return sites


class RaiseReach:
    """The raise sites of one package and the ones the session reached."""

    def __init__(self, package: Path):
        self.package = package
        self.sites = raise_sites(package)
        self.hit: Set[Tuple[str, int]] = set()
        self.tracers: Dict[object, object] = {}  # code object -> its local tracer, or None
        self.problems: List[str] = []

    def _tracer(self, code):
        filename = os.path.realpath(code.co_filename)
        lines = self.sites.get(filename, ())
        wanted = {line for _, _, line in code.co_lines() if line in lines}
        if not wanted:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in wanted:
                self.hit.add((filename, frame.f_lineno))
                wanted.discard(frame.f_lineno)
                if not wanted:  # every site of this code reached: stop tracing it
                    self.tracers[code] = None
                    return None
            return local

        return local

    def trace(self, frame, event, arg):
        code = frame.f_code
        try:
            return self.tracers[code]
        except KeyError:
            tracer = self.tracers[code] = self._tracer(code)
            return tracer

    def unreached(self) -> List[str]:
        """``"<module>.py:<line>"`` of each site no test reached."""
        return [
            f"{Path(f).name}:{line}"
            for f, lines in self.sites.items()
            for line in sorted(lines)
            if (f, line) not in self.hit
        ]

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        unreached = self.unreached()
        reached = {f"{Path(f).name}:{line}" for f, line in self.hit}
        self.problems += [f"unreached raise site {site}" for site in unreached if site not in ALLOWED]
        self.problems += [f"allowed raise site {site} is reached" for site in ALLOWED if site in reached]
        self.problems += [
            f"allowed entry {site} names no raise site"
            for site in ALLOWED
            if site not in reached and site not in unreached
        ]
        if self.problems:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        total = sum(len(lines) for lines in self.sites.values())
        terminalreporter.section("raise sites")
        terminalreporter.write_line(
            f"{total - len(self.unreached())} of {total} raise sites in {self.package} reached"
        )
        for line in self.problems:
            terminalreporter.write_line(line)


def pytest_configure(config):
    spec = importlib.util.find_spec("holoflow")  # finds the package without importing it
    reach = RaiseReach(Path(os.path.realpath(spec.submodule_search_locations[0])))
    config.pluginmanager.register(reach, "raise_reach_tracer")
    threading.settrace(reach.trace)
    sys.settrace(reach.trace)
