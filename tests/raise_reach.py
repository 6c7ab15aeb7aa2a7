"""Pytest plugin: every ``raise`` statement in ``src/holoflow`` is reached,
and each one is reached through the public interface or has a reason.

``tests/conftest.py`` loads it in every tier-1 run.  Before the package is
imported it puts a finder on ``sys.meta_path`` that loads each module of
``holoflow`` from its source with a call to ``hit`` put before every
``raise`` statement, on the statement's own line, so line numbers and
tracebacks are unchanged; no bytecode is read or written for those modules.
``hit`` records the site and the outermost ``holoflow`` function on the
stack, the one the test called.

At the end of a run that collected the whole suite, with nothing
deselected, the run fails on:

- a raise site that no test reached and that is not in ``ALLOWED``;
- an ``ALLOWED`` site that is reached, or that names no site;
- a site reached only through functions other than ``cli.main`` and the
  names of ``holoflow.__all__`` (and their methods), when its enclosing
  function has no entry in ``PRIVATE``, and an entry of ``PRIVATE`` whose
  function has no such site.

A ``-k`` or single-file run prints the counts and does not fail.  Sites
reached only in a child process do not count.
"""

from __future__ import annotations

import ast
import importlib.abc
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

#: raise sites that may stay unreached, ``"<module>.py:<line>"`` mapped to
#: the one-line reason; an entry that a test reaches fails the run too
ALLOWED: Dict[str, str] = {}

#: the functions, ``"<module>.<qualname>"``, whose raise sites tests reach
#: only by calling something other than ``cli.main`` or a public name, each
#: with its one-line reason: an internal API guard, named with its public
#: caller, or an implied check, named with its proof
PRIVATE: Dict[str, str] = {
    "__init__.__getattr__": "guard: ``holoflow.<name>`` for a name outside ``__all__``, the package's own lookup",
    "cli.__getattr__": "guard: ``holoflow.cli.<name>`` besides ``derive_flow``; ``cli.main`` reads no module attribute",
    "_kernel._check_terms": "guard of ``make_rhs``; public callers ``solve_orbit`` and ``run_report``",
    "algebra.term_list": "guard; public callers ``solve_orbit`` and ``run_report``, through ``make_rhs``'s callers",
    "closed_form._Profile._check_domain": "guard of ``profile``'s evaluators; public callers ``compare``, ``run_report``",
    "closed_form._Profile.float_value_squared.value_squared": "guard, as ``_check_domain``; public caller ``run_report``",
    "closed_form.s_form": "implied check: test_closed_form.py::test_s_form_of_the_derived_system_is_the_profile_table",
    "flow._solve_linear": "implied check: ``derive_flow`` on both models, acceptance criteria 1 and 2",
    "homogeneous.invariant_d": "guard; its public caller ``derive_flow`` passes only forms on ``group_gens(model)``",
    "integrate._compile_terms": "guard of ``integrate``; public caller ``solve_orbit``",
    "verify.TrajectorySampler.__call__": "guard of a perfbench target that no command uses",
    "verify.ProfileSampler.__init__": "guard; public caller ``run_report``, which pairs one model's profile and run",
    "verify.ProfileSampler._speed": "guard of the t(s) inversion; public caller ``run_report``",
    "verify._residuals": "guard of the closure checks; public caller ``run_report``",
    "verify.check_closure": "guard of explicit sample times; public caller ``run_report``, which passes none",
    "verify.check_closure_samples": "guard; public caller ``run_report``, on runs ``Trajectory.from_csv`` gives 3 rows",
    "verify.verify_trajectory": "implied check: test_closed_form.py::test_s_form_of_the_derived_system_is_the_profile_table",
}

#: the site (file, line) of each reached raise mapped to the outermost
#: ``holoflow`` functions, ``"<module>.<qualname>"``, it was reached from
HITS: Dict[Tuple[str, int], Set[str]] = {}


def raise_sites(package: Path) -> Dict[str, Set[int]]:
    """The first line of every ``raise`` statement, per source file."""
    sites = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites[str(path)] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return sites


def functions(path: str) -> Tuple[Dict[int, str], List[Tuple[int, int, str]]]:
    """The functions of one source file: {first line: qualified name}, the
    first line being the first decorator's, as in the code object, and the
    (start, end, name) spans of their bodies, innermost last."""
    module = Path(path).stem
    first, spans = {}, []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}.{prefix}{child.name}"
                first[min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                spans.append((child.lineno, child.end_lineno, name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text(encoding="utf-8")), "")
    return first, spans


class _Marker(ast.NodeTransformer):
    """Puts ``__import__("raise_reach").hit(file, line)`` before each
    ``raise``, located on the raise's line."""

    def __init__(self, filename: str):
        self.filename = filename

    def visit_Raise(self, node):
        call = ast.parse(f"__import__('raise_reach').hit({self.filename!r}, {node.lineno})").body[0]
        for part in ast.walk(call):
            ast.copy_location(part, node)
        return [call, node]


class _MarkingLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        path = os.path.realpath(self.get_filename(fullname))
        tree = _Marker(path).visit(ast.parse(self.get_data(path), path))
        return compile(ast.fix_missing_locations(tree), path, "exec", dont_inherit=True)


class _MarkingFinder(importlib.abc.MetaPathFinder):
    """Gives the marking loader to the modules of one package directory."""

    def __init__(self, files: Set[str]):
        self.files = files

    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] != "holoflow":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.origin and os.path.realpath(spec.origin) in self.files:
            spec.loader = _MarkingLoader(name, spec.origin)
        return spec


class RaiseReach:
    """The raise sites of one package, the marks on them and the verdict."""

    def __init__(self, package: Path, preloaded: Set[str]):
        self.package, self.preloaded = package, preloaded
        self.sites = raise_sites(package)
        self.first: Dict[Tuple[str, int], str] = {}
        self.spans: Dict[str, List[Tuple[int, int, str]]] = {}
        for path in self.sites:
            first, self.spans[path] = functions(path)
            self.first.update(((path, line), name) for line, name in first.items())
        self.partial = False
        self.problems: List[str] = []
        self.privately: Dict[str, List[str]] = {}

    def outermost(self, frame) -> str:
        """The qualified name of the outermost frame of the package; a
        method, shared ones such as a record's ``__init__`` too, is named
        by the class of its ``self``."""
        outer = None
        while frame is not None:
            if frame.f_code.co_filename in self.sites:
                outer = frame
            frame = frame.f_back
        code, cls = outer.f_code, type(outer.f_locals.get("self"))
        if cls.__module__.partition(".")[0] == "holoflow":
            return f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}.{code.co_name}"
        return self.first.get((code.co_filename, code.co_firstlineno), f"{Path(code.co_filename).stem}.{code.co_name}")

    def enclosing(self, path: str, line: int) -> str:
        inside = [name for start, end, name in self.spans[path] if start <= line <= end]
        return inside[-1] if inside else f"{Path(path).stem}.<module>"

    def public(self) -> Set[str]:
        """``cli.main`` and the qualified name of each public name."""
        import holoflow

        exported = {f"{getattr(holoflow, name).__module__.rpartition('.')[2]}.{name}" for name in holoflow.__all__}
        return {"cli.main", *exported}

    def unreached(self) -> List[str]:
        """``"<module>.py:<line>"`` of each site no test reached."""
        return [
            f"{Path(f).name}:{line}" for f, lines in self.sites.items() for line in sorted(lines) if (f, line) not in HITS
        ]

    def private(self) -> Dict[str, List[str]]:
        """{enclosing function: ``"<module>.py:<line>"``} of the sites
        reached only from outside the public interface."""
        public, out = self.public(), {}
        for (path, line), outers in sorted(HITS.items()):
            if not any(o in public or o.rpartition(".")[0] in public for o in outers):
                out.setdefault(self.enclosing(path, line), []).append(f"{Path(path).name}:{line}")
        return out

    def pytest_deselected(self, items):
        self.partial = True

    def pytest_sessionfinish(self, session):
        tests = Path(__file__).resolve().parent
        given = [Path(str(arg).split("::")[0]).resolve() for arg in session.config.args]
        self.partial |= session.config.option.collectonly or not all(
            tests == arg or tests.is_relative_to(arg) for arg in given
        )
        if self.preloaded:
            self.problems.append(f"holoflow was imported before the marks were set: {sorted(self.preloaded)}")
        unreached = self.unreached()
        reached = {f"{Path(f).name}:{line}" for f, line in HITS}
        self.problems += [f"unreached raise site {site}" for site in unreached if site not in ALLOWED]
        self.problems += [f"allowed raise site {site} is reached" for site in ALLOWED if site in reached]
        self.problems += [
            f"allowed entry {site} names no raise site" for site in ALLOWED if site not in reached | set(unreached)
        ]
        self.privately = self.private()
        self.problems += [
            f"raise site {', '.join(sites)} in {name} is reached only outside the public interface, and"
            " PRIVATE gives no reason"
            for name, sites in self.privately.items()
            if name not in PRIVATE
        ]
        self.problems += [
            f"PRIVATE entry {name} names no privately reached site" for name in PRIVATE if name not in self.privately
        ]
        if self.problems and not self.partial and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        total = sum(len(lines) for lines in self.sites.values())
        terminalreporter.section("raise sites")
        terminalreporter.write_line(
            f"{total - len(self.unreached())} of {total} raise sites in {self.package} reached,"
            f" {sum(map(len, self.privately.values()))} only outside the public interface"
        )
        if self.partial:
            terminalreporter.write_line("not the whole suite: nothing below fails the run")
        for line in self.problems:
            terminalreporter.write_line(line)


def hit(filename: str, line: int) -> None:
    """Record a raise site's mark and the outermost package function."""
    HITS.setdefault((filename, line), set()).add(_REACH.outermost(sys._getframe(1)))


_REACH: RaiseReach


def pytest_configure(config):
    global _REACH
    spec = importlib.util.find_spec("holoflow")  # finds the package without importing it
    preloaded = {name for name in sys.modules if name.partition(".")[0] == "holoflow"}
    _REACH = RaiseReach(Path(os.path.realpath(spec.submodule_search_locations[0])), preloaded)
    sys.meta_path.insert(0, _MarkingFinder(set(_REACH.sites)))
    config.pluginmanager.register(_REACH, "raise_reach_marks")
