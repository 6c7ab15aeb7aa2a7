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
  names of ``holoflow.__all__`` (and their methods), when ``INTERNAL`` gives
  its enclosing function no reason that allows it (``PRIVATE_KINDS``), and
  an ``INTERNAL`` entry of a kind that names such a site
  (``GUARD``, ``IMPLIED``) whose function has none.

``INTERNAL`` is the one table of the package's internal paths, keyed by
function: ``tests/test_reach.py`` reads it too, for the functions that no
command runs.  Both checks walk the same files with the same walker,
``functions``.

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

#: the kinds of reason in ``INTERNAL``, each with what its evidence is: the
#: perfbench recorder Target's (owner, attr); the tier-1 test,
#: ``"<file>::<name>"``, that reaches the error path; the special method the
#: protocol method is; the guard's public caller, in one line; the tier-1
#: test that proves the check cannot fire
PERFBENCH = "a perfbench target or a helper of one"
ERROR_PATH = "an error path"
PROTOCOL = "a protocol method"
GUARD = "a guard of internal input"
IMPLIED = "an implied check"

#: the kinds of a function that no command runs (``tests/test_reach.py``)
UNRUN_KINDS = (PERFBENCH, ERROR_PATH, PROTOCOL)
#: the kinds that allow raise sites reached only outside the public interface;
#: an entry of the last two must name such a site
PRIVATE_KINDS = (PERFBENCH, GUARD, IMPLIED)

#: the package's internal paths, ``"<module>.<qualname>"`` mapped to
#: (kind, evidence): a function that no command runs, or whose raise sites
#: tests reach only by calling something other than ``cli.main`` or a
#: public name
INTERNAL: Dict[str, Tuple[str, object]] = {
    "__init__.__dir__": (PROTOCOL, "__dir__"),
    "__init__.__getattr__": (GUARD, "``holoflow.<name>`` for a name outside ``__all__``, the package's own lookup"),
    "_kernel._check_terms": (GUARD, "of ``make_rhs``; public callers ``solve_orbit`` and ``run_report``"),
    "_record._frozen_delattr": (PROTOCOL, "__delattr__"),
    "_record._frozen_setattr": (PROTOCOL, "__setattr__"),
    "_record._repr": (PROTOCOL, "__repr__"),
    "algebra.LaurentPoly.__rsub__": (PROTOCOL, "__rsub__"),  # 1 + p works, so 1 - p must too
    "algebra.LaurentPoly.eval": (PERFBENCH, ("holoflow.algebra:Multivector", "eval_numeric")),
    "algebra.Multivector.__hash__": (PROTOCOL, "__hash__"),
    "algebra.Multivector.__repr__": (PROTOCOL, "__repr__"),
    "algebra.Multivector.eval_numeric": (PERFBENCH, ("holoflow.algebra:Multivector", "eval_numeric")),
    "cli.__getattr__": (GUARD, "``holoflow.cli.<name>`` besides ``derive_flow``; ``cli.main`` reads no module attribute"),
    "closed_form._Profile._check_domain": (
        ERROR_PATH, "test_closed_form.py::test_compare_refuses_a_primitive_at_or_past_a_pole"
    ),
    "closed_form.s_form": (IMPLIED, "test_closed_form.py::test_s_form_of_the_derived_system_is_the_profile_table"),
    "flow._solve_linear": (IMPLIED, "test_flow.py::test_back_substitution_annihilates_closure"),
    "homogeneous.invariant_d": (GUARD, "its public caller ``derive_flow`` passes only forms on ``group_gens(model)``"),
    "integrate._OrbitLimits._at": (ERROR_PATH, "test_series_start.py::test_every_failure_raises_its_message"),
    "integrate._outside_state": (ERROR_PATH, "test_series_start.py::test_every_failure_raises_its_message"),
    "structures._multi_angle": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures._rotate_form": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures._rotation": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures.rotate_structure": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "verify.ProfileSampler.__init__": (GUARD, "public caller ``run_report``, which pairs one model's profile and run"),
    "verify.ProfileSampler._speed": (GUARD, "of the t(s) inversion; public caller ``run_report``"),
    "verify.TrajectorySampler.__call__": (PERFBENCH, ("holoflow.verify:TrajectorySampler", "__call__")),
    "verify.TrajectorySampler.__init__": (PERFBENCH, ("holoflow.verify:TrajectorySampler", "__call__")),
    "verify._residuals": (GUARD, "of the closure checks; public caller ``run_report``"),
    "verify.check_closure": (GUARD, "of explicit sample times; public caller ``run_report``, which passes none"),
    "verify.check_closure_samples": (
        GUARD, "public caller ``run_report``, on runs ``Trajectory.from_csv`` gives 3 rows"
    ),
    "verify.verify_trajectory": (
        IMPLIED, "test_closed_form.py::test_s_form_of_the_derived_system_is_the_profile_table"
    ),
}

#: the site (file, line) of each reached raise mapped to the outermost
#: ``holoflow`` functions, ``"<module>.<qualname>"``, it was reached from
HITS: Dict[Tuple[str, int], Set[str]] = {}


def source_files(package: Path) -> Dict[str, str]:
    """{real path: module name} of every source file of the package, its
    subpackages' too; the name is the dotted path inside the package."""
    return {
        os.path.realpath(path): ".".join(path.relative_to(package).with_suffix("").parts)
        for path in sorted(package.rglob("*.py"))
    }


def raise_sites(paths) -> Dict[str, Set[int]]:
    """The first line of every ``raise`` statement, per source file."""
    sites = {}
    for path in paths:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"), path)
        sites[path] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return sites


def functions(path: str, module: str) -> Tuple[Dict[int, str], List[Tuple[int, int, str]]]:
    """The functions of one source file of the named module: {first line:
    qualified name}, the first line being the first decorator's, as in the
    code object, and the (start, end, name) spans of their bodies,
    innermost last."""
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
        self.modules = source_files(package)
        self.sites = raise_sites(self.modules)
        # the imported module's dotted name -> its name here
        self.dotted = {f"{package.name}.{m}".removesuffix(".__init__"): m for m in self.modules.values()}
        self.first: Dict[Tuple[str, int], str] = {}
        self.spans: Dict[str, List[Tuple[int, int, str]]] = {}
        for path, module in self.modules.items():
            first, self.spans[path] = functions(path, module)
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
            return f"{self.dotted[cls.__module__]}.{cls.__qualname__}.{code.co_name}"
        return self.first.get(
            (code.co_filename, code.co_firstlineno), f"{self.modules[code.co_filename]}.{code.co_name}"
        )

    def enclosing(self, path: str, line: int) -> str:
        inside = [name for start, end, name in self.spans[path] if start <= line <= end]
        return inside[-1] if inside else f"{self.modules[path]}.<module>"

    def site(self, path: str, line: int) -> str:
        """``"<file>:<line>"``, the file's path inside the package."""
        return f"{Path(path).relative_to(self.package)}:{line}"

    def public(self) -> Set[str]:
        """``cli.main`` and the qualified name of each public name."""
        import holoflow

        exported = {f"{self.dotted[getattr(holoflow, name).__module__]}.{name}" for name in holoflow.__all__}
        return {"cli.main", *exported}

    def unreached(self) -> List[str]:
        """``"<module>.py:<line>"`` of each site no test reached."""
        return [self.site(f, line) for f, lines in self.sites.items() for line in sorted(lines) if (f, line) not in HITS]

    def private(self) -> Dict[str, List[str]]:
        """{enclosing function: ``"<module>.py:<line>"``} of the sites
        reached only from outside the public interface."""
        public, out = self.public(), {}
        for (path, line), outers in sorted(HITS.items()):
            if not any(o in public or o.rpartition(".")[0] in public for o in outers):
                out.setdefault(self.enclosing(path, line), []).append(self.site(path, line))
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
        reached = {self.site(f, line) for f, line in HITS}
        self.problems += [f"unreached raise site {site}" for site in unreached if site not in ALLOWED]
        self.problems += [f"allowed raise site {site} is reached" for site in ALLOWED if site in reached]
        self.problems += [
            f"allowed entry {site} names no raise site" for site in ALLOWED if site not in reached | set(unreached)
        ]
        self.privately = self.private()
        self.problems += [
            f"raise site {', '.join(sites)} in {name} is reached only outside the public interface, and"
            " INTERNAL gives no reason that allows it"
            for name, sites in self.privately.items()
            if INTERNAL.get(name, ("",))[0] not in PRIVATE_KINDS
        ]
        self.problems += [
            f"INTERNAL entry {name} ({kind}) names no privately reached site"
            for name, (kind, _) in INTERNAL.items()
            if kind in (GUARD, IMPLIED) and name not in self.privately
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
