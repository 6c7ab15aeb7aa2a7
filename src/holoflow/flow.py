"""Symbolic derivation of the holonomy ODE systems from closure of Omega.

The exterior derivative on the product of the orbit with a time interval
splits into the invariant orbit derivative plus a dt wedge chain-rule term
with formal derivative symbols.  Collecting coefficients of d(Omega) = 0
yields an exact linear system in the derivative symbols, solved here by
Gaussian elimination in the Laurent ring, pivoting on monomials.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import record
from .algebra import FrozenPoly, LaurentPoly, Multivector, SymbolTable, term_list
from .homogeneous import CosetModel, invariant_d, model_spec
from .structures import Spin7Structure, build_invariant_structure


class DerivationError(RuntimeError):
    """The linear system extracted from d(Omega) = 0 is not well-posed."""


# ---------------------------------------------------------------------------
# d on the orbit x interval
# ---------------------------------------------------------------------------


def coefficient_map(form: Multivector, fn) -> Multivector:
    return Multivector(
        form.gens, {m: fn(c) for m, c in form.terms.items()}, form.dt_index
    )


def time_chain(form: Multivector) -> Multivector:
    """Coefficient-wise d/dt via the chain rule: every base symbol with a
    derivative symbol in the coefficients' table moves."""

    def ddt(poly: LaurentPoly) -> LaurentPoly:
        table = poly.table
        out = LaurentPoly.zero(table)
        for x in table.base:
            if x + "'" in table.derivative:
                out = out + poly.diff(x) * LaurentPoly.variable(table, x + "'")
        return out

    return coefficient_map(form, ddt)


def exterior_d_time(form: Multivector, model: CosetModel) -> Multivector:
    """d on G/H x I: invariant orbit derivative plus dt wedge chain rule."""
    spatial = invariant_d(form, model)
    table = next(iter(form.terms.values())).table if form.terms else model.symbols
    one = LaurentPoly.const(table, 1)
    dt = Multivector.basis(form.gens, [form.dt_index], one, dt_index=form.dt_index)
    return spatial + dt.wedge(time_chain(form))


def under_system(form: Multivector, sys: ODESystem, table: SymbolTable) -> Multivector:
    """Replace every derivative symbol in the coefficients by the system's
    right-hand side, lifted to ``table``."""
    subs = sys.rhs_substitution(table)
    return coefficient_map(form, lambda p: p.subs(subs))


def split_dt(form: Multivector) -> Tuple[Multivector, Multivector]:
    """(spatial part, dt-part with the dt factor removed from the left)."""
    bit = 1 << form.dt_index
    spatial = Multivector(form.gens, {m: c for m, c in form.terms.items() if not m & bit}, form.dt_index)
    rest = Multivector(form.gens, {m: c for m, c in form.terms.items() if m & bit}, form.dt_index)
    return spatial, rest.contract(form.dt_index)


# ---------------------------------------------------------------------------
# the ODE system
# ---------------------------------------------------------------------------


@record(frozen=True)
class ODESystem:
    """State symbols with exact Laurent right-hand sides."""

    model_kind: str
    indices: Tuple[int, ...]
    state: Tuple[str, ...]
    rhs: Mapping[str, LaurentPoly]
    rank: int
    n_equations: int

    def __post_init__(self):
        # read-only, the mapping and each polynomial: each system is shared
        # through ``model.derivation`` and keeps its own preparation
        rhs = {x: FrozenPoly(p) for x, p in self.rhs.items()}
        object.__setattr__(self, "rhs", MappingProxyType(rhs))

    @cached_property
    def prepared(self):
        """``integrate._Prepared`` of this system, built on first use."""
        from .integrate import _Prepared  # only what integrates loads it

        return _Prepared(self)

    @property
    def table(self) -> SymbolTable:
        return self.rhs[self.state[0]].table

    def rhs_substitution(self, table: Optional[SymbolTable] = None) -> Dict[str, LaurentPoly]:
        """Derivative-symbol substitution map, optionally moved to a larger table."""
        return {x + "'": p.subs({}, table) for x, p in self.rhs.items()}

    def to_json_dict(self) -> dict:
        def poly_terms(p: LaurentPoly) -> list:
            return [{"coeff": str(c), "exponents": exps} for c, exps in p.named_terms()]

        rhs = {}
        for x in self.state:
            num, den = self.rhs[x].cleared()
            rhs[x] = {"numerator": poly_terms(num), "denominator": poly_terms(den)}
        return {
            "model": self.model_kind,
            "indices": list(self.indices),
            "state": list(self.state),
            "rhs": rhs,
            "rank": self.rank,
            "n_equations": self.n_equations,
        }


def _linear_system(
    dt_part: Multivector, unknowns: Sequence[str]
) -> List[Tuple[Dict[str, LaurentPoly], LaurentPoly]]:
    """Decompose each coefficient as sum(A_x * x') + B, exactly.  Omega's
    coefficients hold no x' and ``time_chain`` adds sum(dc/dx * x'), so
    ``linear_in`` cannot raise on d(Omega)."""
    primes = [x + "'" for x in unknowns]
    eqs = []
    for _, poly in dt_part.sorted_terms():
        a, b = poly.linear_in(primes)
        eqs.append(({x[:-1]: c for x, c in a.items()}, b))
    return eqs


def _solve_linear(
    eqs: List[Tuple[Dict[str, LaurentPoly], LaurentPoly]],
    unknowns: Sequence[str],
    table: SymbolTable,
) -> Tuple[Dict[str, LaurentPoly], int]:
    """Exact Gaussian elimination in the Laurent ring.

    Pivots are chosen by smallest support and must be monomials, the units
    of the ring, so every row stays a Laurent polynomial.
    """
    work = [(dict(a), b) for a, b in eqs]
    solved: Dict[str, Tuple[Dict[str, LaurentPoly], LaurentPoly]] = {}
    zero = LaurentPoly.zero(table)
    for x in unknowns:
        best = None
        for i, (a, _) in enumerate(work):
            if x in a and not a[x].is_zero:
                key = (len(a[x].terms), len(a), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        support, _, i = best[0]
        if support != 1:
            raise DerivationError(f"no monomial pivot for {x}'")
        a, b = work.pop(i)
        inv = a.pop(x) ** -1
        row = {y: c * inv for y, c in a.items()}
        const = b * inv
        # substitute into the remaining equations
        new_work = []
        for a2, b2 in work:
            if x in a2:
                coeff = a2.pop(x)
                for y, c in row.items():
                    a2[y] = a2.get(y, zero) - coeff * c
                b2 = b2 - coeff * const
                a2 = {y: c for y, c in a2.items() if not c.is_zero}
            new_work.append((a2, b2))
        work = new_work
        solved[x] = (row, const)
    for a, b in work:
        if any(not c.is_zero for c in a.values()) or not b.is_zero:
            raise DerivationError("inconsistent closure equations")
    if len(solved) != len(unknowns):
        missing = [x for x in unknowns if x not in solved]
        raise DerivationError(f"underdetermined system; no pivot for {missing}")
    # back substitution: x + sum(row_y * y) + const = 0
    values: Dict[str, LaurentPoly] = {}
    for x in reversed(list(solved)):
        row, const = solved[x]
        acc = const
        for y, c in row.items():
            acc = acc + c * values[y]
        values[x] = -acc
    return values, len(solved)


def derive_flow(model: CosetModel) -> ODESystem:
    """Derive the holonomy ODE system from d(Omega) = 0, exactly, with the
    structure and d(Omega) of ``model.derivation``.  Omega is basic, so
    i_x d(Omega) = L_x Omega - d(i_x Omega) = 0: no isotropy term is left.

    Only the dt-part of d(Omega) gives equations.  Its dt-free part holds no
    derivative symbol, so the back-substitution check fails unless that
    part vanishes too (on both models it is d(*omega) on the orbit, which
    ``tests/test_flow.py::test_cosymplectic_constraints_empty`` proves 0)."""
    d_Omega, table = model.derivation.d_Omega, model.derivation.struct.table
    _, dt_part = split_dt(d_Omega)
    unknowns = tuple(model.symbols.base)
    eqs = _linear_system(dt_part, unknowns)
    rhs, rank = _solve_linear(eqs, unknowns, table)
    sys = ODESystem(
        model_kind=model.kind,
        indices=model.indices,
        state=unknowns,
        rhs=rhs,
        rank=rank,
        n_equations=len(eqs),
    )
    if not under_system(d_Omega, sys, table).is_zero:
        raise DerivationError("back-substitution of the derived system fails")
    return sys


# ---------------------------------------------------------------------------
# the Kaehler certificate
# ---------------------------------------------------------------------------


@record(frozen=True)
class KaehlerCertificate:
    """Unique closed invariant two-form, up to overall sign: ``kaehler_search``
    returns one only when ``signs`` and its negative are the only winners.

    ``d_eta`` is d(eta) on the orbit x interval with the derivative symbols
    still formal.
    """

    signs: Tuple[int, ...]
    eta: Multivector
    d_eta: Multivector


def invariant_two_form_terms(model: CosetModel, struct: Spin7Structure) -> List[Multivector]:
    """Basis of invariant two-forms, one per isotropy module, paired in order
    with the state symbols: x^2 times the sum of the module's
    ``ModelSpec.planes``, and x e7 ^ dt on the fixed line."""
    table, gens, dt = struct.table, struct.gens, struct.dt_index
    planes = model_spec(model).planes
    out = []
    for x, module in zip(table.base, model.modules):
        if len(module) == 1:
            pieces, power = [(module[0], dt)], 1
        else:
            pieces, power = [p for p in planes if p[0] in module], 2
        coeff = LaurentPoly.monomial(table, 1, {x: power})
        forms = [Multivector.basis(gens, list(p), coeff, dt_index=dt) for p in pieces]
        out.append(sum(forms[1:], forms[0]))
    return out


def _signed_sum(signs: Sequence[int], forms: Sequence[Multivector], zero: Multivector) -> Multivector:
    out = zero
    for sign, form in zip(signs, forms):
        out = out + (form if sign == 1 else -form)
    return out


def kaehler_search(model: CosetModel, sys: ODESystem) -> KaehlerCertificate:
    """Enumerate sign vectors; keep those with d(eta) = 0 under the system.

    d and the substitution of the derivative symbols are linear, so both are
    applied once to each basis two-form and only the 2^k signed sums of the
    images are tested.  Any signed sum's eta^4 is a nonzero volume multiple:
    its terms are monomials on four disjoint pairs, the planes and (e7, dt).
    """
    struct = model.derivation.struct
    basis = invariant_two_form_terms(model, struct)
    d_basis = [exterior_d_time(term, model) for term in basis]
    closed_basis = [under_system(d, sys, struct.table) for d in d_basis]
    zero = Multivector.zero(struct.gens, struct.dt_index)
    winners = [
        signs
        for signs in product((1, -1), repeat=len(basis))
        if _signed_sum(signs, closed_basis, zero).is_zero
    ]
    if len(winners) != 2:
        raise DerivationError(
            f"expected exactly one closed sign vector up to global sign, got {winners}"
        )
    signs = max(winners)  # representative with leading +1
    eta = _signed_sum(signs, basis, zero)
    d_eta = _signed_sum(signs, d_basis, zero)
    return KaehlerCertificate(signs, eta, d_eta)


# ---------------------------------------------------------------------------
# one derivation per model
# ---------------------------------------------------------------------------


@record(frozen=True)
class Derivation:
    """A model's exact derived objects, each built on first read: the
    invariant structure, d(Omega) with formal derivative symbols, the ODE
    system and the Kaehler certificate (which carries d(eta)).  A model's
    own is ``model.derivation``."""

    model: CosetModel

    @cached_property
    def struct(self) -> Spin7Structure:
        return build_invariant_structure(self.model)

    @cached_property
    def d_Omega(self) -> Multivector:
        return exterior_d_time(self.struct.Omega, self.model)

    @cached_property
    def sys(self) -> ODESystem:
        return derive_flow(self.model)

    @cached_property
    def cert(self) -> KaehlerCertificate:
        return kaehler_search(self.model, self.sys)

    @cached_property
    def closure_forms(self) -> Tuple[Callable[[List[float], List[float]], bool], Tuple[int, ...]]:
        """Omega, eta, d(Omega) and d(eta), compiled once for float values.

        Returns ``(evaluate, ends)``.  ``evaluate(y, out)`` is the
        :func:`_kernel.make_rhs` function of the four forms' coefficients:
        ``y`` holds a value for every symbol of ``struct.table``, in table
        order, and ``out`` receives each form's coefficients in mask order,
        the forms one after another, ``ends`` marking where each stops.  Each
        coefficient is summed over its ``sorted_terms`` in the float
        operations of ``LaurentPoly.eval``, so it carries the bits
        ``Multivector.eval_numeric`` gives, the tests' oracle for these
        forms.  ``evaluate`` returns False, writing
        nothing, when a zero meets a negative power, and False when a
        coefficient is not finite; a power beyond float range raises
        OverflowError.
        """
        from . import _kernel  # only what checks closure loads the loop generator

        table = self.struct.table
        polys: List[LaurentPoly] = []
        ends = []
        for form in (self.struct.Omega, self.cert.eta, self.d_Omega, self.cert.d_eta):
            polys.extend(poly for _, poly in form.sorted_terms())
            ends.append(len(polys))
        coeffs, exps, owner = term_list(polys, table.names)
        evaluate = _kernel.make_rhs(coeffs, exps, owner, len(table.names), len(polys))
        return evaluate, tuple(ends)
