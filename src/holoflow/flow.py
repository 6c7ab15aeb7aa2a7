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

from . import _kernel
from ._record import record
from .algebra import AlgebraError, FrozenPoly, LaurentPoly, Multivector, SymbolTable, term_list, wedge
from .homogeneous import CosetModel, invariant_d
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
    return spatial + wedge(dt, time_chain(form))


def under_system(form: Multivector, sys: ODESystem, table: SymbolTable) -> Multivector:
    """Replace every derivative symbol in the coefficients by the system's
    right-hand side, lifted to ``table``."""
    subs = sys.rhs_substitution(table)
    return coefficient_map(form, lambda p: p.subs(subs))


def split_dt(form: Multivector) -> Tuple[Multivector, Multivector]:
    """(spatial part, dt-part with the dt factor removed from the left)."""
    bit = 1 << form.dt_index
    spatial = Multivector(
        form.gens, {m: c for m, c in form.terms.items() if not m & bit}, form.dt_index
    )
    rest = Multivector(
        form.gens, {m: c for m, c in form.terms.items() if m & bit}, form.dt_index
    )
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
        # through ``derivation(model)`` and keeps its own preparation
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
    """Decompose each coefficient as sum(A_x * x') + B, exactly."""
    primes = [x + "'" for x in unknowns]
    eqs = []
    for _, poly in dt_part.sorted_terms():
        try:
            a, b = poly.linear_in(primes)
        except AlgebraError:
            raise DerivationError("equation is nonlinear in the derivative symbols") from None
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


def derive_flow(
    model: CosetModel,
    struct: Optional[Spin7Structure] = None,
    d_Omega: Optional[Multivector] = None,
) -> ODESystem:
    """Derive the holonomy ODE system from d(Omega) = 0, exactly.

    ``d_Omega`` is d(Omega) of ``struct`` when the caller already has it.
    """
    struct = struct or build_invariant_structure(model)
    table = struct.table
    if d_Omega is None:
        d_Omega = exterior_d_time(struct.Omega, model)
    iso_mask = 0
    for i in model.isotropy_indices:
        iso_mask |= 1 << i
    for mask in d_Omega.terms:
        if mask & iso_mask:
            raise DerivationError("d(Omega) is not basic; bookkeeping error")
    spatial, dt_part = split_dt(d_Omega)
    if not spatial.is_zero:
        raise DerivationError(
            f"spatial part of d(Omega) does not vanish identically: {spatial!r}"
        )
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


def closure_residual(struct: Spin7Structure, sys: ODESystem) -> Multivector:
    """d(Omega) with the derivative symbols replaced by the derived sides."""
    return under_system(exterior_d_time(struct.Omega, struct.model), sys, struct.table)


# ---------------------------------------------------------------------------
# cosymplectic constraints and the Hitchin flow residual
# ---------------------------------------------------------------------------


def cosymplectic_constraints(model: CosetModel) -> List[LaurentPoly]:
    """Polynomial constraints forcing d(*omega) = 0 on the orbit.

    An empty list means every structure in the invariant ansatz is
    cosymplectic.
    """
    struct = derivation(model).struct
    d_star = invariant_d(struct.star_omega, model)
    return [poly for _, poly in d_star.sorted_terms()]


def hitchin_residual(model: CosetModel, sys: ODESystem) -> Multivector:
    """d/dt(*omega) - d_orbit(omega) under the derived system; contract: 0."""
    struct = derivation(model).struct
    lhs = under_system(time_chain(struct.star_omega), sys, struct.table)
    rhs = invariant_d(struct.omega, model)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the Kaehler certificate
# ---------------------------------------------------------------------------


@record(frozen=True)
class KaehlerCertificate:
    """Unique closed invariant two-form, up to overall sign.

    ``d_eta`` is d(eta) on the orbit x interval with the derivative symbols
    still formal.
    """

    signs: Tuple[int, ...]
    eta: Multivector
    all_solutions: Tuple[Tuple[int, ...], ...]
    d_eta: Multivector

    @property
    def unique_up_to_sign(self) -> bool:
        return len(self.all_solutions) == 2


def invariant_two_form_terms(model: CosetModel, struct: Spin7Structure) -> List[Multivector]:
    """Basis of invariant two-forms, one per isotropy module, paired in order
    with the state symbols: x^2 times the sum of a module's planes, and
    x e7 ^ dt on the fixed line."""
    table, gens, dt = struct.table, struct.gens, struct.dt_index
    out = []
    for x, module in zip(table.base, model.modules):
        if len(module) == 1:
            pieces, power = [(module[0], dt)], 1
        else:
            pieces, power = list(zip(module[::2], module[1::2])), 2
        coeff = LaurentPoly.monomial(table, 1, {x: power})
        forms = [Multivector.basis(gens, list(p), coeff, dt_index=dt) for p in pieces]
        out.append(sum(forms[1:], forms[0]))
    return out


def _signed_sum(signs: Sequence[int], forms: Sequence[Multivector], zero: Multivector) -> Multivector:
    out = zero
    for sign, form in zip(signs, forms):
        out = out + (form if sign == 1 else -form)
    return out


def kaehler_search(
    model: CosetModel, sys: ODESystem, struct: Optional[Spin7Structure] = None
) -> KaehlerCertificate:
    """Enumerate sign vectors; keep those with d(eta) = 0 under the system.

    d and the substitution of the derivative symbols are linear, so both are
    applied once to each basis two-form and only the 2^k signed sums of the
    images are tested.
    """
    struct = struct or build_invariant_structure(model)
    basis = invariant_two_form_terms(model, struct)
    d_basis = [exterior_d_time(term, model) for term in basis]
    closed_basis = [under_system(d, sys, struct.table) for d in d_basis]
    zero = Multivector.zero(struct.gens, struct.dt_index)
    winners = [
        signs
        for signs in product((1, -1), repeat=len(basis))
        if _signed_sum(signs, closed_basis, zero).is_zero
    ]
    if not winners or len(winners) != 2:
        raise DerivationError(
            f"expected exactly one closed sign vector up to global sign, got {winners}"
        )
    signs = max(winners)  # representative with leading +1
    eta = _signed_sum(signs, basis, zero)
    # eta^4 must be a nonzero multiple of the volume form
    power = eta
    for _ in range(3):
        power = wedge(power, eta)
    if len(power.terms) != 1 or next(iter(power.terms.values())).is_zero:
        raise DerivationError("eta^4 is not a volume multiple")
    d_eta = _signed_sum(signs, d_basis, zero)
    return KaehlerCertificate(signs, eta, tuple(winners), d_eta)


# ---------------------------------------------------------------------------
# one derivation per model
# ---------------------------------------------------------------------------


@record(frozen=True)
class Derivation:
    """A model's exact derived objects: the invariant structure, d(Omega)
    with formal derivative symbols, the ODE system and the Kaehler
    certificate (which carries d(eta))."""

    model: CosetModel
    struct: Spin7Structure
    d_Omega: Multivector
    sys: ODESystem
    cert: KaehlerCertificate

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
        ``eval_numeric`` gives.  ``evaluate`` returns False, writing
        nothing, when a zero meets a negative power, and False when a
        coefficient is not finite; a power beyond float range raises
        OverflowError.
        """
        table = self.struct.table
        polys: List[LaurentPoly] = []
        ends = []
        for form in (self.struct.Omega, self.cert.eta, self.d_Omega, self.cert.d_eta):
            polys.extend(poly for _, poly in form.sorted_terms())
            ends.append(len(polys))
        coeffs, exps, owner = term_list(polys, table.names)
        evaluate = _kernel.make_rhs(coeffs, exps, owner, len(table.names), len(polys))
        return evaluate, tuple(ends)


#: the last derivation per (kind, indices): CosetModel is not hashable
_DERIVATIONS: Dict[Tuple[str, Tuple[int, ...]], Derivation] = {}


def derivation(model: CosetModel) -> Derivation:
    """The model's :class:`Derivation`, built on first use and kept for the
    model object last asked for with its kind and indices."""
    key = (model.kind, model.indices)
    found = _DERIVATIONS.get(key)
    if found is None or found.model is not model:
        struct = build_invariant_structure(model)
        d_Omega = exterior_d_time(struct.Omega, model)
        sys = derive_flow(model, struct, d_Omega)
        cert = kaehler_search(model, sys, struct)
        found = _DERIVATIONS[key] = Derivation(model, struct, d_Omega, sys, cert)
    return found
