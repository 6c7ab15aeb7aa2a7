"""Exact sparse exterior algebra over Laurent-polynomial coefficients.

Everything in this module is immutable and exact: coefficients are
arbitrary-precision rationals (:class:`fractions.Fraction`), exponents are
integers (negative exponents allowed on base symbols), and generator subsets
are canonical ascending bitmasks.  All operations return new objects; nothing
is mutated after construction, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ._record import _frozen_delattr, _frozen_setattr, record

ScalarLike = Union[int, Fraction]


class AlgebraError(ValueError):
    """Raised on malformed algebraic input (mismatched generators, etc.)."""


def _as_fraction(x: ScalarLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise AlgebraError(f"expected an exact rational scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# symbol tables
# ---------------------------------------------------------------------------


@record(frozen=True)
class SymbolTable:
    """Ordered base symbols plus their formal derivative symbols.

    A derivative symbol is spelled ``<base>'`` and is an ordinary commuting
    indeterminate; the chain rule is applied by callers, never here.  Base
    symbols may carry negative exponents (Laurent), derivative symbols only
    non-negative ones.
    """

    base: Tuple[str, ...]
    derivative: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.base)) != len(self.base):
            raise AlgebraError("duplicate base symbols")
        if len(set(self.derivative)) != len(self.derivative):
            raise AlgebraError("duplicate derivative symbols")
        if set(self.base) & set(self.derivative):
            raise AlgebraError("base and derivative symbols must be disjoint")
        for d in self.derivative:
            if not (d.endswith("'") and d[:-1] in self.base):
                raise AlgebraError(f"derivative symbol {d!r} has no matching base symbol")

    @property
    def names(self) -> Tuple[str, ...]:
        return self.base + self.derivative

    @property
    def nbase(self) -> int:
        return len(self.base)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown symbol {name!r}") from None

    def with_derivatives(self) -> "SymbolTable":
        """Table with a derivative symbol for every base symbol."""
        return SymbolTable(self.base, tuple(b + "'" for b in self.base))


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Sparse exact multivariate Laurent polynomial.

    Terms map exponent vectors (one integer slot per symbol of the table,
    base symbols first) to rationals.  The constructor drops every zero
    coefficient, so no stored one is zero and equality is plain dict
    equality; the operations accumulate their sums and leave zeros to it.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms: Mapping[Tuple[int, ...], Fraction]):
        self.table = table
        self.terms: Dict[Tuple[int, ...], Fraction] = {v: c for v, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "LaurentPoly":
        return LaurentPoly(table, {})

    @staticmethod
    def const(table: SymbolTable, value: ScalarLike) -> "LaurentPoly":
        return LaurentPoly(table, {(0,) * len(table.names): _as_fraction(value)})

    @staticmethod
    def monomial(
        table: SymbolTable, coeff: ScalarLike, exps: Mapping[str, int] | None = None
    ) -> "LaurentPoly":
        """``coeff * prod(sym**e)`` with exponents given by symbol name."""
        vec = [0] * len(table.names)
        for name, e in (exps or {}).items():
            idx = table.index(name)
            if idx >= table.nbase and e < 0:
                raise AlgebraError(f"negative exponent on derivative symbol {name!r}")
            vec[idx] += int(e)
        return LaurentPoly(table, {tuple(vec): _as_fraction(coeff)})

    @staticmethod
    def variable(table: SymbolTable, name: str) -> "LaurentPoly":
        return LaurentPoly.monomial(table, 1, {name: 1})

    # -- bookkeeping ---------------------------------------------------------

    def _compat(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise AlgebraError("LaurentPoly operands use different symbol tables")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> Iterable[Tuple[Tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def named_terms(self) -> List[Tuple[Fraction, Dict[str, int]]]:
        """``(coefficient, {symbol: nonzero exponent})`` per term, in
        ``sorted_terms`` order, each term's symbols in table order."""
        names = self.table.names
        return [(c, {n: e for n, e in zip(names, vec) if e}) for vec, c in self.sorted_terms()]

    def symbols(self) -> Tuple[str, ...]:
        """The symbols that occur, in table order."""
        return tuple(n for n, col in zip(self.table.names, zip(*self.terms)) if any(col))

    def linear_in(self, names: Sequence[str]) -> Tuple[Dict[str, "LaurentPoly"], "LaurentPoly"]:
        """``({x: A_x}, B)`` with ``self = sum(A_x * x) + B`` and no named
        symbol in any A_x or B; only nonzero A_x, in ``names`` order.

        Raises AlgebraError on a term of degree 2 or more in the names
        together, or with a negative power of one of them.
        """
        slots = [self.table.index(x) for x in names]
        parts: Dict[int, Dict[Tuple[int, ...], Fraction]] = {i: {} for i in slots}
        rest = {}
        for vec, c in self.terms.items():
            hit = [i for i in slots if vec[i]]
            if not hit:
                rest[vec] = c
            elif len(hit) == 1 and vec[hit[0]] == 1:
                i = hit[0]
                parts[i][vec[:i] + (0,) + vec[i + 1 :]] = c
            else:
                raise AlgebraError(f"polynomial is not linear in {', '.join(names)}")
        linear = {x: LaurentPoly(self.table, parts[i]) for x, i in zip(names, slots) if parts[i]}
        return linear, LaurentPoly(self.table, rest)

    def coefficients_in(self, name: str) -> List[Fraction]:
        """Ascending coefficients of a polynomial in the one symbol ``name``.

        Raises AlgebraError when another symbol or a negative power occurs.
        """
        i = self.table.index(name)
        coeffs = [Fraction(0)] * (1 + max((vec[i] for vec in self.terms), default=0))
        for vec, c in self.terms.items():
            if vec[i] < 0 or any(vec[:i]) or any(vec[i + 1 :]):
                raise AlgebraError(f"polynomial is not a polynomial in {name!r} alone")
            coeffs[vec[i]] += c
        return coeffs

    def constant_value(self) -> Fraction:
        """The rational value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) > 1 or any(next(iter(self.terms))):
            raise AlgebraError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for vec, c in other.terms.items():
            out[vec] = out[vec] + c if vec in out else c
        return LaurentPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.table, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return LaurentPoly(self.table, {v: c * f for v, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                vec = tuple(a + b for a, b in zip(v1, v2))
                c = c1 * c2
                out[vec] = out[vec] + c if vec in out else c
        return LaurentPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) != 1:
                raise AlgebraError("only monomials can be raised to negative powers")
            ((vec, c),) = self.terms.items()
            if any(vec[i] for i in range(self.table.nbase, len(vec))):
                raise AlgebraError("cannot invert a derivative-symbol monomial")
            inv = LaurentPoly(self.table, {tuple(-e for e in vec): 1 / c})
            return inv ** (-n)
        out = None
        p = self
        while n:
            if n & 1:
                out = p if out is None else out * p
            n >>= 1
            if n:
                p = p * p
        return LaurentPoly.const(self.table, 1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(self.sorted_terms())))

    # -- calculus and substitution -------------------------------------------

    def diff(self, name: str) -> "LaurentPoly":
        """Formal partial derivative with respect to one base symbol."""
        idx = self.table.index(name)
        if idx >= self.table.nbase:
            raise AlgebraError("diff is defined on base symbols only")
        # lowering one exponent maps distinct terms to distinct terms
        out: Dict[Tuple[int, ...], Fraction] = {}
        for vec, c in self.terms.items():
            if vec[idx]:
                out[vec[:idx] + (vec[idx] - 1,) + vec[idx + 1 :]] = c * vec[idx]
        return LaurentPoly(self.table, out)

    def subs(
        self, images: Mapping[str, "LaurentPoly"], table: Optional[SymbolTable] = None
    ) -> "LaurentPoly":
        """Replace each named symbol by a polynomial on ``table``.

        ``table`` defaults to this polynomial's own.  Every other symbol that
        occurs is carried over by name; one without a slot in ``table``
        raises.  A negative power needs a monomial image.
        """
        table = table or self.table
        width = len(table.names)
        carried = []
        replaced = []
        for i, name in enumerate(self.table.names):
            if name in images:
                replaced.append((i, images[name]))
            elif any(vec[i] for vec in self.terms):
                carried.append((i, table.index(name)))
        powers: Dict[Tuple[int, int], LaurentPoly] = {}
        out: Dict[Tuple[int, ...], Fraction] = {}
        for vec, c in self.terms.items():
            nv = [0] * width
            for i, j in carried:
                nv[j] = vec[i]
            piece = LaurentPoly(table, {tuple(nv): c})
            for i, image in replaced:
                e = vec[i]
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = image**e
                    piece = piece * power
            for key, q in piece.terms.items():
                out[key] = out[key] + q if key in out else q
        return LaurentPoly(table, out)

    def cleared(self) -> Tuple["LaurentPoly", "LaurentPoly"]:
        """``(numerator, denominator)``: negative exponents cleared into a
        monomial denominator, so the numerator is a polynomial."""
        mins = [0] * len(self.table.names)
        for vec in self.terms:
            mins = [min(m, e) for m, e in zip(mins, vec)]
        den = LaurentPoly(self.table, {tuple(-m for m in mins): Fraction(1)})
        return self * den, den

    def eval(self, assignment: Mapping[str, float]) -> float:
        """Evaluate in floating point; summation order is canonical."""
        vals = []
        for name in self.table.names:
            if name not in assignment:
                if any(vec[self.table.index(name)] for vec in self.terms):
                    raise AlgebraError(f"assignment missing symbol {name!r}")
                vals.append(1.0)
            else:
                vals.append(float(assignment[name]))
        total = 0.0
        for vec, c in self.sorted_terms():
            term = float(c)
            for x, e in zip(vals, vec):
                if e == 0:
                    continue
                if x == 0.0 and e < 0:
                    raise AlgebraError("zero assigned to a symbol with negative exponent")
                term *= x**e
            total += term
        return total

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            "*".join([str(c)] + [n if e == 1 else f"{n}^{e}" for n, e in exps.items()])
            for c, exps in self.named_terms()
        )


class FrozenPoly(LaurentPoly):
    """A read-only copy of a polynomial: its terms are a read-only mapping,
    and neither ``table`` nor ``terms`` can be rebound.  Arithmetic on it
    gives plain polynomials."""

    __slots__ = ()

    def __init__(self, poly: LaurentPoly):
        object.__setattr__(self, "table", poly.table)
        object.__setattr__(self, "terms", MappingProxyType(dict(poly.terms)))

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


def term_list(
    polys: Sequence[LaurentPoly], names: Sequence[str]
) -> Tuple[List[float], List[int], List[int]]:
    """``(coeffs, exps, owner)``, the term lists ``_kernel.make_rhs`` reads.

    Each term of ``polys[k]``, in ``sorted_terms`` order, gives its float
    coefficient, its exponent of each of the distinct ``names`` (0 for a
    name outside the polynomial's table) and the owner ``k``.  Raises
    AlgebraError when a symbol outside ``names`` occurs.
    """
    coeffs: List[float] = []
    exps, owner, table = [], [], None
    for k, poly in enumerate(polys):
        if poly.table is not table:
            table = poly.table
            where = {n: i for i, n in enumerate(table.names)}
            slots = [where.get(n) for n in names]
        for vec, c in poly.sorted_terms():
            row = [0 if i is None else vec[i] for i in slots]
            # every nonzero exponent must land in a column of ``names``
            if row.count(0) + len(vec) - len(row) != vec.count(0):
                raise AlgebraError(f"a symbol outside {', '.join(names)} occurs")
            coeffs.append(float(c))
            exps.extend(row)
            owner.append(k)
    return coeffs, exps, owner


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _merge_sign(m1: int, m2: int) -> int:
    """Parity sign of merging two disjoint sorted index sets."""
    sign = 1
    for b in _bits(m2):
        if (m1 >> (b + 1)).bit_count() % 2:
            sign = -sign
    return sign


class Multivector:
    """Sparse graded exterior form over a fixed generator coframe.

    Terms map ascending-index bitmasks to coefficients; a coefficient is a
    :class:`LaurentPoly` in symbolic mode or a ``float`` in numeric mode.
    The generator tagged ``dt`` (if any) is recorded by index.
    """

    __slots__ = ("gens", "dt_index", "terms")

    def __init__(
        self,
        gens: Sequence[str],
        terms: Mapping[int, object],
        dt_index: Optional[int] = None,
    ):
        if len(gens) > 12:
            raise AlgebraError("at most 12 generators are supported")
        self.gens = tuple(gens)
        self.dt_index = dt_index
        pruned = {}
        limit = 1 << len(self.gens)
        for mask, coeff in terms.items():
            if not 0 <= mask < limit:
                raise AlgebraError("subset mask out of range")
            if isinstance(coeff, LaurentPoly):
                if coeff.is_zero:
                    continue
            elif coeff == 0:
                continue
            pruned[mask] = coeff
        self.terms: Dict[int, object] = pruned

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(gens, dt_index=None) -> "Multivector":
        return Multivector(gens, {}, dt_index)

    @staticmethod
    def basis(gens, indices: Sequence[int], coeff, dt_index=None) -> "Multivector":
        """coeff * e^{i1} ^ ... ^ e^{ik}; index order contributes its parity."""
        if len(set(indices)) != len(indices):
            raise AlgebraError("basis indices must be distinct")
        mask, sign = 0, 1
        for i in indices:
            sign *= _merge_sign(mask, 1 << i)
            mask |= 1 << i
        return Multivector(gens, {mask: coeff if sign > 0 else -coeff}, dt_index)

    # -- bookkeeping -------------------------------------------------------------

    def _compat(self, other: "Multivector") -> None:
        if self.gens != other.gens:
            raise AlgebraError("multivectors over different generator sets")
        if self.dt_index != other.dt_index:
            raise AlgebraError("multivectors disagree on the dt generator")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def indices_of(self, mask: int) -> Tuple[int, ...]:
        return tuple(_bits(mask))

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Multivector(self.gens, out, self.dt_index)

    def __neg__(self):
        return Multivector(self.gens, {m: -c for m, c in self.terms.items()}, self.dt_index)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor) -> "Multivector":
        return Multivector(
            self.gens, {m: c * factor for m, c in self.terms.items()}, self.dt_index
        )

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.dt_index == other.dt_index
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, self.dt_index, tuple(sorted(self.terms))))

    # -- products ---------------------------------------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        self._compat(other)
        out: Dict[int, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                sign = _merge_sign(m1, m2)
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                key = m1 | m2
                out[key] = out[key] + coeff if key in out else coeff
        return Multivector(self.gens, out, self.dt_index)

    def hodge_star(self) -> "Multivector":
        """Hodge star in an orthonormal coframe over all ``n`` generators."""
        full = (1 << len(self.gens)) - 1
        out: Dict[int, object] = {}
        for m, c in self.terms.items():
            comp = full ^ m
            out[comp] = -c if _merge_sign(m, comp) < 0 else c
        return Multivector(self.gens, out, self.dt_index)

    def contract(self, gen_index: int) -> "Multivector":
        """Interior product against the vector dual to one coframe generator."""
        bit = 1 << gen_index
        out: Dict[int, object] = {}
        for m, c in self.terms.items():
            # dropping one generator maps distinct terms to distinct terms
            if m & bit:
                out[m ^ bit] = -c if (m & (bit - 1)).bit_count() % 2 else c
        return Multivector(self.gens, out, self.dt_index)

    # -- coframe substitution ------------------------------------------------------------

    def substitute(
        self,
        images: Mapping[int, Sequence[Tuple[int, object]]],
        gens: Optional[Sequence[str]] = None,
        dt_index: Optional[int] = None,
    ) -> "Multivector":
        """Replace each ``e^i`` by the linear combination ``sum(w * e^j)`` of
        ``images[i] = [(j, w), ...]``, with ``j`` indexing ``gens``.

        ``gens`` and ``dt_index`` default to this form's own.  A generator
        without an image is kept, which needs the generators unchanged.
        Each term is expanded directly, each new index joining the mask
        with the sign ``_merge_sign`` gives it.
        """
        if gens is None:
            gens, dt_index = self.gens, self.dt_index
        keep = tuple(gens) == self.gens
        out: Dict[int, object] = {}
        for m, c in self.terms.items():
            partial = [(0, c, 1)]  # (new mask so far, coefficient, sign)
            for b in _bits(m):
                if b in images:
                    image = images[b]
                elif keep:
                    image = ((b, None),)
                else:
                    raise AlgebraError(f"no image for generator index {b}")
                # a repeated generator wedges to zero
                partial = [
                    (
                        mask | 1 << j,
                        coeff if w is None else coeff * w,
                        sign * _merge_sign(mask, 1 << j),
                    )
                    for mask, coeff, sign in partial
                    for j, w in image
                    if not mask & 1 << j
                ]
            for mask, coeff, sign in partial:
                if sign < 0:
                    coeff = -coeff
                out[mask] = out[mask] + coeff if mask in out else coeff
        return Multivector(gens, out, dt_index)

    # -- evaluation ----------------------------------------------------------------------

    def eval_numeric(self, assignment: Mapping[str, float]) -> "Multivector":
        out: Dict[int, object] = {}
        for m, c in self.sorted_terms():
            if isinstance(c, LaurentPoly):
                out[m] = c.eval(assignment)
            else:
                out[m] = float(c)
        return Multivector(self.gens, out, self.dt_index)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            label = "^".join(self.gens[b] for b in _bits(m)) or "1"
            bits.append(f"({c!r}) {label}")
        return " + ".join(bits)
