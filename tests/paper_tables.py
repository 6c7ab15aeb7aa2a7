"""The paper's stated numbers for each model, written out as literal tables.

Each expected value of the paper's claims is written here once: the derived
systems, the admissible indices, the smoothness verdicts and slopes, the
Kaehler signs, the parity sign sets, the closed form's affine slopes and
the cone limits.  ``tests/test_acceptance.py`` holds each claim against
them, and every other test reads them from here.  The five singular orbits
at unit data, which the command-level tests run, are written here once too.

The package states each fact once, in ``homogeneous.MODEL_SPECS``, and
computes the rest (the vertical smoothness slopes, the cone limits, the
primitive's name); these tables are the oracles the tests check both
against.
"""

from fractions import Fraction

from holoflow.homogeneous import CatalogRow

_NO_SPACE = "no cohomogeneity-one space"

#: the singular orbits of each model, with every required slope
ORBIT_CATALOG = {
    "Q": (
        CatalogRow(
            "U(1)^3", "S^1", "S^2 x S^2 x S^2", "s2xs2xs2", ("f",), {"f": Fraction(3, 2)},
            "collapsing circle of length (4 pi / 3) |f|",
        ),
        CatalogRow(
            "U(1)^2 x SU(2)", "S^3", "S^2 x S^2", "s2xs2", ("a", "f"),
            {"a": Fraction(1, 2), "f": Fraction(3, 2)},
            "collapsing 3-sphere; great circles along e1 and e7",
        ),
        CatalogRow("U(1) x SU(2)^2", "not a sphere quotient", "S^2", note=_NO_SPACE),
        CatalogRow("SU(2)^3", "not a sphere quotient", "point", note=_NO_SPACE),
    ),
    "M": (
        CatalogRow(
            "U(2) x U(1)", "S^1", "CP^2 x S^2", "cp2xs2", ("c",), {"c": Fraction(4)},
            "collapsing circle of length (pi / 2) |c| in display units",
        ),
        CatalogRow(
            "U(2) x SU(2)", "S^3", "CP^2", "cp2", ("b", "c"), {"b": Fraction(1), "c": Fraction(4)},
            "collapsing 3-sphere; sectional curvature 1/t^2 condition",
        ),
        CatalogRow(
            "SU(3) x U(1)", "S^5/Z_3", "S^2", "s2", ("a", "c"),
            {"a": Fraction(1), "c": Fraction(4)},
            "collapsing S^5/Z_3; orbifold smoothness condition",
            note="orbifold, not a manifold",
        ),
        CatalogRow("SU(3) x SU(2)", "not a sphere quotient", "point", note=_NO_SPACE),
    ),
}

#: the derived systems of Q(1,1,1) and M(1,1): each right-hand side as its
#: terms (coefficient, exponents), and the rank of the closure equations
DERIVED_RHS = {
    "Q": {
        "a": ((Fraction(-1, 6), {"f": 1, "a": -1}),),
        "b": ((Fraction(-1, 6), {"f": 1, "b": -1}),),
        "c": ((Fraction(-1, 6), {"f": 1, "c": -1}),),
        "f": (
            (Fraction(1, 6), {"f": 2, "a": -2}),
            (Fraction(1, 6), {"f": 2, "b": -2}),
            (Fraction(1, 6), {"f": 2, "c": -2}),
            (Fraction(-3), {}),
        ),
    },
    "M": {
        "a": ((Fraction(3, 8), {"c": 1, "a": -1}),),
        "b": ((Fraction(1, 4), {"c": 1, "b": -1}),),
        "c": (
            (Fraction(8), {}),
            (Fraction(-1, 4), {"c": 2, "b": -2}),
            (Fraction(-3, 4), {"c": 2, "a": -2}),
        ),
    },
}
DERIVED_RANK = {"Q": 4, "M": 3}

#: the normalized index tuples up to 5 that carry an invariant G2 structure
ADMISSIBLE = {"Q": [(1, 1, 1)], "M": [(1, 1)]}

#: the unit models' verdict and limiting slopes at each singular orbit; the
#: slopes smoothness requires are the catalog's
SMOOTHNESS = {
    ("Q", "s2xs2xs2"): ("non-smooth", {"f": Fraction(-3)}),
    ("Q", "s2xs2"): ("smooth", {"a": Fraction(1, 2), "f": Fraction(-3, 2)}),
    ("M", "cp2xs2"): ("non-smooth", {"c": Fraction(8)}),
    ("M", "cp2"): ("smooth", {"b": Fraction(1), "c": Fraction(4)}),
    ("M", "s2"): ("non-smooth", {"a": Fraction(1), "c": Fraction(8, 3)}),
}

#: the signs of the closed invariant two-form on the planes, unique up to
#: overall sign
KAEHLER_SIGNS = {"Q": (1, 1, 1, 1), "M": (1, -1, 1)}

#: the flips x -> e_x x under which each derived system maps solutions
#: x(t) to e_x x(-t): rhs_x(e x) = -e_x rhs_x(x)
PARITY_SIGNS = {
    "Q": ({"a": 1, "b": 1, "c": 1, "f": -1}, {"a": -1, "b": 1, "c": 1, "f": -1}),
    "M": ({"a": 1, "b": 1, "c": -1}, {"a": 1, "b": -1, "c": -1}, {"a": -1, "b": 1, "c": -1}),
}

#: the closed form's squared coefficients affine in the primitive s:
#: x^2 = x0^2 + m_x s
AFFINE_SLOPES = {
    "Q": {"a": Fraction(-1, 3), "b": Fraction(-1, 3), "c": Fraction(-1, 3)},
    "M": {"a": Fraction(3, 4), "b": Fraction(1, 2)},
}

#: the cone limits of x^2/t^2 and of the vertical coefficient over t
CONE_REFS = {
    "Q": {"a^2/t^2": 0.125, "b^2/t^2": 0.125, "c^2/t^2": 0.125, "|f|/t": 0.75},
    "M": {"a^2/t^2": 0.75, "b^2/t^2": 0.5, "c/t": 2.0},
}

#: the integrated primitive's column name
PRIMITIVE_NAME = {"Q": "F", "M": "C"}

#: the five singular orbits at unit data: (kind, orbit, the names of the
#: initial values given, each 1)
UNIT_ORBITS = (
    ("Q", "s2xs2", "bc"),
    ("Q", "s2xs2xs2", "abc"),
    ("M", "cp2", "a"),
    ("M", "cp2xs2", "ab"),
    ("M", "s2", "b"),
)

#: the same orbits as command-line arguments: (model, orbit, ``--x0 1`` per name)
UNIT_ORBIT_ARGS = [
    (kind.lower(), orbit, [arg for x in names for arg in (f"--{x}0", "1")]) for kind, orbit, names in UNIT_ORBITS
]

#: the vertical circle action: Q's exp(theta e7) meets the isotropy torus
#: iff 3 theta is a multiple of 4 pi; M's central circle meets SU(2) x U(1)
#: on the lattice generated by pi and 3 pi / 2
CIRCLE = {
    "Q": {
        "period_over_pi": Fraction(4),
        "intersection_order": 3,
        "circle_step_over_pi": Fraction(4, 3),
        "required_slope": Fraction(3, 2),
    },
    "M": {
        "period_over_pi": Fraction(4),
        "intersection_order": 8,
        "circle_step_over_pi": Fraction(1, 2),
        "required_slope": Fraction(4),
    },
}

#: canonical Spin(7) four-form: signed index quadruples on dx0..dx7, in
#: lexicographic order
OMEGA4_TERMS = (
    ((0, 1, 2, 3), 1),
    ((0, 1, 4, 5), 1),
    ((0, 1, 6, 7), -1),
    ((0, 2, 4, 6), 1),
    ((0, 2, 5, 7), 1),
    ((0, 3, 4, 7), 1),
    ((0, 3, 5, 6), -1),
    ((1, 2, 4, 7), -1),
    ((1, 2, 5, 6), 1),
    ((1, 3, 4, 6), 1),
    ((1, 3, 5, 7), 1),
    ((2, 3, 4, 5), -1),
    ((2, 3, 6, 7), 1),
    ((4, 5, 6, 7), 1),
)

#: orthonormal-frame assignment: canonical slot -> (generator index, scale symbol)
FRAME_MAP = {
    "Q": {1: (7, "f"), 2: (1, "a"), 3: (2, "a"), 4: (3, "b"), 5: (4, "b"), 6: (6, "c"), 7: (5, "c")},
    "M": {1: (7, "c"), 2: (6, "b"), 3: (5, "b"), 4: (1, "a"), 5: (2, "a"), 6: (4, "a"), 7: (3, "a")},
}
