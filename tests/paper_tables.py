"""The paper's stated numbers for each model, written out as literal tables.

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

#: the cone limits of x^2/t^2 and of the vertical coefficient over t
CONE_REFS = {
    "Q": {"a^2/t^2": 0.125, "b^2/t^2": 0.125, "c^2/t^2": 0.125, "|f|/t": 0.75},
    "M": {"a^2/t^2": 0.75, "b^2/t^2": 0.5, "c/t": 2.0},
}

#: the integrated primitive's column name
PRIMITIVE_NAME = {"Q": "F", "M": "C"}

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
