"""The per-model records: their shape, the lookup, and the facts computed
from them against the paper's stated numbers."""

import pytest

from holoflow.homogeneous import MODEL_SPECS, CosetModel, ModelError, _algebra, get_model, model_spec
from holoflow.integrate import ORBIT_COLLAPSING, OrbitError, OrbitSpec
from holoflow.verify import _lattice_gcd
from paper_tables import FRAME_MAP, ORBIT_CATALOG, PRIMITIVE_NAME


@pytest.mark.parametrize("kind", sorted(MODEL_SPECS))
def test_every_record_is_well_formed(kind):
    spec = MODEL_SPECS[kind]
    names = spec.state_names
    assert spec.kind == kind
    assert len(set(names)) == len(names)
    # the modules pair with the state names and split the tangent space
    assert len(spec.modules) == len(names)
    assert sorted(i for module in spec.modules for i in module) == list(range(CosetModel.TANGENT))
    # the frame map covers slots 1-7, each tangent generator once, with state symbols
    assert sorted(spec.frame_map) == list(range(1, 8))
    assert sorted(g for g, _ in spec.frame_map.values()) == list(range(1, 8))
    assert {x for _, x in spec.frame_map.values()} <= set(names)
    # the closed form is affine in every state name but the vertical one
    assert [x for x, _, _ in spec.affine] == list(names[:-1])
    assert all(m != 0 and p >= 1 for _, m, p in spec.affine)
    assert spec.cone_label in (f"|{names[-1]}|/t", f"{names[-1]}/t")
    assert len(spec.rotation_multiples) == len(CosetModel.PLANES)
    # catalog rows name state symbols; the vertical one collapses on every
    # singular orbit, and its slope is left to the circle action
    keys = [row.orbit_key for row in spec.catalog if row.orbit_key]
    assert len(set(keys)) == len(keys) and "principal" not in keys
    for row in spec.catalog:
        assert set(row.collapsing) <= set(names)
        assert set(row.required) <= set(row.collapsing) - {names[-1]}
        assert bool(row.orbit_key) == (names[-1] in row.collapsing)
    # the circle's period is a whole number of lattice steps
    assert (spec.circle_period / _lattice_gcd(*spec.circle_lattice)).denominator == 1
    # the unit model takes one index per index name; its Cartan is a rank-2
    # subalgebra of the isotropy algebra, so each element over g is
    # q-orthogonal to the tangent basis
    model = get_model(kind, (1,) * len(spec.index_names))
    assert model.modules == spec.modules and model.symbols.base == names
    cartan, g_norms = spec.cartan(model), _algebra(kind)[1]
    assert len(cartan) == 2
    for _, x in cartan:
        assert not any(sum(c * p.get(a, 0) * g_norms[a] for a, c in x.items()) for _, p in model.basis[: model.TANGENT])


@pytest.mark.parametrize("kind", sorted(MODEL_SPECS))
def test_computed_names_and_patterns_are_the_papers(kind):
    spec = MODEL_SPECS[kind]
    assert spec.primitive_name == PRIMITIVE_NAME[kind]
    assert spec.frame_map == FRAME_MAP[kind]
    pattern = {"principal": ()}
    pattern.update((row.orbit_key, row.collapsing) for row in ORBIT_CATALOG[kind] if row.orbit_key)
    assert ORBIT_COLLAPSING[kind] == pattern and list(ORBIT_COLLAPSING[kind]) == list(pattern)


def test_model_spec_reads_either_case_or_a_model():
    for kind, spec in MODEL_SPECS.items():
        assert model_spec(kind) is spec
        assert model_spec(kind.lower()) is spec
        assert model_spec(get_model(kind, (1,) * len(spec.index_names))) is spec


@pytest.mark.parametrize("kind", ["X", "", "qm", "Q "])
def test_model_spec_rejects_an_unknown_kind(kind):
    with pytest.raises(ModelError, match=f"^unknown model kind {kind.upper()!r}$"):
        model_spec(kind)
    with pytest.raises(OrbitError, match="unknown model kind"):
        OrbitSpec(kind, "principal", {})
