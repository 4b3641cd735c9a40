"""Labeled tensor algebra against brute-force index loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import apply_event_operator, random_unit_vector
from eventweave.errors import DuplicateLabel, MissingLabel, NonUnitVector
from eventweave.tensors import (
    FactorLabel,
    LabeledVector,
    ProductBra,
    SpaceType,
    contract,
    tensor_product,
)

SPIN = SpaceType("spin", 2)
TRI = SpaceType("tri", 3)
SQRT_HALF = 1.0 / math.sqrt(2.0)


def lab(lid, space=SPIN):
    return FactorLabel(lid, space)


def singlet(a="a", b="b"):
    return LabeledVector(
        [lab(a), lab(b)], np.array([0, 1, -1, 0], dtype=complex) * SQRT_HALF
    )


def random_vector(labels, rng, scale=1.0):
    size = int(np.prod([l.dim for l in labels])) if labels else 1
    return LabeledVector(
        labels, scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    )


# -- tensor_product ------------------------------------------------------------


def test_tensor_product_of_basis_vectors():
    u = LabeledVector([lab("a")], [1.0, 0.0])
    v = LabeledVector([lab("b")], [0.0, 1.0])
    out = tensor_product(u, v)
    assert out.label_ids == ("a", "b")
    assert np.array_equal(out.amps, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_product_of_unit_vectors_has_unit_norm():
    u = LabeledVector([lab("a")], [3 / 5, 4j / 5])
    v = LabeledVector([lab("b")], [SQRT_HALF, SQRT_HALF])
    assert abs(tensor_product(u, v).squared_norm() - 1.0) < 1e-12


def test_tensor_product_matches_entrywise_oracle(rng):
    u = random_vector([lab("a")], rng)
    v = random_vector([lab("b", TRI)], rng)
    out = tensor_product(u, v)
    labels, expected = reference.naive_tensor_product(*reference.parts(u), *reference.parts(v))
    assert [l for l, _ in labels] == ["a", "b"]
    assert np.max(np.abs(out.amps - np.array(expected))) < 1e-12


def test_tensor_product_rejects_shared_labels(rng):
    u = random_vector([lab("a")], rng)
    v = random_vector([lab("a")], rng)
    with pytest.raises(DuplicateLabel):
        tensor_product(u, v)


# -- contract -------------------------------------------------------------------


def test_contract_up_from_singlet_leaves_scaled_down():
    bra = ProductBra([LabeledVector([lab("a")], [1.0, 0.0])])
    out = contract(bra, singlet())
    assert out.label_ids == ("b",)
    assert np.max(np.abs(out.amps - np.array([0, SQRT_HALF]))) < 1e-15


def test_contract_everything_against_itself_gives_one(rng):
    f1 = random_unit_vector([lab("a")], rng)
    f2 = random_unit_vector([lab("b", TRI)], rng)
    psi = tensor_product(f1, f2)
    out = contract(ProductBra([f1, f2]), psi)
    assert out.labels == ()
    assert abs(complex(out) - 1.0) < 1e-12


def test_contract_matches_index_sum_oracle(rng):
    psi = random_vector([lab("a"), lab("b"), lab("c", TRI)], rng)
    fa = random_unit_vector([lab("a")], rng)
    fc = random_unit_vector([lab("c", TRI)], rng)
    out = contract(ProductBra([fa, fc]), psi)
    bra_factors = {"a": list(fa.amps), "c": list(fc.amps)}
    labels, expected = reference.naive_contract(bra_factors, *reference.parts(psi))
    assert out.label_ids == tuple(l for l, _ in labels)
    assert np.max(np.abs(out.amps - np.array(expected))) < 1e-12


def test_contract_missing_label_raises(rng):
    psi = random_vector([lab("a")], rng)
    bra = ProductBra([random_unit_vector([lab("zz")], rng)])
    with pytest.raises(MissingLabel):
        contract(bra, psi)


def test_contract_is_linear_in_state_antilinear_in_bra(rng):
    labels = [lab("a"), lab("b", TRI)]
    psi, phi = random_vector(labels, rng), random_vector(labels, rng)
    x, y = 0.3 - 1.1j, -0.7 + 0.2j
    fa = random_unit_vector([lab("a")], rng)
    bra = ProductBra([fa])
    combo = LabeledVector(labels, x * psi.amps + y * phi.amps)
    lhs = contract(bra, combo)
    rhs = x * contract(bra, psi).amps + y * contract(bra, phi).amps
    assert np.max(np.abs(lhs.amps - rhs)) < 1e-12
    phase = np.exp(0.77j)
    bra2 = ProductBra([LabeledVector([lab("a")], phase * fa.amps)])
    assert np.max(
        np.abs(contract(bra2, psi).amps - np.conj(phase) * contract(bra, psi).amps)
    ) < 1e-12


def test_contract_ignores_spectator_factors(rng):
    x = random_vector([lab("a"), lab("b")], rng)
    spectator = random_vector([lab("s", TRI)], rng)
    bra = ProductBra([random_unit_vector([lab("a")], rng)])
    lhs = contract(bra, tensor_product(x, spectator))
    rhs = tensor_product(contract(bra, x), spectator)
    assert lhs.labels == rhs.labels
    assert np.max(np.abs(lhs.amps - rhs.amps)) < 1e-12


def test_stored_label_order_is_irrelevant(rng):
    a, b, c = lab("a"), lab("b"), lab("c", TRI)
    flat = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v1 = LabeledVector([a, b, c], flat)
    # same tensor supplied in the (c, a, b) storage order
    moved = flat.reshape(2, 2, 3).transpose(2, 0, 1).reshape(-1)
    v2 = LabeledVector([c, a, b], moved)
    assert v1 == v2
    bra = ProductBra([random_unit_vector([lab("b")], rng)])
    assert contract(bra, v1) == contract(bra, v2)
    assert v1.squared_norm() == v2.squared_norm()


@pytest.mark.parametrize("name, dim", [
    ("", 2), (None, 2), (3, 2),
    ("spin", 0), ("spin", True), ("spin", 2.5), ("spin", 2.0), ("spin", "3"),
    ("spin", math.inf), ("spin", np.int64(2)),
])
def test_space_types_refuse_names_and_dims_they_would_coerce(name, dim):
    with pytest.raises(ValueError, match="space"):
        SpaceType(name, dim)


@pytest.mark.parametrize("link_id", ["", None, 5, ("a",)])
def test_factor_labels_refuse_link_ids_that_are_not_strings(link_id):
    with pytest.raises(ValueError, match="link id must be a non-empty string"):
        FactorLabel(link_id, SPIN)


# -- squared_norm ---------------------------------------------------------------


def test_squared_norm_basics(rng):
    assert LabeledVector([lab("a")], [1.0, 0.0]).squared_norm() == 1.0
    assert abs(LabeledVector([lab("a")], [SQRT_HALF, 1j * SQRT_HALF]).squared_norm() - 1) < 1e-15
    v = random_vector([lab("a"), lab("c", TRI)], rng)
    assert abs(v.squared_norm() - reference.naive_squared_norm(v.amps)) < 1e-12
    assert LabeledVector([lab("a")], [0.0, 0.0]).squared_norm() == 0.0


# -- apply_event_operator --------------------------------------------------------


def test_apply_with_full_match_returns_ket(rng):
    f1 = random_unit_vector([lab("a")], rng)
    f2 = random_unit_vector([lab("b", TRI)], rng)
    psi = tensor_product(f1, f2)
    ket = random_unit_vector([lab("fresh")], rng)
    out = apply_event_operator(1.0, ProductBra([f1, f2]), ket, psi)
    assert out.labels == ket.labels
    assert np.max(np.abs(out.amps - ket.amps)) < 1e-12


def test_apply_with_zero_weight_gives_zero_vector(rng):
    psi = tensor_product(
        random_unit_vector([lab("a")], rng), random_unit_vector([lab("b")], rng)
    )
    ket = random_unit_vector([lab("fresh", TRI)], rng)
    out = apply_event_operator(
        0.0, ProductBra([random_unit_vector([lab("a")], rng)]), ket, psi
    )
    assert out.label_ids == ("b", "fresh")
    assert out.squared_norm() == 0.0


def test_apply_spin_outcome_on_singlet_has_probability_half(rng):
    e1 = np.array([math.sin(0.8), 0.1, math.cos(0.8)])
    e1 /= np.linalg.norm(e1)
    up = reference.pauli_eigenvector(e1, +1)
    out = apply_event_operator(
        1.0,
        ProductBra([LabeledVector([lab("a")], up)]),
        random_unit_vector([lab("out")], rng),
        singlet(),
    )
    assert out.label_ids == ("b", "out")
    assert abs(out.squared_norm() - 0.5) < 1e-12


def test_apply_rejects_ket_label_clash(rng):
    psi = tensor_product(
        random_unit_vector([lab("a")], rng), random_unit_vector([lab("b")], rng)
    )
    bra = ProductBra([random_unit_vector([lab("a")], rng)])
    ket = random_unit_vector([lab("b")], rng)  # clashes with the surviving factor
    with pytest.raises(DuplicateLabel):
        apply_event_operator(1.0, bra, ket, psi)


# -- cross-cutting properties -----------------------------------------------------

amplitude_lists = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    ),
    min_size=6,
    max_size=6,
).map(lambda pairs: np.array([complex(re, im) for re, im in pairs]))


@settings(max_examples=60, deadline=None)
@given(left=amplitude_lists, right=amplitude_lists)
def test_norm_multiplies_under_tensor_product(left, right):
    u = LabeledVector([lab("u", TRI), lab("v")], left)
    v = LabeledVector([lab("w"), lab("x", TRI)], right)
    product = tensor_product(u, v)
    assert abs(
        product.squared_norm() - u.squared_norm() * v.squared_norm()
    ) <= 1e-12 * max(1.0, u.squared_norm() * v.squared_norm())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_everything_matches_the_full_loop_oracle(data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    n_factors = int(rng.integers(1, 6))
    size = 1
    labels = []
    for i in range(n_factors):
        dim = int(rng.integers(1, 5))
        if size * dim > 1024:
            dim = 1
        size *= dim
        labels.append(lab(f"f{i}", SpaceType(f"d{dim}", dim)))
    psi = random_vector(labels, rng)
    assert abs(psi.squared_norm() - reference.naive_squared_norm(psi.amps)) < 1e-10
    n_bra = int(rng.integers(1, n_factors + 1))
    chosen = [labels[i] for i in rng.choice(n_factors, n_bra, replace=False)]
    factors = [random_unit_vector([l], rng) for l in chosen]
    out = contract(ProductBra(factors), psi)
    bra_map = {f.labels[0].link_id: list(f.amps) for f in factors}
    ref_labels, ref_amps = reference.naive_contract(bra_map, *reference.parts(psi))
    assert out.label_ids == tuple(l for l, _ in ref_labels)
    if out.amps.size:
        assert np.max(np.abs(out.amps - np.array(ref_amps))) < 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_contract_equals_the_tensordot_form_bit_for_bit(data):
    """1-4 labels of dimension 1-4, any subset of them contracted, in bra
    order: the same amplitudes as one ``np.tensordot`` per factor."""
    dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    labels = [lab(f"f{i}", SpaceType(f"d{d}", d)) for i, d in enumerate(dims)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    psi = random_vector(labels, rng)
    chosen = data.draw(st.lists(st.sampled_from(labels), unique=True))
    bra = ProductBra([random_unit_vector([label], rng) for label in chosen])
    got, want = contract(bra, psi), reference.tensordot_contract(bra, psi)
    assert got.labels == want.labels and np.array_equal(got.amps, want.amps)


# -- ProductBra validation ---------------------------------------------------------


def test_product_bra_requires_unit_factors():
    with pytest.raises(NonUnitVector):
        ProductBra([LabeledVector([lab("a")], [0.5, 0.0])])


def test_product_bra_rejects_repeated_links(rng):
    f = random_unit_vector([lab("a")], rng)
    with pytest.raises(DuplicateLabel):
        ProductBra([f, random_unit_vector([lab("a")], rng)])
