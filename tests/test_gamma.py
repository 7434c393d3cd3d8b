import numpy as np
import pytest

from flrw_dirac.gamma import BASIS, apply, build_basis

I2 = np.eye(2)
I4 = np.eye(4)
ZERO4 = np.zeros((4, 4))
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def anticommutator(a, b):
    """AB + BA."""
    return a @ b + b @ a


def test_g0_applied_twice_is_identity():
    b = build_basis()
    assert np.array_equal(b.g0 @ b.g0, I4.astype(complex))


def test_g5_block_form():
    expected = np.block([[np.zeros((2, 2)), -I2], [-I2, np.zeros((2, 2))]])
    assert np.array_equal(BASIS.g5, expected.astype(complex))
    # definition agrees with the product form exactly
    assert np.array_equal(BASIS.g5, -1j * BASIS.g0 @ BASIS.g1 @ BASIS.g2 @ BASIS.g3)


@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("nu", range(4))
def test_clifford_relations_exact(mu, nu):
    got = anticommutator(BASIS.gammas[mu], BASIS.gammas[nu])
    assert np.array_equal(got, 2.0 * ETA[mu, nu] * I4.astype(complex))


def test_anticommutator_examples():
    assert np.array_equal(anticommutator(BASIS.g0, BASIS.g0), 2 * I4.astype(complex))
    assert np.array_equal(anticommutator(BASIS.g1, BASIS.g1), -2 * I4.astype(complex))
    assert np.array_equal(anticommutator(BASIS.g5, BASIS.g2), ZERO4.astype(complex))
    assert np.array_equal(anticommutator(BASIS.g1, BASIS.g2), ZERO4.astype(complex))


def test_apply_identity_and_g0():
    v = np.array([1.0, 2.0 + 1j, -0.5, 0.25j])
    assert np.array_equal(apply(I4.astype(complex), v), v)
    got = apply(BASIS.g0, np.array([1.0, 0.0, 1.0, 0.0], dtype=complex))
    assert np.array_equal(got, np.array([1.0, 0.0, -1.0, 0.0], dtype=complex))


def test_apply_rejects_wrong_leading_axis():
    with pytest.raises(ValueError):
        apply(BASIS.g0, np.zeros((3, 5), dtype=complex))


def test_g2_g0_g1_product_block_form():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    product = BASIS.g2 @ BASIS.g0 @ BASIS.g1
    expected = -1j * np.block(
        [[BASIS.sigma3, np.zeros((2, 2))], [np.zeros((2, 2)), -BASIS.sigma3]]
    )
    assert np.array_equal(product, expected)
    assert np.allclose(apply(product, v), expected @ v)


def test_projectors():
    b = BASIS
    assert np.array_equal(b.gamma_u, (I4 + b.g0) / 2)
    assert np.array_equal(b.gamma_l, (I4 - b.g0) / 2)
    assert np.array_equal(b.gamma_u @ b.gamma_u, b.gamma_u)
    assert np.array_equal(b.gamma_l @ b.gamma_l, b.gamma_l)
    assert np.array_equal(b.gamma_u @ b.gamma_l, ZERO4.astype(complex))
    assert np.array_equal(b.gamma_u + b.gamma_l, I4.astype(complex))


def test_alphas_hermitian_exact():
    for a in BASIS.alphas:
        assert np.array_equal(a, a.conj().T)


def test_transpose_identities_exact():
    b = BASIS
    assert np.array_equal(b.g1.T @ b.g0 @ b.g2, b.g2 @ b.g0 @ b.g1)
    assert np.array_equal(b.g2.T @ b.g0 @ b.g2, b.g2 @ b.g0 @ b.g2)
    assert np.array_equal(b.g3.T @ b.g0 @ b.g2, b.g2 @ b.g0 @ b.g3)
    assert np.array_equal(b.g2 @ b.g0 @ b.g2, b.g0)


def test_g0_g5_anticommute_exact():
    assert np.array_equal(BASIS.g0 @ BASIS.g5, -BASIS.g5 @ BASIS.g0)


def test_basis_matrices_are_readonly():
    with pytest.raises(ValueError):
        BASIS.g0[0, 0] = 5.0
