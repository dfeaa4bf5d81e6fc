import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripod_holonomy import exp_i_hermitian
from tripod_holonomy.linalg import _ordered_product

from conftest import random_hermitian

hermitian_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestExpIHermitian:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(
            exp_i_hermitian(np.zeros((4, 4)), 3.7), np.eye(4), atol=1e-14
        )

    def test_sigma_y_quarter_turn(self):
        # sigma_y embedded in the first 2x2 block; s = pi/2 gives i sigma_y
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = -1j
        a[1, 0] = 1j
        u = exp_i_hermitian(a, np.pi / 2)
        expected = np.eye(4, dtype=complex)
        expected[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_scalar_phases(self):
        u = exp_i_hermitian(np.diag([1.0, -1.0]).astype(complex), np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-13)

    @given(seed=hermitian_seeds, s=st.floats(-5, 5), t=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, seed, s, t):
        a = random_hermitian(np.random.default_rng(seed))
        left = exp_i_hermitian(a, s) @ exp_i_hermitian(a, t)
        right = exp_i_hermitian(a, s + t)
        assert np.linalg.norm(left - right) <= 1e-11

    @given(seed=hermitian_seeds, s=st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_unitary_output(self, seed, s):
        # keep ||s A|| <= 100
        a = random_hermitian(np.random.default_rng(seed), scale=5.0)
        u = exp_i_hermitian(a, s)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12


    @given(seed=hermitian_seeds, s=st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_determinant_is_trace_phase(self, seed, s):
        # det exp(isA) = exp(is Tr A): the eigenvalues used sum to the trace
        a = random_hermitian(np.random.default_rng(seed))
        det = np.linalg.det(exp_i_hermitian(a, s))
        assert abs(det - np.exp(1j * s * np.trace(a).real)) <= 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity residual"):
            exp_i_hermitian(bad, 1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="expected square matrices"):
            exp_i_hermitian(np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError, match="expected square matrices"):
            exp_i_hermitian(np.zeros(4), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            exp_i_hermitian(np.full((2, 2), np.nan), 1.0)
        with pytest.raises(ValueError):
            exp_i_hermitian(np.eye(2), np.inf)


class TestStackedExponential:
    def test_stack_equals_per_matrix_calls(self, rng):
        stack = np.stack([random_hermitian(rng, scale=s) for s in (0.1, 1.0, 30.0)])
        batched = exp_i_hermitian(stack, -0.7)
        assert batched.shape == (3, 4, 4)
        for a, u in zip(stack, batched):
            assert np.abs(u - exp_i_hermitian(a, -0.7)).max() <= 1e-15

    def test_one_non_hermitian_member_rejects_the_stack(self, rng):
        stack = np.stack([random_hermitian(rng) for _ in range(3)])
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermiticity residual"):
            exp_i_hermitian(stack, 1.0)

    def test_rejects_stacks_of_non_square_matrices(self):
        with pytest.raises(ValueError, match="expected square matrices"):
            exp_i_hermitian(np.zeros((5, 2, 3)), 1.0)


class TestOrderedProduct:
    @pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 4), (5, 4, 4), (8, 4, 4), (5, 3, 4, 4)],
                             ids=["n1", "n2", "n5", "n8", "batch"])
    def test_matches_a_plain_loop(self, rng, shape):
        # orthogonal steps: every partial product keeps norm 1
        stack = np.linalg.qr(rng.normal(size=shape))[0]
        phi = np.broadcast_to(np.eye(4), shape[1:])
        for m in stack:
            phi = m @ phi
        spare = np.empty((-(-shape[0] // 2), *shape[1:]))
        product = _ordered_product(stack.copy(), spare)
        assert product.shape == phi.shape
        assert np.abs(product - phi).max() <= 1e-13
