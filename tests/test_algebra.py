"""Structure-constant tables and hypercomplex arithmetic.

The expected basis products are written out independently here, straight
from the three published multiplication matrices, so the table builder in
the package is checked against a second transcription.
"""

import numpy as np
import pytest

from hyperts.algebra import AlgebraKind, hmul, left_mul_matrix, table_for

# (a, b) -> (d, sign) for the imaginary units, basis order (1, i, j, k).
EXPECTED_RULES = {
    AlgebraKind.QUATERNION: {
        (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    },
    AlgebraKind.COQUATERNION: {
        (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 1): (3, -1), (2, 2): (0, 1), (2, 3): (1, -1),
        (3, 1): (2, 1), (3, 2): (1, 1), (3, 3): (0, 1),
    },
    AlgebraKind.CLIFFORD11: {
        (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
        (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1),
    },
}


def basis(i):
    e = np.zeros(4)
    e[i] = 1.0
    return e


class TestTables:
    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_all_16_basis_products(self, kind):
        table = table_for(kind)
        rules = EXPECTED_RULES[kind]
        for a in range(4):
            for b in range(4):
                got = hmul(basis(a), basis(b), table)
                if a == 0:
                    want = basis(b)
                elif b == 0:
                    want = basis(a)
                else:
                    d, sign = rules[(a, b)]
                    want = sign * basis(d)
                np.testing.assert_array_equal(
                    got, want, err_msg=f"{kind.value}: e{a}*e{b}")

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_entries_and_uniqueness(self, kind):
        table = table_for(kind)
        assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
        # every product e_a e_b has exactly one nonzero coefficient
        assert np.all(np.count_nonzero(table, axis=2) == 1)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_identity_rows_and_columns(self, kind):
        table = table_for(kind)
        eye = np.eye(4)
        np.testing.assert_array_equal(table[0], eye)
        np.testing.assert_array_equal(table[:, 0, :], eye)

    def test_tables_are_fixed_and_distinct(self):
        for kind in AlgebraKind:
            a = table_for(kind)
            b = table_for(kind)
            assert a is b  # repeated calls identical
        assert not np.array_equal(table_for(AlgebraKind.QUATERNION),
                                  table_for(AlgebraKind.COQUATERNION))
        assert not np.array_equal(table_for(AlgebraKind.QUATERNION),
                                  table_for(AlgebraKind.CLIFFORD11))

    def test_signature_entries(self):
        q = table_for(AlgebraKind.QUATERNION)
        assert q[1, 2, 3] == 1 and q[1, 1, 0] == -1
        cq = table_for(AlgebraKind.COQUATERNION)
        assert cq[2, 2, 0] == 1 and cq[3, 3, 0] == 1
        cl = table_for(AlgebraKind.CLIFFORD11)
        assert cl[1, 1, 0] == 1 and cl[2, 2, 0] == -1


class TestHmul:
    def test_quaternion_hand_product(self):
        # (1+2i+3j+4k)(5+6i+7j+8k), expanded by the 16 basis products
        q = table_for(AlgebraKind.QUATERNION)
        got = hmul([1, 2, 3, 4], [5, 6, 7, 8], q)
        np.testing.assert_allclose(got, [-60, 12, 30, 24], atol=1e-12)

    def test_ij_antisymmetry(self):
        q = table_for(AlgebraKind.QUATERNION)
        np.testing.assert_array_equal(hmul(basis(1), basis(2), q), basis(3))
        np.testing.assert_array_equal(hmul(basis(2), basis(1), q), -basis(3))

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_identity_element(self, kind, rng):
        table = table_for(kind)
        for _ in range(20):
            x = rng.normal(size=4)
            np.testing.assert_allclose(hmul(basis(0), x, table), x, atol=1e-15)
            np.testing.assert_allclose(hmul(x, basis(0), table), x, atol=1e-15)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_bilinearity(self, kind, rng):
        table = table_for(kind)
        for _ in range(50):
            a, a2, b, b2 = rng.normal(size=(4, 4))
            alpha = rng.normal()
            lhs = hmul(alpha * a + a2, b, table)
            rhs = alpha * hmul(a, b, table) + hmul(a2, b, table)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            lhs = hmul(a, alpha * b + b2, table)
            rhs = alpha * hmul(a, b, table) + hmul(a, b2, table)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_quaternion_associativity(self, rng):
        q = table_for(AlgebraKind.QUATERNION)
        for _ in range(200):
            a, b, c = rng.uniform(-1, 1, size=(3, 4))
            lhs = hmul(hmul(a, b, q), c, q)
            rhs = hmul(a, hmul(b, c, q), q)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestLeftMulMatrix:
    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_identity_weight(self, kind):
        m = left_mul_matrix(basis(0), table_for(kind))
        np.testing.assert_array_equal(m, np.eye(4))

    def test_i_times_j_is_k(self):
        m = left_mul_matrix(basis(1), table_for(AlgebraKind.QUATERNION))
        np.testing.assert_array_equal(m @ basis(2), basis(3))

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_matches_hmul_on_random_pairs(self, kind, rng):
        table = table_for(kind)
        for _ in range(1000):
            w, x = rng.normal(size=(2, 4))
            np.testing.assert_allclose(left_mul_matrix(w, table) @ x,
                                       hmul(w, x, table), atol=1e-12)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_stacked_weights_match_per_element_calls(self, kind, rng):
        table = table_for(kind)
        w = rng.normal(size=(3, 2, 4))
        got = left_mul_matrix(w, table)
        assert got.shape == (3, 2, 4, 4)
        for u in range(3):
            for s in range(2):
                np.testing.assert_array_equal(got[u, s],
                                              left_mul_matrix(w[u, s], table))
