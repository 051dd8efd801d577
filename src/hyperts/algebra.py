"""Four-dimensional hypercomplex algebras via structure constants.

Three algebras are supported, all with basis (1, i, j, k) indexed 0-3:
quaternions, coquaternions (split quaternions), and the Clifford algebra
Cl(1,1). In each, e_a * e_b = s[a][b] * e_(a XOR b), with sign +1 when a
factor is the real unit, so the algebras differ only in the signs s of the
nine imaginary products. Each is held as a dense 4x4x4 structure-constant
tensor so that one multiplication routine serves all three.

Component order is fixed everywhere as (real, i, j, k).
"""

from __future__ import annotations

import enum

import numpy as np


class AlgebraKind(enum.Enum):
    """The three supported 4D algebras."""

    QUATERNION = "quaternion"
    COQUATERNION = "coquaternion"
    CLIFFORD11 = "cl11"


# e_a * e_b = s[a][b] * e_(a XOR b); rows a and columns b run over i, j, k.
_SIGNS = {
    AlgebraKind.QUATERNION: ((-1, +1, -1), (-1, -1, +1), (+1, -1, -1)),
    AlgebraKind.COQUATERNION: ((-1, +1, -1), (-1, +1, -1), (+1, +1, +1)),
    AlgebraKind.CLIFFORD11: ((+1, +1, +1), (-1, -1, +1), (-1, -1, +1)),
}


def _build_table(signs) -> np.ndarray:
    """Assemble the 4x4x4 tensor c[a, b, d] = coefficient of e_d in e_a * e_b."""
    c = np.zeros((4, 4, 4), dtype=np.float64)
    for a in range(4):
        for b in range(4):
            c[a, b, a ^ b] = signs[a - 1][b - 1] if a and b else 1.0
    c.setflags(write=False)
    return c


_TABLES = {kind: _build_table(signs) for kind, signs in _SIGNS.items()}


def table_for(kind: AlgebraKind) -> np.ndarray:
    """Return the fixed (read-only) structure-constant tensor for an algebra.

    The returned array has shape (4, 4, 4); entry [a, b, d] is the
    coefficient of basis element e_d in the product e_a * e_b.
    """
    return _TABLES[AlgebraKind(kind)]


def hmul(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply two hypercomplex elements under the given structure constants.

    `a` and `b` are length-4 component vectors (real, i, j, k); the product
    is left multiplication by `a` applied to `b`.
    """
    return left_mul_matrix(a, table) @ b


def left_mul_matrix(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix M of left multiplication by w: M @ vec(x) = vec(w * x).

    M[d, q] = sum_p w_p * c[p, q, d]. ``w`` may carry leading axes
    ([..., 4] -> [..., 4, 4]), one matrix per element; HyperDense builds its
    block weight matrix this way, so this is the only place the forward map
    contracts the structure constants.
    """
    w = np.asarray(w, dtype=np.float64)
    return np.einsum("...p,pqd->...dq", w, table)
