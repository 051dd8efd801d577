"""Four-dimensional hypercomplex algebras via structure constants.

Three algebras are supported, all with basis (1, i, j, k): quaternions,
coquaternions (split quaternions), and the Clifford algebra Cl(1,1).
Each is defined by a dense 4x4x4 structure-constant tensor so that a
one multiplication routine serves all three.

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


# Multiplication rules for the imaginary units, one dict per algebra.
# (a, b) -> (d, sign) meaning e_a * e_b = sign * e_d, with indices
# 1 = i, 2 = j, 3 = k and 0 the real unit.
_QUATERNION_RULES = {
    (1, 1): (0, -1), (1, 2): (3, +1), (1, 3): (2, -1),
    (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, +1),
    (3, 1): (2, +1), (3, 2): (1, -1), (3, 3): (0, -1),
}

_COQUATERNION_RULES = {
    (1, 1): (0, -1), (1, 2): (3, +1), (1, 3): (2, -1),
    (2, 1): (3, -1), (2, 2): (0, +1), (2, 3): (1, -1),
    (3, 1): (2, +1), (3, 2): (1, +1), (3, 3): (0, +1),
}

_CLIFFORD11_RULES = {
    (1, 1): (0, +1), (1, 2): (3, +1), (1, 3): (2, +1),
    (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, +1),
    (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, +1),
}

_RULES = {
    AlgebraKind.QUATERNION: _QUATERNION_RULES,
    AlgebraKind.COQUATERNION: _COQUATERNION_RULES,
    AlgebraKind.CLIFFORD11: _CLIFFORD11_RULES,
}


def _build_table(rules: dict) -> np.ndarray:
    """Assemble the 4x4x4 tensor c[a, b, d] = coefficient of e_d in e_a * e_b."""
    c = np.zeros((4, 4, 4), dtype=np.float64)
    for a in range(4):
        for b in range(4):
            if a == 0:
                c[a, b, b] = 1.0  # 1 * e_b = e_b
            elif b == 0:
                c[a, b, a] = 1.0  # e_a * 1 = e_a
            else:
                d, sign = rules[(a, b)]
                c[a, b, d] = float(sign)
    c.setflags(write=False)
    return c


_TABLES = {kind: _build_table(rules) for kind, rules in _RULES.items()}


def table_for(kind: AlgebraKind) -> np.ndarray:
    """Return the fixed (read-only) structure-constant tensor for an algebra.

    The returned array has shape (4, 4, 4); entry [a, b, d] is the
    coefficient of basis element e_d in the product e_a * e_b.
    """
    return _TABLES[AlgebraKind(kind)]


def hmul(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply two hypercomplex elements under the given structure constants.

    `a` and `b` are length-4 component vectors (real, i, j, k).
    result_d = sum_{p,q} a_p * b_q * c[p, q, d]; bilinear in both slots.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.einsum("p,q,pqd->d", a, b, table)


def hadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise sum of two hypercomplex elements."""
    return np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)


def left_mul_matrix(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix M of left multiplication by w: M @ vec(x) = vec(w * x).

    M[d, q] = sum_p w_p * c[p, q, d]. ``w`` may carry leading axes
    ([..., 4] -> [..., 4, 4]), one matrix per element; HyperDense builds its
    block weight matrix this way, so this is the only place the forward map
    contracts the structure constants.
    """
    w = np.asarray(w, dtype=np.float64)
    return np.einsum("...p,pqd->...dq", w, table)
