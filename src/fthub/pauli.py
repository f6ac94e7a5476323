"""Sparse Pauli-string algebra for qubit operators on up to 16 qubits.

A string is stored as (xmask, zmask) -> coefficient, representing
``coeff * X^xmask Z^zmask`` (Z applied first).  Y_q is ``i X_q Z_q``, so any
Pauli word fits this form with a complex coefficient.  Products, sums and
commutators stay in this representation.  For numerics a sum is compiled on
demand into one diagonal per X mask, ``op = sum_x X^x diag(d_x)`` with
``d_x[i] = sum_z c_{x,z} (-1)^popcount(i & z)``; dense matrices and the
oracle's sector blocks are read off these groups.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-14

# parity of the low 16 bits; qubit counts are capped at 16 so one lookup suffices
_PARITY16 = np.zeros(1 << 16, dtype=np.uint8)
for _b in range(16):
    _PARITY16[1 << _b:2 << _b] = _PARITY16[: 1 << _b] ^ 1


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


class PauliSum:
    """A complex linear combination of Pauli strings on ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: dict | None = None):
        if n_qubits > 16:
            raise ValueError("qubit count capped at 16 for the exact layer")
        self.n_qubits = n_qubits
        self.terms = {} if terms is None else terms

    def copy(self) -> "PauliSum":
        return PauliSum(self.n_qubits, dict(self.terms))

    # -- algebra ---------------------------------------------------------------
    def _iadd_term(self, key, coeff):
        c = self.terms.get(key, 0.0) + coeff
        if abs(c) <= _TOL:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other: "PauliSum") -> "PauliSum":
        out = self.copy()
        for key, c in other.terms.items():
            out._iadd_term(key, c)
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        out = self.copy()
        for key, c in other.terms.items():
            out._iadd_term(key, -c)
        return out

    def __mul__(self, scalar: complex) -> "PauliSum":
        if abs(scalar) == 0:
            return PauliSum(self.n_qubits)
        return PauliSum(self.n_qubits, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product.  (X^a Z^b)(X^c Z^d) = (-1)^(b.c) X^(a^c) Z^(b^d)."""
        out = PauliSum(self.n_qubits)
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                sign = -1.0 if _parity(z1 & x2) else 1.0
                out._iadd_term((x1 ^ x2, z1 ^ z2), sign * c1 * c2)
        return out

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return (self @ other) - (other @ self)

    def anticommutator(self, other: "PauliSum") -> "PauliSum":
        return (self @ other) + (other @ self)

    # -- numeric form ----------------------------------------------------------------
    def compile(self) -> dict:
        """``{x: d_x}`` with ``op = sum_x X^x diag(d_x)`` (the diagonal acts
        first); ``d_x`` is real when every coefficient of its group is."""
        idx = np.arange(1 << self.n_qubits)
        groups: dict = {}
        for (x, z), c in self.terms.items():
            col = c * (1.0 - 2.0 * _PARITY16[idx & z])
            groups[x] = groups[x] + col if x in groups else col
        return groups

    def to_dense(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=np.complex128)
        idx = np.arange(dim)
        for x, d in self.compile().items():
            mat[idx ^ x, idx] += d
        return mat
