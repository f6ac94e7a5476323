import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dagger, is_hermitian, is_zero, pauli_word
from fthub.pauli import _PARITY16, PauliSum

# the 2 x 2 Paulis of a word letter
PAULI_2X2 = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
             "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def random_sum(n_qubits, n_terms, seed):
    rng = np.random.default_rng(seed)
    out = PauliSum(n_qubits)
    for _ in range(n_terms):
        x = int(rng.integers(1 << n_qubits))
        z = int(rng.integers(1 << n_qubits))
        c = complex(rng.standard_normal(), rng.standard_normal())
        out = out + PauliSum(n_qubits, {(x, z): c})
    return out


class TestAlgebra:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_product_matches_dense(self, seed):
        a = random_sum(3, 4, seed)
        b = random_sum(3, 4, seed + 1)
        lhs = (a @ b).to_dense()
        rhs = a.to_dense() @ b.to_dense()
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_commutator_matches_dense(self, seed):
        a = random_sum(3, 4, seed)
        b = random_sum(3, 4, seed + 7)
        lhs = a.commutator(b).to_dense()
        da, db = a.to_dense(), b.to_dense()
        assert np.abs(lhs - (da @ db - db @ da)).max() < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_dagger_matches_dense(self, seed):
        a = random_sum(3, 5, seed)
        assert np.abs(dagger(a).to_dense() - a.to_dense().conj().T).max() < 1e-12

    def test_hermitian_detection(self):
        a = random_sum(3, 5, 3)
        h = a + dagger(a)
        assert is_hermitian(h)
        assert not is_hermitian(h + pauli_word(3, {0: "X"}, 1j))

    def test_pauli_words(self):
        y = pauli_word(1, {0: "Y"})
        assert np.abs(y.to_dense() - PAULI_2X2["Y"]).max() < 1e-15

    def test_zero_terms_drop(self):
        a = pauli_word(2, {0: "X"})
        assert (a - a).terms == {}
        assert is_zero(a - a)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            PauliSum(17)


class TestDense:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_dense_matches_matvec_on_basis(self, seed):
        # each column of to_dense is the operator applied to a basis state,
        # applied here as a sum of Kronecker products of 2 x 2 Paulis
        rng = np.random.default_rng(seed)
        op, ref = PauliSum(4), np.zeros((16, 16), dtype=complex)
        for _ in range(8):
            word = {q: "IXYZ"[int(rng.integers(4))] for q in range(4)}
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            op = op + pauli_word(4, {q: p for q, p in word.items() if p != "I"},
                                 coeff)
            # qubit q is bit q of the basis index: qubit 3 is the left factor
            kron = np.eye(1)
            for q in reversed(range(4)):
                kron = np.kron(kron, PAULI_2X2[word[q]])
            ref += coeff * kron
        mat = op.to_dense()
        for col in range(16):
            basis = np.zeros(16, dtype=complex)
            basis[col] = 1.0
            assert np.abs(mat[:, col] - ref @ basis).max() < 1e-13


class TestParityTable:
    def test_parity_values(self):
        for x in (0, 1, 3, 0b1011, 0xFFFF):
            assert _PARITY16[x] == bin(x).count("1") % 2
            # the compiled diagonal of Z^x carries the same parity sign
            diag = PauliSum(16, {(0, x): 1.0}).compile()[0]
            assert diag[x] == (-1) ** bin(x).count("1")
