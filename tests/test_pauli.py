import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthub.pauli import _PARITY16, PauliSum


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
        assert np.abs(a.dagger().to_dense() - a.to_dense().conj().T).max() < 1e-12

    def test_hermitian_detection(self):
        a = random_sum(3, 5, 3)
        h = a + a.dagger()
        assert h.is_hermitian()
        assert not (h + PauliSum.from_word(3, {0: "X"}, 1j)).is_hermitian()

    def test_pauli_words(self):
        y = PauliSum.from_word(1, {0: "Y"})
        expected = np.array([[0, -1j], [1j, 0]])
        assert np.abs(y.to_dense() - expected).max() < 1e-15

    def test_zero_terms_drop(self):
        a = PauliSum.from_word(2, {0: "X"})
        assert (a - a).n_terms == 0
        assert (a - a).is_zero()

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            PauliSum(17)


class TestMatvec:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_dense(self, seed):
        op = random_sum(4, 6, seed)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.abs(op.matvec(v) - op.to_dense() @ v).max() < 1e-12

    def test_accumulates_into_out(self):
        op = PauliSum.from_word(2, {0: "Z"})
        v = np.ones(4, dtype=complex)
        out = np.ones(4, dtype=complex)
        op.matvec(v, out)
        assert np.allclose(out, 1 + op.to_dense() @ v)


class TestDense:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_dense_matches_matvec_on_basis(self, seed):
        op = random_sum(4, 8, seed)
        mat = op.to_dense()
        for col in range(16):
            basis = np.zeros(16, dtype=complex)
            basis[col] = 1.0
            assert np.abs(mat[:, col] - op.matvec(basis)).max() < 1e-13


class TestParityTable:
    def test_parity_values(self):
        for x in (0, 1, 3, 0b1011, 0xFFFF):
            assert _PARITY16[x] == bin(x).count("1") % 2
            # the compiled diagonal of Z^x carries the same parity sign
            diag = PauliSum(16, {(0, x): 1.0}).compile()[0]
            assert diag[x] == (-1) ** bin(x).count("1")
