"""Independent reference implementations the tests hold the library to.

Each follows the textbook definition directly, on the full joint space,
with no structure exploited: the collision unitary from one `expm` of the
full generator, a single-photon bath as an explicit vector of 2^N
amplitudes evolved without any intermediate trace-out, and the emergent
generator's terms over the eigenbasis of the ancilla state.
"""

import numpy as np
import scipy.linalg

from collisim import annihilator


def oracle_unitary(spec, step):
    """U = exp(-i (H (x) I + g (b (x) a^dag + b^dag (x) a)) dt) for 1-based `step`."""
    h = spec.h_sys.data if spec.h_sys_table is None else spec.h_sys_table[step - 1]
    a = annihilator(spec.d_anc).data
    b = spec.coupling.data
    v = np.kron(b, a.conj().T) + np.kron(b.conj().T, a)
    gen = np.kron(h, np.eye(spec.d_anc)) + spec.coupling_strength * v
    return scipy.linalg.expm(-1j * spec.dt * gen)


def one_photon_amplitudes(phi):
    """sum_k phi_k |1_k> on n qubit ancillas as 2^n amplitudes; ancilla k is the
    k-th tensor factor, so its excited bit sits n - k places from the right."""
    n = len(phi)
    amps = np.zeros(2**n, dtype=complex)
    amps[[1 << (n - k) for k in range(1, n + 1)]] = phi
    return amps


def embed_pair_unitary(u: np.ndarray, n_anc: int, target: int) -> np.ndarray:
    """Unitary on S (x) anc_1..anc_N acting as u on (S, anc_target); qubit ancillas."""
    d_s = u.shape[0] // 2
    dims = [d_s] + [2] * n_anc
    full = np.kron(u, np.eye(2 ** (n_anc - 1)))
    # full acts on ordering (S, target, others); permute into place
    order = [0, target] + [k for k in range(1, n_anc + 1) if k != target]
    perm = np.argsort(order)
    t = full.reshape(dims + dims)  # every ancilla is a qubit, so (S, target, others) has dims too
    t = np.transpose(t, list(perm) + [p + len(dims) for p in perm])
    side = d_s * 2**n_anc
    return t.reshape(side, side)


def dense_correlated_marginals(spec, amps, m0s):
    """System marginals before and after each collision, shape (u, n + 1, d_S, d_S), for
    each of the u matrices in m0s against the bath state |amps>.

    The joint operator m0 (x) |amps><amps| is evolved whole, with no trace-out
    until the marginal is read: it is K_n m0 K_n^dag with
    K_n = U_n ... U_1 (I (x) |amps>) and U_k embedded on (S, ancilla k).
    """
    d_s, n = spec.d_sys, spec.n_steps
    k = np.kron(np.eye(d_s), amps[:, None])
    marginals = [m0s]
    for step in range(1, n + 1):
        k = embed_pair_unitary(oracle_unitary(spec, step), n, step) @ k
        joint = (k @ m0s @ k.conj().T).reshape(-1, d_s, 2**n, d_s, 2**n)
        marginals.append(np.einsum("uiaja->uij", joint))
    return np.stack(marginals, axis=1)


def eigenbasis_generator(v, eta, d_s):
    """(h', [J]) of the interaction v on S (x) ancilla against the ancilla state eta: the shift
    h' = Tr_a[v (I (x) eta)] from the full product, and the jumps sqrt(p_j) <e_i|v|e_j> over the
    eigenpairs (p_j, e_j) of eta, round-off eigenvalues below 0 clipped to 0 and none dropped."""
    d_a = eta.shape[0]
    weighted = (v @ np.kron(np.eye(d_s), eta)).reshape(d_s, d_a, d_s, d_a)
    h_prime = np.einsum("iaja->ij", weighted)
    p, e = np.linalg.eigh(eta)
    v4 = v.reshape(d_s, d_a, d_s, d_a)
    jumps = [np.sqrt(max(p[j], 0.0)) * np.einsum("a,satb,b->st", e[:, i].conj(), v4, e[:, j])
             for j in range(d_a) for i in range(d_a)]
    return h_prime, jumps
