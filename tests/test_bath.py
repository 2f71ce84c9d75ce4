import math

import numpy as np
import pytest

from collisim import (
    DensityMatrix,
    Operator,
    PureState,
    ValidationError,
    coherent_bath,
    displacement,
    fock,
    fock_dm,
    partial_trace,
    product_bath,
    single_photon_bath,
)
from collisim.bath import CORRELATED_PURE, PRODUCT, BathSpec
from oracles import one_photon_amplitudes


def test_product_bath_vacuum():
    bath = product_bath(fock_dm(2, 0), 100)
    assert bath.kind == PRODUCT
    assert bath.n_steps == 100
    assert bath.d == 2
    assert np.array_equal(bath.ancilla_state(1).data, bath.ancilla_state(100).data)
    assert len(bath.etas) == 1 and np.array_equal(abs(bath.factor(100)), [[1.0], [0.0]])


def test_product_bath_thermal_eigenprobabilities():
    eta = DensityMatrix(Operator(np.diag([0.8, 0.2]).astype(complex), (2,)))
    bath = product_bath(eta, 10)
    probs = sorted(np.linalg.eigvalsh(bath.ancilla_state(7).data), reverse=True)
    assert np.allclose(probs, [0.8, 0.2])
    assert bath.factor(7).shape == (2, 2)  # one Kraus branch per population


def test_product_bath_rejects_unnormalized_state():
    with pytest.raises(ValidationError):
        product_bath(DensityMatrix(Operator(np.diag([0.7, 0.2]).astype(complex), (2,))), 5)


# ---------------------------------------------------------------------------
# coherent bath
# ---------------------------------------------------------------------------

def test_coherent_bath_zero_field_is_vacuum_product():
    direct = product_bath(fock_dm(4, 0), 7)
    from_zero = coherent_bath(0.0, omega=2.0, dt=0.1, n=7, d=4)
    assert from_zero.kind == PRODUCT
    assert from_zero.d == direct.d and from_zero.n_steps == direct.n_steps
    assert np.array_equal(from_zero.etas, direct.etas) and len(from_zero.etas) == 1


def test_coherent_bath_amplitude_magnitudes():
    z, dt, n = 1.5 + 0.5j, 0.02, 40
    bath = coherent_bath(z, omega=3.0, dt=dt, n=n, d=8)
    assert bath.kind == PRODUCT
    expected = abs(z) ** 2 * dt / (2.0 * math.pi)
    assert np.allclose(np.abs(bath.xi) ** 2, expected, atol=1e-15)


def test_coherent_bath_total_weight():
    # sum over steps of |xi_n|^2 = |z|^2 t / (2 pi)
    z, n, t = 2.0, 50, 1.0
    dt = t / n
    bath = coherent_bath(z, omega=5.0, dt=dt, n=n, d=8)
    total = float(np.sum(np.abs(bath.xi) ** 2))
    assert abs(total - abs(z) ** 2 * t / (2.0 * math.pi)) < 1e-12


def test_coherent_bath_states_are_displaced_vacua():
    z, omega, dt, d = 0.8, 2.0, 0.05, 8
    bath = coherent_bath(z, omega, dt, n=3, d=d)
    for step in (1, 3):
        xi = bath.xi[step - 1]
        disp = displacement(xi, d)
        expected = disp.data @ fock_dm(d, 0).data @ disp.data.conj().T
        assert np.max(np.abs(bath.ancilla_state(step).data - expected)) < 1e-12


def test_static_coherent_bath_is_one_ket():
    # at omega = 0 every step meets the same displaced vacuum: one ket and one xi serve all
    z, dt, n, d = 0.9 - 0.4j, 0.05, 6, 8
    bath = coherent_bath(z, omega=0.0, dt=dt, n=n, d=d)
    assert bath.n_steps == n and len(bath.etas) == len(bath.xi) == 1
    assert bath.xi[0] == z * math.sqrt(dt) / math.sqrt(2.0 * math.pi)
    moving = coherent_bath(z, omega=1e-300, dt=dt, n=n, d=d)  # the same field, stored per step
    assert len(moving.etas) == n
    for step in (1, n):
        assert np.max(np.abs(bath.ancilla_state(step).data
                             - moving.ancilla_state(step).data)) < 1e-15


def test_coherent_bath_is_one_read_only_stack():
    bath = coherent_bath(0.8, omega=2.0, dt=0.05, n=5, d=6)
    assert isinstance(bath.etas, tuple) and len(bath.etas) == 5
    assert all(ket.shape == (6,) and not ket.flags.writeable for ket in bath.etas)
    start = bath.etas[0].__array_interface__["data"][0]
    for k, ket in enumerate(bath.etas):  # row views of one C-ordered stack of kets
        assert ket.flags.c_contiguous and ket.__array_interface__["data"][0] == start + 16 * 6 * k
        f = bath.factor(k + 1)  # read as a (6, 1) factor, a view of the same row
        assert f.shape == (6, 1) and f.__array_interface__["data"][0] == start + 16 * 6 * k


def test_step_dependent_bath_names_the_first_ancilla_that_is_not_a_state():
    kets = np.array([[1.0, 0.0]] * 4, dtype=complex)
    kets[2] = [0.9**0.5, 0.0]
    kets[3] = [2.0, 0.0]
    with pytest.raises(ValidationError, match="ancilla state at step 3: .*squared norm 0.9"):
        BathSpec(kind=PRODUCT, d=2, n_steps=4, etas=kets)
    kets[2] = np.nan
    with pytest.raises(ValidationError, match="ancilla state at step 3: .*squared norm nan"):
        BathSpec(kind=PRODUCT, d=2, n_steps=4, etas=kets)
    factors = np.zeros((4, 2, 2), dtype=complex)  # Tr F F^dag of each (2, 2) factor
    factors[:, 0, 0] = 1.0
    factors[1, 1, 1] = 0.5
    with pytest.raises(ValidationError, match="ancilla state at step 2: .*squared norm 1.25"):
        BathSpec(kind=PRODUCT, d=2, n_steps=4, etas=factors)


def test_step_dependent_bath_needs_one_state_per_step():
    vacua = np.array([[1.0, 0.0]] * 3, dtype=complex)
    mixed = np.array([np.diag([0.8, 0.2])] * 3, dtype=complex)  # density matrices, not factors
    for kets in (None, vacua[:2], np.concatenate([vacua, vacua[:1]]), vacua[:, :1],
                 vacua[:, None], np.zeros((3, 2, 2, 1)), [fock(2, 0)] * 3, mixed):
        with pytest.raises(ValidationError, match="ancilla state of shape|need 1 or 3 ancilla "
                                                  "states|ancilla state at step 1: .*norm 0.68"):
            BathSpec(kind=PRODUCT, d=2, n_steps=3, etas=kets)
    bath = BathSpec(kind=PRODUCT, d=2, n_steps=3, etas=vacua)
    assert vacua.flags.writeable  # the caller's array is not frozen, only the bath's view
    assert np.array_equal(bath.ancilla_state(3).data, fock_dm(2, 0).data)
    for stack, eta in ((vacua[:1], fock_dm(2, 0).data), (np.sqrt(mixed[:1]), mixed[0])):
        bath = BathSpec(kind=PRODUCT, d=2, n_steps=3, etas=stack)  # one row serves every step
        assert len(bath.etas) == 1 and np.array_equal(bath.factor(1), bath.factor(3))
        assert np.allclose(bath.ancilla_state(3).data, eta)
    with pytest.raises(ValidationError, match="step 4 outside 1..3"):
        bath.factor(4)


@pytest.mark.parametrize("dt", [math.nan, 0.0, -0.1])
def test_coherent_bath_rejects_a_step_that_is_not_positive(dt):
    with pytest.raises(ValidationError, match="step duration must be positive"):
        coherent_bath(1.0, omega=0.0, dt=dt, n=3, d=4)


def test_coherent_bath_truncation_guard():
    # |xi|^2 = |z|^2 dt / (2 pi) = 16/(2 pi) > 2/4 at d=2
    with pytest.raises(ValidationError):
        coherent_bath(4.0, omega=0.0, dt=1.0, n=2, d=2)


def test_coherent_bath_records_truncation_diagnostic():
    bath = coherent_bath(1.0, omega=0.0, dt=0.1, n=4, d=10)
    assert 0.0 <= bath.diagnostics["truncation_fidelity"] < 1e-10


# ---------------------------------------------------------------------------
# single-photon bath
# ---------------------------------------------------------------------------

def test_single_photon_single_slot_is_one_hot_product():
    n = 4
    bath = single_photon_bath([1.0, 0.0, 0.0, 0.0], n)
    assert bath.kind == CORRELATED_PURE
    assert bath.d == 2
    # joint state is |1000>, i.e. amplitude 1 on the first ancilla's excited slot
    amps = one_photon_amplitudes(bath.phi)
    assert abs(amps[1 << (n - 1)] - 1.0) < 1e-15
    assert np.sum(np.abs(amps) > 1e-15) == 1
    first = bath.ancilla_state(1)
    assert np.allclose(first.data, fock_dm(2, 1).data)
    assert np.allclose(bath.ancilla_state(2).data, fock_dm(2, 0).data)


def test_single_photon_gaussian_envelope_marginals():
    n = 6
    t = np.arange(1, n + 1) * 0.5
    phi = np.exp(-((t - 1.5) ** 2) / 4.0)
    bath = single_photon_bath(phi, n)
    assert abs(np.sum(np.abs(bath.phi) ** 2) - 1.0) < 1e-12
    joint = PureState(one_photon_amplitudes(bath.phi), (2,) * n).density_matrix()
    for step in range(1, n + 1):
        reduced = partial_trace(joint, keep=[step - 1])
        p = abs(bath.phi[step - 1]) ** 2
        assert np.max(np.abs(reduced.data - np.diag([1 - p, p]))) < 1e-12
        # marginal exposed by the bath agrees with the partial-trace oracle
        assert np.max(np.abs(bath.ancilla_state(step).data - reduced.data)) < 1e-12


def test_single_photon_two_slot_uniform_purity():
    bath = single_photon_bath([1.0, 1.0], 2)
    marginal = bath.ancilla_state(1)
    purity = float(np.trace(marginal.data @ marginal.data).real)
    assert abs(purity - 0.5) < 1e-12


def test_single_photon_marginal_purity_formula():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    bath = single_photon_bath(phi, 5)
    for step in range(1, 6):
        p = abs(bath.phi[step - 1]) ** 2
        marginal = bath.ancilla_state(step)
        purity = float(np.trace(marginal.data @ marginal.data).real)
        assert abs(purity - (1.0 - 2.0 * p * (1.0 - p))) < 1e-12


def test_single_photon_accepts_callable_envelope():
    bath = single_photon_bath(lambda step: 1.0 if step == 2 else 0.0, 3)
    assert abs(bath.phi[1] - 1.0) < 1e-15


def test_single_photon_rejects_zero_envelope():
    with pytest.raises(ValidationError):
        single_photon_bath([0.0, 0.0, 0.0], 3)


@pytest.mark.parametrize("envelope", [[math.nan, 1.0], [math.inf, 1.0]])
def test_single_photon_rejects_non_finite_envelope(envelope):
    # NaN used to pass the norm check (abs(nan - 1) > tol is False) and give phi all NaN
    with pytest.raises(ValidationError, match="finite total weight"):
        single_photon_bath(envelope, 2)
    with pytest.raises(ValidationError, match="norm"):
        BathSpec(kind=CORRELATED_PURE, d=2, n_steps=2, phi=np.array([math.nan, 1.0]))


def test_correlated_bath_needs_one_amplitude_per_step():
    # a short phi used to be accepted and give a short trajectory; a 2-D one died unhandled
    for phi in (np.array([1.0]), [1.0], np.eye(5)[:1], None):
        with pytest.raises(ValidationError, match="needs 5 qubit amplitudes"):
            BathSpec(kind=CORRELATED_PURE, d=2, n_steps=5, phi=phi)
    bath = BathSpec(kind=CORRELATED_PURE, d=2, n_steps=2, phi=[0.6, 0.8])  # kept as an array
    assert bath.phi.dtype == complex and np.array_equal(bath.phi, [0.6, 0.8])


def test_single_photon_records_renormalization():
    bath = single_photon_bath([2.0, 0.0], 2)
    assert abs(bath.diagnostics["envelope_norm"] - 4.0) < 1e-12


@pytest.mark.parametrize("envelope, weight", [([1e200, 1.0], math.inf),
                                              ([1e300, 1j, 1e-300], math.inf),
                                              ([1e-200, 1e-210j], 0.0)])
def test_single_photon_accepts_finite_envelopes_whose_weight_leaves_a_double(envelope, weight):
    # |phi|^2 overflows or underflows a double: the amplitudes are scaled by a power of two
    # before the weight is formed, and the weight recorded is the unscaled one
    bath = single_photon_bath(envelope, len(envelope))
    top = max(envelope, key=abs)
    ratios = [complex(a) / top for a in envelope]
    total = math.sqrt(sum(abs(r) ** 2 for r in ratios))
    assert np.allclose(bath.phi, [r / total for r in ratios], rtol=1e-15, atol=0)
    assert bath.diagnostics["envelope_norm"] == weight


def test_an_envelope_scaled_by_a_power_of_two_keeps_its_bits():
    # the scaling is exact, so an envelope's amplitudes are those of the plain renormalization
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    phi[3] = complex(-0.0, 1e-150)
    plain = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)))
    for scale in (2.0**-500, 0.5, 1.0, 2.0**500):
        bath = single_photon_bath(phi * scale, 50)
        assert np.array_equal(bath.phi.view(np.uint64), plain.view(np.uint64))
