"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np

from collisim import (
    CollisionSpec,
    DensityMatrix,
    FieldConfig,
    GaussianEnvelope,
    Operator,
    bloch_run,
    choi_of_collision,
    convergence_study,
    discretize_input_output,
    displacement,
    fock_dm,
    generator_from_collision,
    product_bath,
    run_product,
    single_photon_bath,
    single_photon_run,
    spontaneous_emission_run,
    step_map_choi,
    trace_distance_series,
)
from collisim.cli import main
from collisim.scenarios import default_emitter

H2, LOWER, EXCITED = default_emitter()


def _record(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def make_cfg(kind="vacuum", gamma=1.0, t_final=1.0, n_steps=100, rho0=None, **kw):
    return FieldConfig(kind=kind, gamma=gamma, t_final=t_final, n_steps=n_steps,
                       h_sys=H2, coupling=LOWER, rho0=rho0 or EXCITED, **kw)


def test_criterion_1_spontaneous_emission_reproduction():
    start = time.perf_counter()
    traj_cm, _, _ = spontaneous_emission_run(make_cfg(n_steps=1000))
    elapsed = time.perf_counter() - start
    rho_ee = traj_cm.observables["excited_population"][-1].real
    err = abs(rho_ee - math.exp(-1.0))
    _record(1, err < 5e-3 and elapsed < 5.0,
            f"|rho_ee - 1/e| = {err:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_rate_identity():
    gamma = 1.0
    exact = []
    for n in (10, 100, 1000, 10000):
        spec, _ = discretize_input_output(make_cfg(gamma=gamma, n_steps=n))
        exact.append(spec.rate == gamma)
    _record(2, all(exact), f"rate == gamma bitwise for N in 10..10^4: {exact}")


def test_criterion_3_generator_extraction():
    start = time.perf_counter()
    # vacuum: no Hamiltonian shift, single decay jump equal to the coupling
    spec, field_bath = discretize_input_output(make_cfg(n_steps=100))
    gen = generator_from_collision(spec, field_bath.ancilla_state(1))
    vacuum_ok = (
        np.max(np.abs(gen.h_eff.data - spec.h_sys.data)) < 1e-12
        and len(gen.jumps) == 1
        and gen.jumps[0][1] == 1.0
        and np.max(np.abs(gen.jumps[0][0].data - LOWER.data)) < 1e-12
    )

    # coherent ancilla at d=12, |xi| = 0.1: drive Hamiltonian plus jump pair
    d, xi, gamma, g = 12, 0.1, 1.0, 10.0
    spec_c = CollisionSpec(h_sys=H2, coupling=LOWER, dt=gamma / g**2, n_steps=1,
                           d_anc=d, gamma=gamma)
    disp = displacement(xi, d)
    eta = DensityMatrix(Operator(disp.data @ fock_dm(d, 0).data @ disp.data.conj().T, (d,)))
    gen_c = generator_from_collision(spec_c, eta)
    drive = g * (np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T)
    h_err = float(np.max(np.abs(gen_c.h_eff.data - drive)))

    c_op = np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T

    def dissipator(jumps):
        eye = np.eye(2)
        out = np.zeros((4, 4), dtype=complex)
        for l, rate in jumps:
            ldl = l.conj().T @ l
            out += rate * (np.kron(l, l.conj())
                           - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
        return out

    got = dissipator([(op.data, rate) for op, rate in gen_c.jumps])
    want = dissipator([(LOWER.data, gamma), (c_op, gamma)])
    pair_err = float(np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - start
    _record(3, vacuum_ok and h_err < 1e-6 and pair_err < 1e-6 and elapsed < 1.0,
            f"vacuum structure {vacuum_ok}, |H' - g(xi* b + xi b+)| = {h_err:.2e}, "
            f"jump-pair dissipator error = {pair_err:.2e}, runtime {elapsed:.2f}s")


def test_criterion_4_first_order_convergence():
    start = time.perf_counter()
    cfg = make_cfg(n_steps=100)
    report = convergence_study(cfg, [100, 200, 400, 800])
    control = convergence_study(cfg, [100, 200, 400, 800], fixed_g=math.sqrt(1.0 / 0.01))
    elapsed = time.perf_counter() - start
    _record(4, -1.3 <= report.slope <= -0.7 and control.slope > -0.3 and elapsed < 60.0,
            f"slope = {report.slope:.3f}, fixed-g slope = {control.slope:.3f}, "
            f"runtime {elapsed:.1f}s")


def test_criterion_5_optical_bloch_equations():
    start = time.perf_counter()

    def max_pairwise(n):
        cfg = make_cfg(kind="coherent", z=3.0, omega=0.0, gamma=1.0,
                       t_final=2.0, n_steps=n, d_anc=12)
        a, b, c = bloch_run(cfg)
        return max(trace_distance_series(a, b).max(),
                   trace_distance_series(a, c).max(),
                   trace_distance_series(b, c).max())

    at_n = max_pairwise(2000)
    at_2n = max_pairwise(4000)
    elapsed = time.perf_counter() - start
    _record(5, at_n < 1e-2 and at_2n <= 0.7 * at_n and elapsed < 120.0,
            f"max pairwise distance {at_n:.2e} at N=2000, {at_2n:.2e} at N=4000, "
            f"runtime {elapsed:.1f}s")


def test_criterion_6_cp_divisibility_of_product_collisions():
    rng = np.random.default_rng(2024)
    min_eig = 0.0
    max_tp_err = 0.0
    for _ in range(100):
        d_anc = int(rng.integers(2, 4))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = Operator(m + m.conj().T, (2,))
        b = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), (2,))
        spec = CollisionSpec(h_sys=h, coupling=b, dt=float(rng.uniform(0.01, 0.5)),
                             n_steps=1, d_anc=d_anc, g=float(rng.uniform(0.1, 3.0)))
        w = rng.standard_normal((d_anc, d_anc)) + 1j * rng.standard_normal((d_anc, d_anc))
        eta_m = w @ w.conj().T
        eta = DensityMatrix(Operator(eta_m / np.trace(eta_m), (d_anc,)))
        choi = choi_of_collision(spec, eta)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(choi.data)[0]))
        marginal = np.einsum(choi.data.reshape(2, 2, 2, 2), [0, 1, 0, 3], [1, 3])
        max_tp_err = max(max_tp_err, float(np.max(np.abs(marginal - np.eye(2)))))
    _record(6, min_eig >= -1e-9 and max_tp_err < 1e-10,
            f"min Choi eigenvalue {min_eig:.2e} over 100 maps, "
            f"max trace-preservation defect {max_tp_err:.2e}")


def test_criterion_7_memory_witness():
    # (a) frozen non-CP fixture: two-step uniform envelope, g dt = pi/3
    spec = CollisionSpec(h_sys=H2, coupling=LOWER, dt=1.0, n_steps=2, d_anc=2,
                         g=math.pi / 3)
    corr = single_photon_bath([1.0, 1.0], 2)
    min_eig = float(np.linalg.eigvalsh(step_map_choi(spec, corr, 2).data)[0])
    frozen_ok = min_eig < -1e-6 and abs(min_eig - (-1.125)) < 1e-9

    # (b) frozen revival fixture: Gaussian photon, width 3/gamma, N = 12
    cfg = make_cfg(kind="single_photon", gamma=1.0, t_final=6.0, n_steps=12,
                   envelope=GaussianEnvelope(center=3.0, width=3.0))
    _, _, report = single_photon_run(cfg)
    revival_ok = len(report.revival_steps) >= 1
    max_revival = float(np.max(np.diff(report.distances)))

    # product-bath controls: step-2 map stays CP, no trace-distance revival
    control = product_bath(fock_dm(2, 0), 2)
    control_eig = float(np.linalg.eigvalsh(step_map_choi(spec, control, 2).data)[0])
    spec_v, bath_v = discretize_input_output(make_cfg(n_steps=200))
    traj_e = run_product(spec_v, bath_v, fock_dm(2, 1))
    traj_g = run_product(spec_v, bath_v, fock_dm(2, 0))
    control_dist = trace_distance_series(traj_e, traj_g)
    control_ok = control_eig >= -1e-9 and np.all(np.diff(control_dist) <= 1e-6)

    _record(7, frozen_ok and revival_ok and max_revival > 1e-6 and control_ok,
            f"step-2 Choi min eig {min_eig:.6f} (frozen -1.125), "
            f"revival steps {report.revival_steps} with max jump {max_revival:.2e}, "
            f"controls CP (min eig {control_eig:.1e}) and monotone")


def test_criterion_8_semigroup_property():
    bath = product_bath(fock_dm(2, 0), 100)
    rho0 = DensityMatrix(Operator(np.array([[0.35, 0.2 - 0.1j],
                                            [0.2 + 0.1j, 0.65]]), (2,)))
    worst = 0.0
    for n, m in ((10, 3), (50, 25), (100, 99)):
        spec = lambda steps: CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.01,
                                           n_steps=steps, d_anc=2, gamma=1.0)
        direct = run_product(spec(n), bath, rho0).states[-1]
        middle = DensityMatrix(Operator(run_product(spec(m), bath, rho0).states[-1], (2,)))
        composed = run_product(spec(n - m), bath, middle).states[-1]
        worst = max(worst, float(np.max(np.abs(direct - composed))))
    _record(8, worst <= 1e-12, f"max |Phi_n - Phi_(n-m) Phi_m| = {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    doc = {
        "scenario": "spontaneous_emission",
        "field": {"kind": "vacuum", "gamma": 1.0, "t_final": 1.0, "n_steps": 500},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for fmt in ("csv", "json"):
        pair = []
        for run_idx in range(2):
            out = tmp_path / f"out_{fmt}_{run_idx}.{fmt}"
            code = main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--format", fmt])
            assert code == 0
            pair.append(out.read_bytes())
        outputs.append(pair[0] == pair[1])
    _record(9, all(outputs), f"byte-identical repeats for csv and json: {outputs}")
