"""Acceptance gate: nine numbered criteria, one printed line each.

Every criterion is property-based against an analytic oracle: closed-form
eigenvalues (oscillator odd integers, sine-squared Dirichlet values, box
ground state), exact areas (disk of radius 2), closed-form Gaussian
integrals, the exact geometric-mean law for mu_j = 2^-j, and inequalities
whose finite-dimensional truth is a theorem (norm/trace bounds, doubling
product chains, compound-matrix identities).  Tolerances are pinned here
and must not be loosened; a FAIL line plus the pytest failure is the
intended signal when a property breaks.

Each test prints `criterion <n>: PASS|FAIL - <detail>` straight to the
terminal (bypassing capture), so a full run shows nine status lines.
"""

import json
import math
import time

import numpy as np

from spectralab.cli import main as cli_main
from spectralab.inequalities import (
    compactness_proxy,
    inequality_batch,
    trotter_sequence,
    wedge_norm_identity,
    wedge_segal_chain,
)
from spectralab.kernels import (
    KernelMatrix,
    compose_C,
    d_kernel,
    domination_check,
    gaussian_squared_mass,
    heat_matrix,
    hs_diagnostics,
    kernel_power_bound,
    multiply_function,
    operator_norm,
    split_tail,
    truncated_convolution,
)
from spectralab.linalg import lanczos_extremal
from spectralab.operators import (
    Grid,
    discrete_laplacian,
    hamiltonian,
    potential_on_grid,
    spectrum_study,
)
from spectralab.potentials import parse_potential
from spectralab.reports import to_jsonable
from spectralab.rng import derived_rng
from spectralab.sublevel import (
    Region,
    decay_fit,
    measure,
    thinness,
)

CROSS = parse_potential("x1^2 * x2^2", 2)
STRIP = parse_potential("x1^2", 2)
DISC = parse_potential("x1^2 + x2^2", 2)


def emit(capsys, number, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {status} - {detail}")


def test_criterion_1_inequality_suite(capsys):
    started = time.perf_counter()
    reports = inequality_batch(trials=500, dims=(2, 3, 4, 5, 6, 7, 8),
                               master_seed=0, tol_rel=1e-10)
    elapsed = time.perf_counter() - started
    names = {r.name for r in reports}
    failed = [r for r in reports if not r.passed]
    ok = (not failed) and elapsed <= 30.0 and names == {
        "segal-plain", "segal-symmetric", "golden-thompson",
        "half-product-square", "product-spectrum-agreement",
    }
    emit(capsys, 1, ok,
         f"{len(reports)} checks over 500 PSD pairs (d in 2..8) at "
         f"tol_rel 1e-10 in {elapsed:.1f}s")
    assert names == {"segal-plain", "segal-symmetric", "golden-thompson",
                     "half-product-square", "product-spectrum-agreement"}
    assert not failed, f"first failure: {failed[:1]}"
    assert elapsed <= 30.0, f"batch took {elapsed:.1f}s (> 30s)"


def test_criterion_2_trotter_chain(capsys):
    dims = (2, 3, 4, 5, 6)
    worst_excess = -math.inf
    worst_gap = 0.0
    for t in range(50):
        d = dims[t % len(dims)]
        rng = derived_rng(0, "trotter-acceptance", t)
        G = rng.standard_normal((d, d))
        H = rng.standard_normal((d, d))
        seq = trotter_sequence(G @ G.T, H @ H.T, n_max=12)
        worst_excess = max(worst_excess,
                           float(np.max(seq.values - seq.cap_reference)))
        worst_gap = max(worst_gap,
                        abs(float(seq.values[-1]) - seq.limit_reference))
    ok = worst_excess <= 1e-10 and worst_gap <= 1e-6
    emit(capsys, 2, ok,
         f"50 pairs (d <= 6): max cap excess {worst_excess:.2e} <= 1e-10, "
         f"max |value(n=12) - limit| {worst_gap:.2e} <= 1e-6")
    assert worst_excess <= 1e-10
    assert worst_gap <= 1e-6


def test_criterion_3_wedge_machinery(capsys):
    dims = (2, 3, 4, 5, 6)
    identity_ok = True
    chain_ok = True
    for t in range(100):
        d = dims[t % len(dims)]
        n = min((t % 3) + 1, d)
        rng = derived_rng(0, "wedge-acceptance", t)
        A = rng.standard_normal((d, d))
        identity_ok &= wedge_norm_identity(A, n, tol_rel=1e-9).passed
        G = rng.standard_normal((d, d))
        H = rng.standard_normal((d, d))
        chain = wedge_segal_chain(G @ G.T, H @ H.T, n, tol_rel=1e-8)
        scale = max(abs(chain.inequality.lhs), abs(chain.inequality.rhs))
        chain_ok &= chain.inequality.margin >= -1e-9 * max(scale, 1.0)
        chain_ok &= chain.multiplicativity.passed
    proxy_ok = True
    for n in range(1, 11):
        mu = 2.0 ** -np.arange(1, n + 1)
        g = compactness_proxy(mu, n)[-1]
        expected = 2.0 ** (-(n + 1) / 2.0)
        proxy_ok &= abs(g - expected) <= 1e-12 * expected
    ok = identity_ok and chain_ok and proxy_ok
    emit(capsys, 3, ok,
         "100 trials (d <= 6, n <= 3): norm identity 1e-9, semigroup "
         "identity 1e-8, chain margin >= -1e-9; g(n) for mu_j = 2^-j "
         "exact to 1e-12")
    assert identity_ok
    assert chain_ok
    assert proxy_ok


def test_criterion_4_discretization_oracles(capsys):
    # 1-D harmonic oscillator: odd integers
    g1 = Grid(1, 20.0, 0.02)
    H = hamiltonian(g1, parse_potential("x1^2", 1))
    res = lanczos_extremal(H.matvec, g1.size, 5, max_iters=900, seed=0,
                           tol=3e-11)
    target = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    ho_err = float(np.max(np.abs(res.eigenvalues - target) / target))
    ho_ok = res.eigenvalues.size == 5 and ho_err <= 0.01

    # 1-D Dirichlet Laplacian: closed-form sine-squared eigenvalues
    gd = Grid(1, 0.495, 0.01)  # walls at +-0.5, so 2L + h = 1 exactly
    lap = discrete_laplacian(gd).to_dense()
    computed = np.linalg.eigvalsh(lap)
    j = np.arange(1, gd.size + 1)
    exact = 4.0 * np.sin(j * math.pi * gd.spacing / 2.0) ** 2 / gd.spacing**2
    dirichlet_err = float(np.max(np.abs(computed - exact) / exact))
    dirichlet_ok = dirichlet_err <= 1e-10

    # 2-D Dirichlet box: lowest eigenvalue of the side-4 box
    g2 = Grid(2, 1.975, 0.05)  # walls at +-2
    H2 = hamiltonian(g2, parse_potential("0", 2))
    res2 = lanczos_extremal(H2.matvec, g2.size, 1, max_iters=400, seed=0,
                            tol=1e-11)
    analytic = 2.0 * (math.pi / 4.0) ** 2
    box_err = abs(float(res2.eigenvalues[0]) - analytic) / analytic
    box_ok = res2.eigenvalues.size == 1 and box_err <= 0.01

    ok = ho_ok and dirichlet_ok and box_ok
    emit(capsys, 4, ok,
         f"oscillator rel err {ho_err:.1e} <= 1e-2, Dirichlet closed-form "
         f"rel err {dirichlet_err:.1e} <= 1e-10, box ground state rel err "
         f"{box_err:.1e} <= 1e-2")
    assert ho_ok, f"oscillator eigenvalues {res.eigenvalues}"
    assert dirichlet_ok, f"max relative gap {dirichlet_err}"
    assert box_ok, f"box ground state {res2.eigenvalues}"


def test_criterion_5_showcase_and_negative_control(capsys):
    report = spectrum_study(CROSS, (6.0, 8.0), 0.1, 5, seed=0, max_iters=600)
    drift = float(np.max(report.drift[-1])) if report.drift else math.inf
    residuals_ok = all(float(np.max(r)) <= 1e-6 for r in report.residuals
                       if r.size)
    cross_ok = (report.verdict == "stabilized"
                and all(v.size == 5 for v in report.eigenvalues)
                and drift <= 0.01 and residuals_ok)

    control = spectrum_study(STRIP, (8.0, 16.0), 0.25, 5, seed=0, max_iters=600)

    def mean_gap_above_one(values):
        above = values[values > 1.0]
        gaps = np.diff(above)[:3]
        return float(np.mean(gaps))

    gap_coarse = mean_gap_above_one(control.eigenvalues[0])
    gap_fine = mean_gap_above_one(control.eigenvalues[-1])
    collapse = gap_coarse / gap_fine
    control_ok = (control.verdict == "not-stabilized" and collapse >= 2.0)

    ok = cross_ok and control_ok
    emit(capsys, 5, ok,
         f"x1^2*x2^2 stabilized with drift {drift:.1e} <= 1e-2 and "
         f"residuals <= 1e-6; x1^2 gaps above lambda=1 collapse "
         f"{collapse:.2f}x >= 2x from L=8 to L=16")
    assert cross_ok, (report.verdict, drift, report.notes)
    assert control_ok, (control.verdict, collapse)


def test_criterion_6_sublevel_geometry(capsys):
    # |Omega_4| for |x|^2 is the disk of radius 2, area 4*pi
    est = measure(DISC, 4.0, Region((0.0, 0.0), 2.5),
                  method="monte-carlo", budget=1_000_000, seed=0)
    disc_gap = abs(est.value - 4.0 * math.pi)
    disc_ok = disc_gap <= 3.0 * est.std_error

    # |Omega_1 cap B_R| for x1^2*x2^2 keeps growing: divergence evidence
    radii = (10.0, 20.0, 40.0, 80.0)
    values = [measure(CROSS, 1.0, Region((0.0, 0.0), R),
                      method="monte-carlo", budget=1_500_000, seed=100 + i).value
              for i, R in enumerate(radii)]
    increments = [b - a for a, b in zip(values, values[1:])]
    growth_ok = all(inc >= 2.0 for inc in increments)

    thin_cross = thinness(CROSS, 1.0, 2.0, 1.0, radii, budget=120_000,
                          sub_budget=1_000, seed=11)
    thin_strip = thinness(STRIP, 1.0, 2.0, 1.0, radii, budget=120_000,
                          sub_budget=1_000, seed=11)
    thin_ok = (thin_cross.verdict == "convergent-evidence"
               and thin_strip.verdict == "divergent-evidence")

    fit = decay_fit(CROSS, 1.0, 1.0, (1.0, 0.0), (5.0, 10.0, 20.0, 40.0),
                    budget=400_000)
    decay_ok = fit.exponent >= 0.9

    ok = disc_ok and growth_ok and thin_ok and decay_ok
    emit(capsys, 6, ok,
         f"|Omega_4| within {disc_gap / est.std_error:.2f} std errors of "
         f"4*pi at 1e6 samples; ball increments "
         f"{['%.1f' % v for v in increments]} all >= 2; thinness verdicts "
         f"{thin_cross.verdict}/{thin_strip.verdict}; axis decay exponent "
         f"{fit.exponent:.3f} >= 0.9")
    assert disc_ok, (est.value, est.std_error)
    assert growth_ok, values
    assert thin_ok, (thin_cross.verdict, thin_strip.verdict)
    assert decay_ok, fit.exponent


def test_criterion_7_kernel_machinery(capsys):
    grid = Grid(2, 8.0, 0.25)
    s = 1.0

    # tail splits: |D_m| <= e^-m within 0.1%
    C = compose_C(grid, CROSS, s)
    split_ok = True
    ratios = []
    for m in (1.0, 4.0, 16.0):
        _, _, norms = split_tail(C, CROSS, m)
        ratios.append(norms["D_m"] / norms["reference"])
        split_ok &= norms["D_m"] <= norms["reference"] * 1.001

    # Hilbert-Schmidt bounds of the masked heat kernel within 1%
    heat = heat_matrix(grid, s)
    mask = potential_on_grid(grid, CROSS) < 1.0
    diag = hs_diagnostics(heat, mask, s)
    hs_ok = diag.all_passed()

    # discrete Gaussian mass within 1% of (2 pi s)^(nu/2) (4 pi s)^-nu
    center = int(np.argmin(np.sum(grid.points**2, axis=1)))
    f_column = heat.values[:, center]
    discrete_mass = float(np.sum(f_column**2)) * grid.weight
    mass_expected = gaussian_squared_mass(2, s)
    mass_err = abs(discrete_mass - mass_expected) / mass_expected
    mass_ok = mass_err <= 0.01

    # truncated convolution: removed part bounded by the analytic tail
    F, tail = truncated_convolution(grid, s, 5.0)
    gap = KernelMatrix(grid, heat.values - F.values)
    measured = operator_norm(gap)
    tail_ok = measured <= tail * 1.01

    # support containment and finite domination constant
    chi = (potential_on_grid(grid, CROSS) < 1.0).astype(float)
    F2, _ = truncated_convolution(grid, s, 2.0)
    C_MR = multiply_function(F2, chi)
    D = d_kernel(grid, CROSS, 1.0, 2.0)
    dom = domination_check(C_MR, D)
    dom_ok = dom.all_passed() and math.isfinite(dom.constants["c"])

    # pointwise power bound at k = 3 on every grid pair
    g_small = Grid(2, 4.0, 0.25)
    D3 = d_kernel(g_small, CROSS, 1.0, 1.0)
    power = kernel_power_bound(D3, 3, CROSS, 1.0, 1.0)
    power_ok = power.all_passed()

    ok = split_ok and hs_ok and mass_ok and tail_ok and dom_ok and power_ok
    emit(capsys, 7, ok,
         f"|D_m|/e^-m = {['%.3f' % q for q in ratios]} <= 1.001; HS bounds "
         f"within 1%; Gaussian mass rel err {mass_err:.1e} <= 1e-2; "
         f"truncation norm {measured:.2e} <= tail*1.01 ({tail:.2e}); "
         f"support containment exact with c = {dom.constants['c']:.3e}; "
         f"k=3 pointwise power bound within 1e-9")
    assert split_ok, ratios
    assert hs_ok, [c for c in diag.checks if not c.passed]
    assert mass_ok, mass_err
    assert tail_ok, (measured, tail)
    assert dom_ok, [c for c in dom.checks if not c.passed]
    assert power_ok, [c for c in power.checks if not c.passed]


def test_criterion_8_compactness_decay_proxy(capsys):
    grid = Grid(2, 4.0, 0.1)
    heat = heat_matrix(grid, 1.0)
    mask = potential_on_grid(grid, CROSS) < 1.0
    diag = hs_diagnostics(heat, mask, 1.0)
    mu = diag.singular_values
    ratio = float(mu[39] / mu[0])
    g = compactness_proxy(mu, 40)
    g_decay = float(g[0] / g[39])
    ok = ratio <= 1e-3 and g_decay >= 10.0
    emit(capsys, 8, ok,
         f"mu_40/mu_1 = {ratio:.2e} <= 1e-3 and g(1)/g(40) = "
         f"{g_decay:.0f} >= 10 for the masked heat kernel")
    assert mu.size >= 40
    assert ratio <= 1e-3
    assert g_decay >= 10.0


def test_criterion_9_reproducibility(capsys, tmp_path):
    args = ["thinness", "--potential", "x1^2 * x2^2", "--nu", "2",
            "--M", "1", "--r", "2", "--radii", "4,8,16",
            "--budget", "20000", "--seed", "5"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--output-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--output-dir", str(dir_b)]) == 0
    payload_names = sorted(p.name for p in dir_a.iterdir()
                           if p.name != "thinness-manifest.json")
    files_ok = bool(payload_names) and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in payload_names
    )
    digests_a = json.loads((dir_a / "thinness-manifest.json").read_text())["files"]
    digests_b = json.loads((dir_b / "thinness-manifest.json").read_text())["files"]
    manifest_ok = digests_a == digests_b

    batch_a = to_jsonable(inequality_batch(trials=40, dims=(2, 5), master_seed=9))
    batch_b = to_jsonable(inequality_batch(trials=40, dims=(2, 5), master_seed=9))
    api_ok = batch_a == batch_b

    ok = files_ok and manifest_ok and api_ok
    emit(capsys, 9, ok,
         f"{len(payload_names)} report payloads byte-identical across two "
         "same-seed runs; manifest digests equal; API batch replays equal")
    assert files_ok
    assert manifest_ok
    assert api_ok
