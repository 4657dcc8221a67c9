"""Acceptance criteria, one test per criterion.

Each test enforces the criterion at its stated tolerance and prints one
pass/fail line (visible with ``pytest -s`` or in the captured output).
Statistical criteria use frozen seeds, so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from palab import streams
from palab.coupling import (
    BernoulliArrayModel,
    CouplingTable,
    corollary_bound,
    mdep_bound,
    sample_mdep_counts,
    coupling_vector_bound,
)
from palab.measures import (
    LatticePmf,
    PoissonVectorParams,
    SampleAtoms,
    bernoulli_sum_pmf,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from palab.processes import (
    Box,
    CountLawFromMeasure,
    DiracCountLaw,
    GibbsModel,
    IndicatorTimesEmpty,
    IntensityMeasure,
    IntervalPairModel,
    LabelSet,
    MonotoneMapModel,
    PartitionSpec,
    PoissonCountLaw,
    PointPattern,
    build_ustat_process,
    count_vector,
    dpi_lower_bound,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
    sample_poisson_process,
    ustat_R,
    ustat_bound,
)
from palab.stein import decomposition_check, default_range, solve_stein_batch
from palab.transport import total_variation, wasserstein_l1

from helpers import lp_wasserstein, random_lipschitz_table, random_pmf


def report(criterion: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail} ({time.time() - started:.1f}s)")


@pytest.mark.acceptance
def test_criterion_1_stein_magic_factors():
    """25 lambdas in [0.1, 10] x 200 random 1-Lipschitz g on 0..300:
    sup|ghat| <= 1 + 1e-12, sup|diff ghat| <= 1 + 1e-12, residual <= 1e-10."""
    started = time.time()
    top = 300
    n_g = 200
    rng = streams.derive(20240001)
    g_cols = np.empty((top + 1, n_g))
    for j in range(n_g):
        g_cols[:, j] = np.concatenate(
            [[rng.uniform(-1, 1)], rng.uniform(-1.0, 1.0, size=top)]
        ).cumsum()
    worst_sup = 0.0
    worst_res = 0.0
    idx = np.arange(top + 1)
    for lam in np.linspace(0.1, 10.0, 25):
        ghat, means = solve_stein_batch(float(lam), g_cols)
        worst_sup = max(
            worst_sup,
            float(np.max(np.abs(ghat))),
            float(np.max(np.abs(np.diff(ghat, axis=0)))),
        )
        lhs = lam * ghat[1:] - idx[:, None] * ghat[:-1]
        worst_res = max(worst_res, float(np.max(np.abs(lhs - (g_cols - means[None, :])))))
    ok = worst_sup <= 1.0 + 1e-12 and worst_res <= 1e-10
    report(1, ok, f"sup={worst_sup:.15f}, residual={worst_res:.2e}", started)
    assert worst_sup <= 1.0 + 1e-12
    assert worst_res <= 1e-10


@pytest.mark.acceptance
def test_criterion_2_decomposition_residual():
    """Telescoping decomposition residual <= 1e-8 on 50 random (X, lambda, g)
    instances with d <= 3 and supports <= 10^3."""
    started = time.time()
    worst = 0.0
    for inst in range(50):
        rng = streams.derive(20240002, inst)
        d = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 5))
        p = rng.random((n_rows, d)) * (0.9 / d)
        X = bernoulli_sum_pmf(p)
        lam = tuple(float(v) for v in rng.uniform(0.05, 1.8, size=d))
        params = PoissonVectorParams(lam)
        shape = tuple(default_range(l, n_rows + 1) + 1 for l in lam)
        g = random_lipschitz_table(rng, shape)
        worst = max(worst, decomposition_check(X, params, g))
    ok = worst <= 1e-8
    report(2, ok, f"max residual={worst:.2e} over 50 instances", started)
    assert worst <= 1e-8


@pytest.mark.acceptance
def test_criterion_3_ot_oracle_equivalence():
    """wasserstein_l1 agrees with the independent dense LP oracle to 1e-8 on
    30 random pmf pairs with <= 200 atoms; metric axioms hold."""
    started = time.time()
    worst = 0.0
    for inst in range(30):
        rng = streams.derive(20240003, inst)
        dim = int(rng.integers(1, 4))
        P = random_pmf(rng, dim, int(rng.integers(5, 201)))
        Q = random_pmf(rng, dim, int(rng.integers(5, 201)))
        worst = max(worst, abs(wasserstein_l1(P, Q).value - lp_wasserstein(P, Q)))
    # metric axioms on sampled triples
    axiom_ok = True
    for inst in range(5):
        rng = streams.derive(20240013, inst)
        dim = int(rng.integers(1, 3))
        A = random_pmf(rng, dim, 30)
        B = random_pmf(rng, dim, 25)
        C = random_pmf(rng, dim, 20)
        dab = wasserstein_l1(A, B).value
        dba = wasserstein_l1(B, A).value
        dbc = wasserstein_l1(B, C).value
        dac = wasserstein_l1(A, C).value
        axiom_ok &= abs(dab - dba) <= 1e-10
        axiom_ok &= dac <= dab + dbc + 1e-9
        axiom_ok &= wasserstein_l1(A, A).value <= 1e-12
    ok = worst <= 1e-8 and axiom_ok
    report(3, ok, f"max |simplex - LP|={worst:.2e}, axioms={'ok' if axiom_ok else 'violated'}", started)
    assert worst <= 1e-8
    assert axiom_ok


@pytest.mark.acceptance
def test_criterion_4_corollary_dominance_exact():
    """100 random instances (n <= 12, d <= 2, row sums <= 0.4): exact
    d_W(sum, Poisson) <= sum_k (sum_i p_{k,i})^2 + truncation error."""
    started = time.time()
    violations = 0
    worst_margin = np.inf
    for inst in range(100):
        rng = streams.derive(20240004, inst)
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 3))
        p = rng.random((n, d))
        p *= rng.uniform(0.05, 0.4) / np.maximum(p.sum(axis=1, keepdims=True), 1e-12)
        X = bernoulli_sum_pmf(p)
        lam = PoissonVectorParams(tuple(p.sum(axis=0)))
        target = truncate_small_atoms(poisson_vector_pmf(lam, 1e-10), 1e-9)
        res = wasserstein_l1(X, target)
        bound = corollary_bound(p)
        margin = bound + res.truncation_error - res.value
        worst_margin = min(worst_margin, margin)
        if res.value > bound + res.truncation_error:
            violations += 1
    ok = violations == 0
    report(4, ok, f"violations={violations}/100, smallest margin={worst_margin:.3e}", started)
    assert violations == 0


@pytest.mark.acceptance
def test_criterion_5_mdep_bound():
    """(a) m = 0 bound equals the independent-rows bound bitwise;
    (b) shipped m = 1, 2 families (n <= 60, d <= 3): empirical d_W from 1e5
    samples <= bound + 3 bootstrap SE on 20 seeded instances."""
    started = time.time()
    # (a) bitwise identity
    bitwise_ok = True
    for inst in range(20):
        rng = streams.derive(20240005, inst)
        n = int(rng.integers(1, 61))
        d = int(rng.integers(1, 4))
        p = rng.random((n, d)) * (0.9 / d)
        model = BernoulliArrayModel(n=n, d=d, p=p, m=0)
        bitwise_ok &= mdep_bound(model) == corollary_bound(p)
    assert bitwise_ok

    # (b) empirical dominance
    reps = 10**5
    n_boot = 16
    violations = 0
    worst_margin = np.inf
    for inst in range(20):
        rng = streams.derive(20240015, inst)
        m = 1 + inst % 2
        n = int(rng.integers(30, 61))
        d = int(rng.integers(2, 4))
        p = rng.random((n, d)) * (1.6 / n)
        model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
        bound = mdep_bound(model)
        lam = PoissonVectorParams(tuple(p.sum(axis=0)))
        target = truncate_small_atoms(poisson_vector_pmf(lam, 1e-9), 1e-7)
        atoms = SampleAtoms(sample_mdep_counts(model, reps, seed=977 + inst))
        value = wasserstein_l1(atoms.law(), target).value
        boots = np.zeros(n_boot)
        for b in range(n_boot):
            rng_b = streams.derive(20240025, inst, b)
            boots[b] = wasserstein_l1(atoms.law(rng_b.integers(0, reps, size=reps)), target).value
        se = float(boots.std(ddof=1))
        margin = bound + 3 * se - value
        worst_margin = min(worst_margin, margin)
        if value > bound + 3 * se:
            violations += 1
    ok = bitwise_ok and violations == 0
    report(
        5, ok,
        f"bitwise m=0 ok, dominance violations={violations}/20, smallest margin={worst_margin:.3f}",
        started,
    )
    assert violations == 0


@pytest.mark.acceptance
def test_criterion_6_bernoulli_coupling_sanity():
    """Single-coordinate Bernoulli(p): bound 2p^2 for Z = 0 and p^2 for
    Z = -X, both dominating the exact distance to Poisson(p)."""
    started = time.time()
    ok = True
    for p in np.arange(0.05, 0.501, 0.05):
        X = LatticePmf(1, {(0,): 1.0 - p, (1,): p})
        params = PoissonVectorParams((float(p),))
        plain = coupling_vector_bound(params, [CouplingTable.from_deterministic_z(X, np.zeros_like)])
        minus = coupling_vector_bound(
            params, [CouplingTable.from_deterministic_z(X, np.negative)]
        )
        ok &= abs(plain - 2 * p * p) <= 1e-12
        ok &= abs(minus - p * p) <= 1e-12
        target = poisson_vector_pmf(params, 1e-12)
        res = wasserstein_l1(X, target)
        ok &= res.value <= minus + res.truncation_error + 1e-10
        ok &= res.value <= plain + res.truncation_error + 1e-10
    report(6, ok, "bounds 2p^2 and p^2 reproduced and dominate exact d_W", started)
    assert ok


@pytest.mark.acceptance
def test_criterion_7_ustat():
    """(a) k = 1 output exactly Poisson (chi-square p > 0.01, 5 seeds);
    (b) k = 2 interval model with delta >= 1 gives R = t^3;
    (c) 4R dominates grid-partition empirical d_W at 3 sigma on 10 seeds."""
    started = time.time()
    # (a) k = 1 pushforward
    model1 = MonotoneMapModel(3.0, lambda x: x * x, math.sqrt)
    region = Box((0.2,), (0.7,))
    lam = model1.count_intensity(region)
    chi_ok = True
    for seed in range(5):
        rng = streams.derive(20240307, seed)
        reps = 4000
        counts = np.array(
            [
                int(region.contains(build_ustat_process(sample_poisson_process(model1.mu, rng), model1).points).sum())
                for _ in range(reps)
            ]
        )
        kmax = 6
        obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
        pmf = stats.poisson.pmf(np.arange(kmax + 1), lam)
        pmf = np.append(pmf, 1.0 - pmf.sum())
        mask = reps * pmf > 5
        stat = ((obs[mask] - reps * pmf[mask]) ** 2 / (reps * pmf[mask])).sum()
        chi_ok &= stats.chi2.sf(stat, int(mask.sum()) - 1) > 0.01
    assert chi_ok

    # (b) full domain: R = t^3 within the quadrature tolerance
    t_rate = 1.4
    full = IntervalPairModel(rate=t_rate, delta=1.0)
    r_full = ustat_R(full)
    r_ok = abs(r_full.value - t_rate**3) <= 1e-8 * t_rate**3 + r_full.error_bound + 1e-12
    assert r_ok

    # (c) dominance over a grid-partition family
    model = IntervalPairModel(rate=1.0, delta=0.25)
    bound = ustat_bound(model)
    partitions = [
        PartitionSpec([Box((0.0,), (1.0,))]),
        PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))]),
        PartitionSpec([Box((0.25 * i,), (0.25 * (i + 1),)) for i in range(4)]),
    ]
    target = CountLawFromMeasure(model.count_intensity, eps=1e-10, prune_mass=1e-9)
    violations = 0
    worst_margin = np.inf
    for seed in range(10):
        def sampler(rng):
            return build_ustat_process(sample_poisson_process(model.mu, rng), model)

        est = dpi_lower_bound(sampler, target, partitions, reps=20000, seed=808 + seed, n_boot=12)
        margin = bound + 3 * est.std_error - est.value
        worst_margin = min(worst_margin, margin)
        if est.value > bound + 3 * est.std_error:
            violations += 1
    ok = chi_ok and r_ok and violations == 0
    report(
        7, ok,
        f"k=1 chi-square ok, R(delta>=1)={r_full.value:.6f}, "
        f"dominance violations={violations}/10 (bound={bound:.3f}, margin>={worst_margin:.3f})",
        started,
    )
    assert violations == 0


@pytest.mark.acceptance
def test_criterion_8_papangelou():
    """theta = 0: bound exactly 0 and Poisson equivalence; theta > 0
    Strauss-type model: GNZ |z| <= 4 at 1e5 reps and bound dominance at
    3 sigma over a 4-set partition family."""
    started = time.time()
    window = Box((0.0, 0.0), (1.0, 1.0))
    free = GibbsModel(beta=2.0, theta=0.0, rho=0.15, window=window)
    res0 = papangelou_bound(free, IntensityMeasure(window, 2.0), reps=2000, seed=1)
    assert res0.estimate == 0.0
    # Poisson equivalence of the theta = 0 sampler: count chi-square
    rng = streams.derive(20240008)
    reps = 20000
    counts = np.array([len(sample_gibbs(free, rng)) for _ in range(reps)])
    kmax = 7
    obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 2.0)
    pmf = np.append(pmf, 1.0 - pmf.sum())
    mask = reps * pmf > 5
    stat = ((obs[mask] - reps * pmf[mask]) ** 2 / (reps * pmf[mask])).sum()
    poisson_ok = stats.chi2.sf(stat, int(mask.sum()) - 1) > 0.01
    assert poisson_ok

    model = GibbsModel(beta=2.0, theta=0.8, rho=0.15, window=window)
    u = IndicatorTimesEmpty(
        region_a=Box((0.0, 0.0), (0.5, 1.0)),
        region_b=Box((0.5, 0.0), (1.0, 1.0)),
    )
    gnz = gnz_check(model, u, reps=10**5, seed=20240018)
    gnz_ok = abs(gnz.z_score) <= 4.0
    assert gnz_ok

    bound = papangelou_bound(model, IntensityMeasure(window, 2.0), reps=3 * 10**4, seed=20240028)
    partitions = [
        PartitionSpec([
            Box((0.0, 0.0), (0.5, 0.5)), Box((0.5, 0.0), (1.0, 0.5)),
            Box((0.0, 0.5), (0.5, 1.0)), Box((0.5, 0.5), (1.0, 1.0)),
        ]),
        PartitionSpec([
            Box((0.0, 0.0), (0.25, 1.0)), Box((0.25, 0.0), (0.5, 1.0)),
            Box((0.5, 0.0), (0.75, 1.0)), Box((0.75, 0.0), (1.0, 1.0)),
        ]),
    ]
    target_law = PoissonCountLaw(IntensityMeasure(window, 2.0), eps=1e-9, prune_mass=1e-7)
    est = dpi_lower_bound(
        model, target_law, partitions,
        reps=10**5, seed=20240038, n_boot=12,
    )
    sigma = math.sqrt(bound.std_error**2 + est.std_error**2)
    margin = bound.estimate + 3 * sigma - est.value
    dom_ok = margin >= 0
    ok = poisson_ok and gnz_ok and dom_ok
    report(
        8, ok,
        f"theta=0 exact zero, GNZ z={gnz.z_score:.2f} (headroom 4-|z|={4 - abs(gnz.z_score):.2f}), "
        f"dominance: d_W<= {est.value:.4f} vs bound {bound.estimate:.4f} "
        f"(margin bound+3sigma-d_W={margin:.4f}, 3sigma={3 * sigma:.4f})",
        started,
    )
    assert dom_ok


@pytest.mark.acceptance
def test_criterion_9_dpi_anchors():
    """Two-point Dirac example returns exactly 2; mean-shift lower bound
    respected; d_TV <= d_W on every evaluated partition to 1e-9."""
    started = time.time()
    part_labels = PartitionSpec([LabelSet({"a"}), LabelSet({"b"})])
    xi = DiracCountLaw(PointPattern(["a"]))
    eta = DiracCountLaw(PointPattern(["b"]))
    two = dpi_lower_bound(xi, eta, [part_labels])
    assert two.value == 2.0

    window = Box((0.0,), (1.0,))
    whole = PartitionSpec([window])
    halves = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    pairs = [
        (PoissonCountLaw(IntensityMeasure(window, 1.0)), PoissonCountLaw(IntensityMeasure(window, 2.0))),
        (PoissonCountLaw(IntensityMeasure(window, 0.4)), PoissonCountLaw(IntensityMeasure(window, 1.1))),
    ]
    mean_ok = True
    tv_ok = True
    for law_a, law_b in pairs:
        est = dpi_lower_bound(law_a, law_b, [whole, halves])
        gap = abs(law_a.intensity.total - law_b.intensity.total)
        mean_ok &= est.value >= gap - est.truncation_error - 1e-9
        for part in (whole, halves):
            pa = law_a.count_pmf(part)
            pb = law_b.count_pmf(part)
            tv_ok &= total_variation(pa, pb).value <= wasserstein_l1(pa, pb).value + 1e-9
    # sampled mean-shift pair
    sampler = lambda rng: sample_poisson_process(IntensityMeasure(window, 1.0), rng)
    est_mc = dpi_lower_bound(sampler, PoissonCountLaw(IntensityMeasure(window, 2.0)), [whole],
                             reps=20000, seed=20240009, n_boot=12)
    mean_ok &= est_mc.value >= 1.0 - 4 * est_mc.std_error - est_mc.truncation_error - 0.05
    ok = two.value == 2.0 and mean_ok and tv_ok
    report(9, ok, f"Dirac value={two.value}, mean-shift ok={mean_ok}, TV<=W1 ok={tv_ok}", started)
    assert mean_ok and tv_ok
