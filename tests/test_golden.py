"""Pinned outputs of the sampled process checks on fixed seeds.

The values were recorded before point patterns became arrays and before the
thread pool was removed; they pin the random-stream consumption of the Gibbs
and U-statistic samplers, the GNZ/Papangelou estimators and the dpi
bootstrap.  A change that alters any of them changes RNG consumption and
must update these numbers deliberately and say so.  The GNZ right sides and
the Papangelou estimates were re-recorded when exact disc-coverage areas
replaced the midpoint grid (the draws and the GNZ left side did not move),
and all three Gibbs pins again when the rejection sampler began drawing its
proposals in batches.  The GNZ pins over five test functions, the theta = 0
Papangelou pin and the ``gnz-check``/``papangelou-bound`` bytes were recorded
before the GNZ terms were computed over whole batches, and held unchanged.

The exact W1 values at the end pin the network simplex itself: its pivot
rule, leaving-arc tie rule and integer duals.  A solver change that keeps
them must reproduce these values bit for bit.  The pins whose target is a
Poisson law (the W1 values, the dpi lower bounds and the ``bernoulli-verify``
bytes) were re-recorded when palab began evaluating the Poisson law without
scipy and reporting the product-Poisson tail mass as a certified upper bound:
values moved in the last few digits, truncation errors by up to 1e-5 relative.

The ``bernoulli-verify`` bytes pin the empirical m-dependent path as a whole:
the window sampler's draws, the empirical law, the bootstrap replicates'
resampling and their W1 solves against the Poisson target.
"""

import json

import numpy as np
import pytest

from palab import transport
from palab.cli import main
from palab.measures import (
    PoissonVectorParams,
    bernoulli_sum_pmf,
    empirical_pmf,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from palab.processes import (
    Box,
    CountLawFromMeasure,
    GibbsModel,
    IndicatorTimesEmpty,
    IntensityMeasure,
    IntervalPairModel,
    PartitionSpec,
    PoissonCountLaw,
    TotalCount,
    build_ustat_process,
    dpi_lower_bound,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
    sample_poisson_process,
)
from palab.transport import wasserstein_l1

from helpers import random_pmf

WINDOW = Box((0.0, 0.0), (1.0, 1.0))
MODEL = GibbsModel(beta=3.0, theta=0.7, rho=0.2, window=WINDOW)


def test_gnz_check_pinned():
    u = IndicatorTimesEmpty(region_a=Box((0.0, 0.0), (0.5, 1.0)), region_b=Box((0.5, 0.5), (1.0, 1.0)))
    r = gnz_check(MODEL, u, reps=40, seed=5)
    assert [r.lhs, r.rhs, r.z_score, r.std_error] == [
        0.625, 0.58541503470275, 0.4269254680762221, 0.09272102101480278,
    ]


def test_papangelou_bound_pinned():
    r = papangelou_bound(MODEL, IntensityMeasure(WINDOW, 2.0), reps=40, seed=6)
    assert [r.estimate, r.std_error] == [0.897122339325815, 0.006587788195583013]


B_QUADRANT = Box((0.5, 0.5), (1.0, 1.0))
# u -> (lhs, rhs, z_score, std_error) of gnz_check(MODEL, u, reps=40, seed=11)
GNZ_PINNED = {
    "total_count": (TotalCount(), [5.7, 6.292028484385731, -0.7319531662103711, 0.8088338321574738]),
    "one": (IndicatorTimesEmpty(), [2.5, 2.6296468308579395, -0.5062950550522824, 0.25606971579951876]),
    "b_only": (IndicatorTimesEmpty(region_b=B_QUADRANT),
               [1.375, 1.6394552067999046, -1.396703328541942, 0.1893424332825046]),
    "a_sticks_out": (IndicatorTimesEmpty(Box((-0.5, 0.25), (0.5, 1.5)), B_QUADRANT),
                     [0.6, 0.589889461998811, 0.10200652269891143, 0.09911658327018835]),
    "a_outside": (IndicatorTimesEmpty(Box((1.5, 0.0), (2.0, 1.0)), B_QUADRANT), [0.0, 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(GNZ_PINNED))
def test_gnz_check_test_functions_pinned(name):
    u, expected = GNZ_PINNED[name]
    r = gnz_check(MODEL, u, reps=40, seed=11)
    assert [r.lhs, r.rhs, r.z_score, r.std_error] == expected


def test_papangelou_bound_poisson_model_and_target_pinned():
    model = GibbsModel(beta=3.0, theta=0.0, rho=0.2, window=WINDOW)
    r = papangelou_bound(model, IntensityMeasure(WINDOW, 3.0), reps=40, seed=12)
    assert [r.estimate, r.std_error] == [0.0, 0.0]


GIBBS_CLI_PINNED = {
    "gnz-check": '{"lhs":0.52500000000000002,"quad_bound":0.0,"reps":200,"rhs":0.5618736221533297,'
                 '"schema_version":1,"std_error":0.053655533677754143,"verdict":"PASS",'
                 '"z_score":-0.68722869060973946,"z_threshold":4.0}\n',
    "papangelou-bound": '{"estimate":0.89492863388488497,"quad_bound":0.0,"reps":200,"schema_version":1,'
                        '"std_error":0.0037954332353803003,"verdict":"PASS"}\n',
}


@pytest.mark.parametrize("subcommand", sorted(GIBBS_CLI_PINNED))
def test_gibbs_cli_output_pinned(tmp_path, subcommand):
    model = tmp_path / "gibbs.json"
    model.write_text(json.dumps({
        "schema_version": 1, "beta": 3.0, "theta": 0.7, "rho": 0.2,
        "window": {"lows": [0.0, 0.0], "highs": [1.0, 1.0]}, "target_density": 2.0,
        "u": {"kind": "indicator_empty", "region_a": {"lows": [0.0, 0.0], "highs": [0.5, 1.0]},
              "region_b": {"lows": [0.5, 0.5], "highs": [1.0, 1.0]}},
    }))
    out = tmp_path / "out.json"
    assert main([subcommand, "--model", str(model), "--reps", "200", "--seed", "13", "--out", str(out)]) == 0
    assert out.read_text() == GIBBS_CLI_PINNED[subcommand]


def test_sampled_dpi_lower_bound_pinned():
    parts = [
        PartitionSpec([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))]),
        PartitionSpec([Box((0.0, 0.0), (0.5, 0.5)), Box((0.5, 0.5), (1.0, 1.0))]),
    ]
    d = dpi_lower_bound(
        lambda rng: sample_gibbs(MODEL, rng), PoissonCountLaw(IntensityMeasure(WINDOW, 2.0)),
        parts, reps=300, seed=7, n_boot=4,
    )
    assert [d.value, d.std_error, d.ci_low, d.ci_high, d.truncation_error] == [
        0.44377796258567237, 0.09056489382029267, 0.28646592605974813, 0.47814486515474436, 4.883414732908845e-10,
    ]
    assert d.per_partition == (0.44377796258567237, 0.14310438361496125)


def test_sampled_ustat_dpi_lower_bound_pinned():
    model = IntervalPairModel(rate=3.0, delta=0.3)
    d = dpi_lower_bound(
        lambda rng: build_ustat_process(sample_poisson_process(model.mu, rng), model),
        CountLawFromMeasure(model.count_intensity),
        [PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])], reps=300, seed=8, n_boot=4,
    )
    assert [d.value, d.std_error, d.ci_low, d.ci_high, d.truncation_error] == [
        1.2785645205526137, 0.09546806338470036, 1.2324766722181653, 1.4460108064868018, 2.3386571207735386e-09,
    ]


# d -> (rows n, pinned W1 value, truncation error)
W1_BERNOULLI_POISSON = {
    1: (14, 0.3954370456355596, 2.335577743894203e-09),
    2: (9, 0.280437563186386, 4.322358390716089e-10),
    3: (6, 0.20824239325858662, 7.291218825457298e-10),
}


@pytest.mark.parametrize("d", sorted(W1_BERNOULLI_POISSON))
def test_w1_bernoulli_sum_vs_poisson_pinned(d):
    n, value, trunc = W1_BERNOULLI_POISSON[d]
    p = np.random.default_rng(2020 + d).random((n, d)) * (0.6 / d)
    target = poisson_vector_pmf(PoissonVectorParams(tuple(p.sum(axis=0))), 1e-10)
    r = wasserstein_l1(bernoulli_sum_pmf(p), target)
    assert (r.value, r.truncation_error) == (value, trunc)


def test_w1_poisson_count_law_vs_empirical_at_d4_pinned():
    lam = (0.5, 0.3, 0.7, 0.4)
    target = truncate_small_atoms(poisson_vector_pmf(PoissonVectorParams(lam), 1e-10), 1e-9)
    sample = empirical_pmf(np.random.default_rng(4).poisson(lam, size=(400, 4)))
    r = wasserstein_l1(sample, target)
    assert (r.value, r.truncation_error) == (0.1822234508285372, 3.0700020855437774e-08)


def test_w1_with_bland_rule_forced_pinned(monkeypatch):
    monkeypatch.setattr(transport, "_bland_streak_limit", lambda m, n: -1)
    P, Q = random_pmf(np.random.default_rng(12), 2, 40), random_pmf(np.random.default_rng(13), 2, 55)
    assert wasserstein_l1(P, Q).value == 2.18976150320589


BERNOULLI_VERIFY_PINNED = {
    1: (41, '{"bound":5.5811110261581556,"corollary_bound":0.10616042784599999,"distance":0.33965734509619883,'
            '"mode":"empirical","schema_version":1,"std_error":0.014983882638450092,'
            '"truncation_error":2.520009570470324e-08,"verdict":"PASS"}\n'),
    2: (42, '{"bound":15.460053931038825,"corollary_bound":0.11323380943,"distance":0.60818678349231259,'
            '"mode":"empirical","schema_version":1,"std_error":0.020050875563385095,'
            '"truncation_error":2.6412150083969824e-08,"verdict":"PASS"}\n'),
}


@pytest.mark.parametrize("m", sorted(BERNOULLI_VERIFY_PINNED))
def test_bernoulli_verify_empirical_output_pinned(tmp_path, m):
    seed, expected = BERNOULLI_VERIFY_PINNED[m]
    p = (np.random.default_rng(300 + m).random((30, 2)) * (1.6 / 30)).round(6)
    model = tmp_path / "mdep.json"
    model.write_text(json.dumps({"schema_version": 1, "n": 30, "d": 2, "p": p.tolist(), "m": m}))
    out = tmp_path / "verify.json"
    argv = ["bernoulli-verify", "--model", str(model), "--reps", "3000", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == expected
