"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs (model files, pmfs, sampler
seeds) at construction, which is part of set-up.  ``run_pass`` is the timed
unit: it hands those inputs to palab and returns one ``Op`` per verification
operation, carrying the raw output and the verdict palab gave.  Nothing in a
pass compares against references; the worker does that after the timed
passes.

Deterministic outputs that do not depend on sampling come from small pools
of cases indexed by a pool number; ``--seed`` picks one case per slot and
seeds the samplers.  ``reference.json`` holds every pool case's outputs, so
any seed can be checked against recorded values.

palab is always reached through module attributes looked up at call time
(``cli.main``, ``processes.dpi_lower_bound``), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import palab.cli as cli
import palab.coupling as coupling
import palab.processes as processes
import palab.stein as stein
import palab.transport as transport
from palab.measures import LatticePmf, PoissonVectorParams, bernoulli_sum_pmf, poisson_vector_pmf, truncate_small_atoms

import oracle

# Tags that make the pool cases and the per-run draws independent streams.
POOL_TAG = 20261017
RUN_TAG = 7
POOL_SIZE = 8

# Reference tolerances by output field: 0 means bitwise.  W1 and TV follow
# the 1e-12 gate for exact distances; residuals are rounding-level numbers
# whose recorded digits a reordering of floating-point sums may change.
TOLERANCES = {
    "bound": 0.0,
    "corollary_bound": 0.0,
    "R": 0.0,
    "R_error_bound": 0.0,
    "distance": 1e-12,
    "value": 1e-12,
    "tv": 1e-12,
    "worst_sup": 1e-12,
    "worst_residual": 1e-12,
    "residual": 1e-10,
}


@dataclass
class Op:
    """One verification operation: a CLI invocation or a library pipeline call."""

    name: str                      # unique within a pass
    ref_key: Optional[str] = None  # reference.json entry, if any
    ref_fields: tuple = ()         # fields of ``values`` recorded there
    text: str = ""                 # canonical output, hashed into the digest
    values: dict = field(default_factory=dict)
    ok: bool = False               # palab's verdict (or the pipeline check) passed
    error: Optional[str] = None


def _canonical(values: dict) -> str:
    return json.dumps(values, sort_keys=True)


def run_cli(name: str, argv: list[str], ref: tuple = (None, ())) -> Op:
    """One in-process ``palab`` invocation; PASS needs exit 0 and verdict PASS.
    ``ref`` is (reference key, fields checked against it)."""
    out, err = io.StringIO(), io.StringIO()
    op = Op(name, *ref)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    op.text = out.getvalue()
    if code != 0:
        op.error = f"exit {code}: {err.getvalue().strip()}"
        return op
    op.values = json.loads(op.text)
    op.ok = op.values.get("verdict") == "PASS"
    if not op.ok:
        op.error = "verdict FAIL"
    return op


def run_library(name: str, fn, ref: tuple = (None, ())) -> Op:
    """One library pipeline call; ``fn`` returns (values, verdict_ok)."""
    op = Op(name, *ref)
    values, op.ok = fn()
    op.values = values
    op.text = _canonical(values)
    if not op.ok:
        op.error = "pipeline check failed"
    return op


def guarded(name: str, call) -> Op:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return call()
    except Exception as exc:  # the pass must go on to the next operation
        return Op(name, error=f"{type(exc).__name__}: {exc}")


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _pool_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([POOL_TAG, *key])


def _run_rng(workload_index: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([RUN_TAG, workload_index, seed])


def _pick(rng: np.random.Generator, picks: Optional[dict], slot) -> int:
    """Pool case for one slot: drawn from the run seed unless ``picks``
    (used when recording references) fixes it.  The draw always happens, so
    the sampler seeds drawn after it do not depend on ``picks``."""
    k = int(rng.integers(POOL_SIZE))
    return picks[slot] if picks is not None else k


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, picks: Optional[dict] = None):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def oracle_instance(self, ops: list[Op]):
        """(P, Q, palab's W1 for the pair) for the HiGHS cross-check."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mdep_bootstrap
# ---------------------------------------------------------------------------

def mdep_case(m: int, k: int) -> dict:
    """Sliding-min array of pool case k: n in 30..60, d = 2, the p scale of
    the m-dependent acceptance criterion."""
    rng = _pool_rng(1, m, k)
    n = int(rng.integers(30, 61))
    d = 2
    p = rng.random((n, d)) * (1.6 / n)
    return {"schema_version": 1, "n": n, "d": d, "p": p.tolist(), "m": m, "family": "sliding_min"}


class MdepBootstrap(Workload):
    """``palab bernoulli-verify`` on one m = 1 and one m = 2 array: rows ->
    pmf and a bootstrap of W1 solves against one Poisson target."""

    name = "mdep_bootstrap"
    REPS = 6000

    def __init__(self, seed: int, workdir: str, picks: Optional[dict] = None):
        super().__init__(seed, workdir)
        rng = _run_rng(1, seed)
        self.cases = []
        for m in (1, 2):
            k = _pick(rng, picks, m)
            spec = mdep_case(m, k)
            path = _write_json(self.path(f"mdep_m{m}.json"), spec)
            self.cases.append((f"m{m}/{k}", path, int(rng.integers(2**31)), spec))

    def warm_up(self) -> None:
        tiny = {"schema_version": 1, "n": 3, "d": 2, "p": [[0.1, 0.1]] * 3, "m": 1}
        path = _write_json(self.path("warm.json"), tiny)
        run_cli("warm", ["bernoulli-verify", "--model", path, "--reps", "200", "--threads", "1"])

    def run_pass(self) -> list[Op]:
        ops = []
        for key, path, cli_seed, _spec in self.cases:
            argv = ["bernoulli-verify", "--model", path, "--reps", str(self.REPS),
                    "--seed", str(cli_seed), "--threads", "1"]
            ops.append(guarded(key, lambda: run_cli(key, argv, (key, ("bound", "corollary_bound")))))
        return ops

    def oracle_instance(self, ops):
        key, _path, cli_seed, spec = self.cases[0]
        p = np.asarray(spec["p"])
        arr = coupling.BernoulliArrayModel(n=spec["n"], d=spec["d"], p=p, m=spec["m"])
        rows = coupling.sample_mdep_counts(arr, self.REPS, cli_seed)
        P = oracle.empirical(rows)
        Q = truncate_small_atoms(poisson_vector_pmf(PoissonVectorParams(tuple(p.sum(axis=0))), 1e-10), 1e-9)
        return P, Q, _op_value(ops, key, "distance")


# ---------------------------------------------------------------------------
# gibbs_partition
# ---------------------------------------------------------------------------

WINDOW = {"lows": [0.0, 0.0], "highs": [1.0, 1.0]}
STRAUSS = {"beta": 2.0, "theta": 0.8, "rho": 0.15}


def _box(lo_x, lo_y, hi_x, hi_y) -> dict:
    return {"box": {"lows": [lo_x, lo_y], "highs": [hi_x, hi_y]}}


# Four 0.25 x 0.3 strips along the bottom and along the left edge: the exact
# 4-D Poisson target then has ~660 atoms.  Whole-window quadrants give ~2.9k
# atoms and a 2-5 s solve whose cost swings with the sample, which leaves room
# for one pass per run; here a pass holds 16 solves on four independent
# samples and averages their cost.
GIBBS_PARTITIONS = [
    [_box(.25 * i, 0, .25 * (i + 1), .3) for i in range(4)],
    [_box(0, .25 * i, .3, .25 * (i + 1)) for i in range(4)],
]


class GibbsPartition(Workload):
    """GNZ check, Papangelou bound, then the partition lower bound of the
    Strauss model against the exact Poisson source, checked against the
    Papangelou estimate plus its grid bound."""

    name = "gibbs_partition"
    GNZ_REPS = 600
    PAP_REPS = 600
    DPI_REPS = 3000
    DPI_RUNS = 2
    N_BOOT = 3

    def __init__(self, seed: int, workdir: str, picks: Optional[dict] = None):
        super().__init__(seed, workdir)
        rng = _run_rng(2, seed)
        self.seeds = [int(rng.integers(2**31)) for _ in range(2 + self.DPI_RUNS)]
        base = {"schema_version": 1, **STRAUSS, "window": WINDOW}
        self.gnz_model = _write_json(self.path("gnz.json"), {
            **base,
            "u": {"kind": "indicator_empty", "region_a": {"lows": [0, 0], "highs": [0.5, 1]},
                  "region_b": {"lows": [0.5, 0], "highs": [1, 1]}},
        })
        self.pap_model = _write_json(self.path("pap.json"), {**base, "target_density": STRAUSS["beta"]})
        self.dpi_base = {
            "schema_version": 1,
            "xi": {"type": "gibbs", **STRAUSS, "window": WINDOW},
            "eta": {"type": "poisson", "rate": STRAUSS["beta"], "window": WINDOW},
            "partitions": GIBBS_PARTITIONS,
        }

    def warm_up(self) -> None:
        common = ["--reps", "8", "--threads", "1", "--grid", "8"]
        run_cli("warm", ["gnz-check", "--model", self.gnz_model, *common])
        run_cli("warm", ["papangelou-bound", "--model", self.pap_model, *common])
        small = {**self.dpi_base, "partitions": [[_box(0, 0, 1, 1)]]}
        path = _write_json(self.path("dpi_warm.json"), small)
        run_cli("warm", ["dpi-estimate", "--model", path, "--reps", "50", "--n-boot", "2", "--threads", "1"])

    def _dpi(self, name: str, seed: int, pap: Op) -> Op:
        if not pap.ok:
            return Op(name, error="no Papangelou bound to check against")
        bound = pap.values["estimate"] + pap.values["quad_bound"]
        path = _write_json(self.path("dpi.json"), {**self.dpi_base, "bound": bound})
        return run_cli(name, ["dpi-estimate", "--model", path, "--reps", str(self.DPI_REPS),
                              "--n-boot", str(self.N_BOOT), "--seed", str(seed), "--threads", "1"])

    def run_pass(self) -> list[Op]:
        gnz = guarded("gnz-check", lambda: run_cli("gnz-check", [
            "gnz-check", "--model", self.gnz_model, "--reps", str(self.GNZ_REPS), "--grid", "32",
            "--seed", str(self.seeds[0]), "--threads", "1"]))
        pap = guarded("papangelou-bound", lambda: run_cli("papangelou-bound", [
            "papangelou-bound", "--model", self.pap_model, "--reps", str(self.PAP_REPS), "--grid", "48",
            "--seed", str(self.seeds[1]), "--threads", "1"]))
        ops = [gnz, pap]
        for i, seed in enumerate(self.seeds[2:]):
            name = f"dpi-estimate/{i}"
            ops.append(guarded(name, lambda: self._dpi(name, seed, pap)))
        return ops

    def oracle_instance(self, ops):
        """Counts of 400 Gibbs patterns in the first partition (benchmark-side
        counting) against the exact Poisson count law the CLI builds for it."""
        window = processes.Box((0.0, 0.0), (1.0, 1.0))
        model = processes.GibbsModel(window=window, **STRAUSS)
        rng = np.random.default_rng([RUN_TAG, 20, self.seed])
        boxes = [processes.Box(tuple(s["box"]["lows"]), tuple(s["box"]["highs"])) for s in GIBBS_PARTITIONS[0]]
        rows = np.array([oracle.box_counts(processes.sample_gibbs(model, rng), boxes) for _ in range(400)])
        law = processes.PoissonCountLaw(processes.IntensityMeasure(window, STRAUSS["beta"]), eps=1e-10,
                                        prune_mass=1e-9)
        P = oracle.empirical(rows)
        Q = law.count_pmf(processes.PartitionSpec(boxes))
        return P, Q, transport.wasserstein_l1(P, Q).value


# ---------------------------------------------------------------------------
# ustat_partition
# ---------------------------------------------------------------------------

class UstatPartition(Workload):
    """U-statistic bound and two partition lower bounds of the interval-pair
    process against its exact non-uniform count law (library calls: the CLI
    has no source for this target)."""

    name = "ustat_partition"
    REPS = 5000
    N_BOOT = 12

    def __init__(self, seed: int, workdir: str, picks: Optional[dict] = None):
        super().__init__(seed, workdir)
        rng = _run_rng(3, seed)
        self.dpi_seeds = [int(rng.integers(2**31)) for _ in range(2)]
        self.model = processes.IntervalPairModel(rate=1.0, delta=0.25)
        self.partitions = [
            processes.PartitionSpec([processes.Box((i / k,), ((i + 1) / k,)) for i in range(k)])
            for k in (1, 2, 4)
        ]
        self.target = processes.CountLawFromMeasure(self.model.count_intensity, eps=1e-10, prune_mass=1e-9)

    def _sample(self, rng):
        return processes.build_ustat_process(processes.sample_poisson_process(self.model.mu, rng), self.model)

    def warm_up(self) -> None:
        processes.dpi_lower_bound(self._sample, self.target, self.partitions[:1], reps=200, seed=0, n_boot=2)

    def _bound(self):
        r = processes.ustat_R(self.model)
        bound = processes.ustat_bound(self.model)
        values = {"R": r.value, "R_error_bound": r.error_bound, "bound": bound}
        return values, math.isfinite(bound) and bound >= 0.0

    def _dpi(self, seed: int, bound_op: Op):
        est = processes.dpi_lower_bound(self._sample, self.target, self.partitions, reps=self.REPS,
                                        seed=seed, n_boot=self.N_BOOT)
        values = {
            "estimate": est.value, "std_error": est.std_error, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "per_partition": list(est.per_partition),
            "truncation_error": est.truncation_error,
        }
        # the (2^{k+1}/k!) R bound must dominate the lower bound at 3 sigma
        ok = bound_op.ok and est.value <= bound_op.values["bound"] + 3.0 * est.std_error
        return values, ok

    def run_pass(self) -> list[Op]:
        bound = guarded("ustat_bound", lambda: run_library(
            "ustat_bound", self._bound, ("model", ("R", "R_error_bound", "bound"))))
        ops = [bound]
        for i, seed in enumerate(self.dpi_seeds):
            name = f"dpi/{i}"
            ops.append(guarded(name, lambda: run_library(name, lambda: self._dpi(seed, bound))))
        return ops

    def oracle_instance(self, ops):
        """Four-interval counts of 2000 processes (benchmark-side counting)
        against the exact count law."""
        rng = np.random.default_rng([RUN_TAG, 30, self.seed])
        part = self.partitions[2]
        rows = np.array([oracle.box_counts(self._sample(rng), part.sets) for _ in range(2000)])
        P = oracle.empirical(rows)
        Q = self.target.count_pmf(part)
        return P, Q, transport.wasserstein_l1(P, Q).value


# ---------------------------------------------------------------------------
# exact_lattice
# ---------------------------------------------------------------------------

EXACT_SLOTS = {
    # d: (rows n, total Poisson mean per coordinate)
    1: (600, 216.0),
    2: (44, 3.0),
    3: (12, 0.6),
}


def exact_case(d: int, k: int) -> np.ndarray:
    """Bernoulli probabilities (n x d) of pool case k: dense exact supports,
    row sums scaled so coordinate j sums to the slot's Poisson mean."""
    n, lam = EXACT_SLOTS[d]
    rng = _pool_rng(4, d, k)
    p = rng.uniform(0.5, 1.5, size=(n, d))
    return p * (lam / p.sum(axis=0))


def stein_seed(k: int) -> int:
    return 1000 + k


def lipschitz_table(rng: np.random.Generator, shape: tuple[int, ...], cones: int = 6) -> np.ndarray:
    """Random 1-Lipschitz function on a lattice box: a minimum of l1 cones."""
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    out = np.full(shape, np.inf)
    for _ in range(cones):
        offset = rng.uniform(-2.0, 2.0)
        dist = sum(np.abs(g - rng.integers(0, s)) for g, s in zip(grids, shape))
        out = np.minimum(out, offset + dist)
    return out


class ExactLattice(Workload):
    """Stein sweep, exact-mode bernoulli-verify, W1 of serialized pmfs, TV
    and the telescoping decomposition on exact Bernoulli-sum vs Poisson
    pairs at d = 1, 2, 3: single-shot solves, no sampling."""

    name = "exact_lattice"

    def __init__(self, seed: int, workdir: str, picks: Optional[dict] = None):
        super().__init__(seed, workdir)
        rng = _run_rng(4, seed)
        self.stein_case = _pick(rng, picks, "stein")
        self.slots = []
        for d in EXACT_SLOTS:
            k = _pick(rng, picks, d)
            p = exact_case(d, k)
            n = p.shape[0]
            model = _write_json(self.path(f"exact_d{d}.json"),
                                {"schema_version": 1, "n": n, "d": d, "p": p.tolist(), "m": 0})
            lam = PoissonVectorParams(tuple(p.sum(axis=0)))
            X = bernoulli_sum_pmf(p)
            target = truncate_small_atoms(poisson_vector_pmf(lam, 1e-10), 1e-9)
            p_path = self.path(f"exact_d{d}_p.json")
            q_path = self.path(f"exact_d{d}_q.json")
            with open(p_path, "w", encoding="utf-8") as fh:
                fh.write(X.to_json())
            with open(q_path, "w", encoding="utf-8") as fh:
                fh.write(target.to_json())
            shape = tuple(stein.default_range(l, n + 1) + 1 for l in lam.lambdas)
            g = lipschitz_table(_pool_rng(5, d, k), shape)
            self.slots.append((f"d{d}/{k}", model, p_path, q_path, X, target, lam, g))

    def warm_up(self) -> None:
        run_cli("warm", ["stein-check", "--lambda-grid", "1:2:2", "--g", "random:2", "--range", "60"])
        X = LatticePmf(1, {(0,): 0.5, (1,): 0.5})
        transport.wasserstein_l1(X, X)
        transport.total_variation(X, X)

    def run_pass(self) -> list[Op]:
        k = self.stein_case
        ops = [guarded("stein-check", lambda: run_cli(
            "stein-check", ["stein-check", "--seed", str(stein_seed(k))],
            (f"stein/{k}", ("worst_sup", "worst_residual"))))]
        for key, model, p_path, q_path, X, target, lam, g in self.slots:
            ops.append(guarded(f"{key}/bv", lambda: run_cli(
                f"{key}/bv", ["bernoulli-verify", "--model", model, "--threads", "1"],
                (f"{key}/bv", ("bound", "corollary_bound", "distance")))))
            ops.append(guarded(f"{key}/w1", lambda: run_cli(
                f"{key}/w1", ["wasserstein", "--p", p_path, "--q", q_path], (f"{key}/w1", ("value",)))))
            w1 = ops[-1]

            def tv(X=X, target=target, w1=w1):
                res = transport.total_variation(X, target)
                # on the integer lattice d_TV <= d_W
                ok = w1.ok and res.value <= w1.values["value"] + 1e-9
                return {"tv": res.value, "tv_truncation_error": res.truncation_error}, ok

            def decomposition(X=X, lam=lam, g=g):
                residual = stein.decomposition_check(X, lam, g)
                return {"residual": residual}, residual <= 1e-8

            ops.append(guarded(f"{key}/tv", lambda: run_library(f"{key}/tv", tv, (f"{key}/tv", ("tv",)))))
            ops.append(guarded(f"{key}/decomposition", lambda: run_library(
                f"{key}/decomposition", decomposition, (f"{key}/decomposition", ("residual",)))))
        return ops

    def oracle_instance(self, ops):
        key, _model, p_path, q_path, X, target, _lam, _g = self.slots[0]
        return X, target, _op_value(ops, f"{key}/w1", "value")


def _op_value(ops: list[Op], name: str, field_name: str) -> float:
    for op in ops:
        if op.name == name and op.ok:
            return float(op.values[field_name])
    raise LookupError(f"operation {name} has no {field_name}")


WORKLOADS = {cls.name: cls for cls in (MdepBootstrap, GibbsPartition, UstatPartition, ExactLattice)}
