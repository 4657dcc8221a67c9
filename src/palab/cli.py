"""Reproducible experiment harness.

One binary, subcommand per pipeline.  Model and pmf files are JSON, validated
against strict schemas (unknown keys rejected) before any computation; results
are written as deterministic JSON (17 significant digits, sorted keys) or CSV.
Wall-clock metadata goes to a ``<out>.meta.json`` sidecar so reruns with the
same config and seed are byte-identical.

Exit codes: 0 all checks pass, 2 a dominance or statistical check failed,
1 usage or configuration error (including any ``palab.errors`` failure),
3 internal failure (a failed solver certificate check or a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import jsonschema
import numpy as np

from . import jsonio, streams
from .coupling import BernoulliArrayModel, corollary_bound, mdep_bound, q_factor, sample_mdep_counts
from .errors import PalabError, ParameterError
from .measures import (
    LatticePmf,
    PoissonVectorParams,
    SampleAtoms,
    bernoulli_sum_pmf,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from .processes import (
    Box,
    DiracCountLaw,
    GibbsModel,
    IndicatorTimesEmpty,
    IntensityMeasure,
    IntervalPairModel,
    LabelSet,
    PartitionSpec,
    PointPattern,
    PoissonCountLaw,
    TotalCount,
    TripletSumModel,
    build_ustat_process,
    dpi_lower_bound,
    gnz_check,
    papangelou_bound,
    sample_poisson_process,
    ustat_R,
    ustat_bound,
)
from .processes.dpi import DEFAULT_N_BOOT
from .stein import column_checks, solve_stein_batch
from .transport import wasserstein_l1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3
SCHEMA_VERSION = 1

BERNOULLI_N_BOOT = 24

# ---------------------------------------------------------------------------
# model schemas
# ---------------------------------------------------------------------------

_WINDOW_SCHEMA = {
    "type": "object",
    "properties": {
        "lows": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "highs": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["lows", "highs"],
    "additionalProperties": False,
}

_SET_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"box": _WINDOW_SCHEMA},
            "required": ["box"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "labels": {"type": "array", "items": {"type": ["string", "integer"]}, "minItems": 1}
            },
            "required": ["labels"],
            "additionalProperties": False,
        },
    ]
}

_SOURCE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "dirac_labels"},
                "space": {"type": "array", "items": {"type": ["string", "integer"]}, "minItems": 1},
                "points": {"type": "array", "items": {"type": ["string", "integer"]}},
            },
            "required": ["type", "space", "points"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "poisson"},
                "rate": {"type": "number", "minimum": 0},
                "window": _WINDOW_SCHEMA,
                "exact": {"type": "boolean"},
            },
            "required": ["type", "rate", "window"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "gibbs"},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "theta": {"type": "number", "minimum": 0},
                "rho": {"type": "number", "exclusiveMinimum": 0},
                "window": _WINDOW_SCHEMA,
            },
            "required": ["type", "beta", "theta", "rho", "window"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "ustat_interval"},
                "rate": {"type": "number", "exclusiveMinimum": 0},
                "delta": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "rate", "delta"],
            "additionalProperties": False,
        },
    ]
}

SCHEMAS = {
    "bernoulli": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "n": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "p": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            "m": {"type": "integer", "minimum": 0},
            "family": {"enum": ["sliding_min", "independent"]},
        },
        "required": ["schema_version", "n", "d", "p", "m"],
        "additionalProperties": False,
    },
    "gibbs": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "beta": {"type": "number", "exclusiveMinimum": 0},
            "theta": {"type": "number", "minimum": 0},
            "rho": {"type": "number", "exclusiveMinimum": 0},
            "window": _WINDOW_SCHEMA,
            "target_density": {"type": "number", "minimum": 0},
            "u": {
                "type": "object",
                "properties": {
                    "kind": {"enum": ["one", "total_count", "indicator_empty"]},
                    "region_a": _WINDOW_SCHEMA,
                    "region_b": _WINDOW_SCHEMA,
                },
                "required": ["kind"],
                "additionalProperties": False,
            },
        },
        "required": ["schema_version", "beta", "theta", "rho", "window"],
        "additionalProperties": False,
    },
    "ustat": {
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    "schema_version": {"const": SCHEMA_VERSION},
                    "family": {"const": "interval_pair"},
                    "rate": {"type": "number", "exclusiveMinimum": 0},
                    "delta": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["schema_version", "family", "rate", "delta"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "schema_version": {"const": SCHEMA_VERSION},
                    "family": {"const": "triplet_sum"},
                    "rate": {"type": "number", "exclusiveMinimum": 0},
                    "threshold": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["schema_version", "family", "rate", "threshold"],
                "additionalProperties": False,
            },
        ]
    },
    "dpi": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "xi": _SOURCE_SCHEMA,
            "eta": _SOURCE_SCHEMA,
            "partitions": {
                "type": "array",
                "items": {"type": "array", "items": _SET_SCHEMA, "minItems": 1},
                "minItems": 1,
            },
            "bound": {"type": "number", "minimum": 0},
        },
        "required": ["schema_version", "xi", "eta", "partitions"],
        "additionalProperties": False,
    },
    # LatticePmf.to_json, the input of ``wasserstein``.  Atoms are checked when
    # the pmf is built: a schema walk over every atom costs ~40 us per atom.
    "pmf": {
        "type": "object",
        "properties": {"dim": {"type": "integer", "minimum": 1}, "atoms": {"type": "array"},
                       "tail_mass": {"type": "number"}, "tail_moment": {"type": "number"}},
        "required": ["dim", "atoms", "tail_mass", "tail_moment"],
        "additionalProperties": False,
    },
}


def _output_schema(fields: dict) -> dict:
    props = {"schema_version": {"const": SCHEMA_VERSION}, "verdict": {"enum": ["PASS", "FAIL"]}}
    props.update(fields)
    return {
        "type": "object",
        "properties": props,
        "required": sorted(props),
        "additionalProperties": False,
    }


_NUM = {"type": "number"}
_NUMS = {"type": "array", "items": {"type": "number"}}

OUTPUT_SCHEMAS = {
    "stein-check": _output_schema({
        "lambda_grid": _NUMS, "n_g": {"type": "integer"}, "range": {"type": "integer"},
        "worst_sup": _NUM, "worst_residual": _NUM, "sup_tol": _NUM, "residual_tol": _NUM,
    }),
    "bernoulli-bound": _output_schema({"bound": _NUM, "corollary_bound": _NUM, "Q": _NUMS}),
    "bernoulli-verify": _output_schema({
        "bound": _NUM, "corollary_bound": _NUM, "mode": {"enum": ["exact", "empirical"]},
        "distance": _NUM, "std_error": _NUM, "truncation_error": _NUM,
    }),
    "ustat-bound": _output_schema({
        "family": {"type": "string"}, "R": _NUM, "R_error_bound": _NUM, "bound": _NUM,
        "order": {"type": "integer"},
    }),
    "papangelou-bound": _output_schema({
        "estimate": _NUM, "std_error": _NUM, "quad_bound": _NUM, "reps": {"type": "integer"},
    }),
    "gnz-check": _output_schema({
        "lhs": _NUM, "rhs": _NUM, "z_score": _NUM, "std_error": _NUM, "quad_bound": _NUM,
        "z_threshold": _NUM, "reps": {"type": "integer"},
    }),
    "dpi-estimate": _output_schema({
        "estimate": _NUM, "std_error": _NUM, "ci_low": _NUM, "ci_high": _NUM,
        "per_partition": _NUMS, "truncation_error": _NUM,
    }),
    "wasserstein": _output_schema({"value": _NUM, "truncation_error": _NUM}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: subcommand, model spec, seed, reps, output."""

    subcommand: str
    model: dict
    seed: int
    reps: int
    out: Optional[str]
    fmt: str
    overrides: dict


@functools.cache
def _validator(schema_name: str):
    """The validator of one model or output schema, checked against its metaschema once."""
    schema = {**SCHEMAS, **OUTPUT_SCHEMAS}[schema_name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(obj, schema_name: str) -> None:
    """``jsonschema.validate`` (the same best-matching error), with the schema checked once."""
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(obj))
    if error is not None:
        raise error


def _load_model(path: str, schema_name: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = jsonio.loads(fh.read())
    _validate(obj, schema_name)
    return obj


def _window_from(obj: dict) -> Box:
    return Box(tuple(obj["lows"]), tuple(obj["highs"]))


def _set_from(obj: dict):
    if "box" in obj:
        return _window_from(obj["box"])
    return LabelSet(obj["labels"])


def _partitions_from(obj: list) -> list[PartitionSpec]:
    return [PartitionSpec([_set_from(s) for s in sets]) for sets in obj]


def _source_from(obj: dict, partitions: list[PartitionSpec]):
    kind = obj["type"]
    if kind == "dirac_labels":
        sets = [s.members for p in partitions for s in p.sets if isinstance(s, LabelSet)]
        outside = set(obj["points"]).union(*sets) - set(obj["space"])
        if outside:
            raise ParameterError(f"labels {sorted(outside, key=repr)} are not in the space {obj['space']}")
        return DiracCountLaw(PointPattern(list(obj["points"])))
    if kind == "poisson":
        intensity = IntensityMeasure(_window_from(obj["window"]), float(obj["rate"]))
        if obj.get("exact", True):
            return PoissonCountLaw(intensity, prune_mass=1e-9)
        return intensity  # sampled: drawn as one batch
    if kind == "gibbs":
        return GibbsModel(
            beta=float(obj["beta"]),
            theta=float(obj["theta"]),
            rho=float(obj["rho"]),
            window=_window_from(obj["window"]),
        )
    if kind == "ustat_interval":
        model = IntervalPairModel(rate=float(obj["rate"]), delta=float(obj["delta"]))

        def sample(rng):
            return build_ustat_process(sample_poisson_process(model.mu, rng), model)

        return sample
    raise ParameterError(f"unknown source type {kind!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_stein_check(cfg: ExperimentConfig):
    spec = cfg.overrides
    lo, hi, n_lam = spec["lambda_grid"]
    n_g = spec["n_g"]
    top = spec["range"]
    lambdas = np.linspace(lo, hi, n_lam)
    sup_tol = spec["sup_tol"]
    res_tol = spec["res_tol"]
    rows = [("lambda", "g_id", "sup_abs", "sup_delta", "residual")] if cfg.fmt == "csv" else None
    worst_sup = worst_res = 0.0
    rng = streams.derive(cfg.seed, 3)
    g_cols = np.empty((top + 1, n_g))
    for g_id in range(n_g):  # a start in [-1, 1], then top steps in [-1, 1]
        g_cols[:, g_id] = np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(-1.0, 1.0, size=top)]).cumsum()
    for lam in lambdas:
        ghat, means = solve_stein_batch(float(lam), g_cols)
        residual, sup_abs, sup_delta = column_checks(lam, g_cols, ghat, means)
        if rows is not None:
            rows += [(f"{lam:.17g}", str(g_id), f"{sup_abs[g_id]:.17g}",
                      f"{sup_delta[g_id]:.17g}", f"{residual[g_id]:.17g}") for g_id in range(n_g)]
        worst_sup = max(worst_sup, float(sup_abs.max()), float(sup_delta.max()))
        worst_res = max(worst_res, float(residual.max()))
    ok = worst_sup <= sup_tol and worst_res <= res_tol
    payload = {
        "schema_version": SCHEMA_VERSION,
        "lambda_grid": [lo, hi, n_lam],
        "n_g": n_g,
        "range": top,
        "worst_sup": worst_sup,
        "worst_residual": worst_res,
        "sup_tol": sup_tol,
        "residual_tol": res_tol,
        "verdict": "PASS" if ok else "FAIL",
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), payload, rows


def _bernoulli_model(cfg: ExperimentConfig) -> BernoulliArrayModel:
    m = cfg.model
    return BernoulliArrayModel(
        n=m["n"], d=m["d"], p=m["p"], m=m["m"],
        family=m.get("family", "sliding_min"),
    )


def _cmd_bernoulli_bound(cfg: ExperimentConfig):
    model = _bernoulli_model(cfg)
    qs = [q_factor(model, k) for k in range(1, model.n + 1)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bound": mdep_bound(model),
        "corollary_bound": corollary_bound(model.p),
        "Q": qs,
        "verdict": "PASS",
    }
    return EXIT_OK, payload, None


def _cmd_bernoulli_verify(cfg: ExperimentConfig):
    model = _bernoulli_model(cfg)
    if model.m > 0 and cfg.reps < 2:  # the bootstrap standard error needs two rows
        raise ParameterError(f"an m-dependent array needs --reps >= 2, got {cfg.reps}")
    bound = mdep_bound(model)
    lam = PoissonVectorParams(tuple(model.p.sum(axis=0)))
    target = truncate_small_atoms(poisson_vector_pmf(lam, 1e-10), 1e-9)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bound": bound,
        "corollary_bound": corollary_bound(model.p),
        "mode": "",
        "distance": 0.0,
        "std_error": 0.0,
        "truncation_error": 0.0,
        "verdict": "",
    }
    if model.m == 0:
        exact = bernoulli_sum_pmf(model.p)
        res = wasserstein_l1(exact, target)
        ok = res.value <= bound + res.truncation_error + 1e-8
        payload.update(mode="exact", distance=res.value, truncation_error=res.truncation_error)
    else:
        sample = SampleAtoms(sample_mdep_counts(model, cfg.reps, cfg.seed))
        res = wasserstein_l1(sample.law(), target)
        boots = np.zeros(BERNOULLI_N_BOOT)
        for b in range(BERNOULLI_N_BOOT):
            take = streams.derive(cfg.seed, 30, b).integers(0, cfg.reps, size=cfg.reps)
            boots[b] = wasserstein_l1(sample.law(take), target, start=res.v).value
        se = float(boots.std(ddof=1))
        ok = res.value <= bound + res.truncation_error + 3.0 * se
        payload.update(
            mode="empirical", distance=res.value, std_error=se,
            truncation_error=res.truncation_error,
        )
    payload["verdict"] = "PASS" if ok else "FAIL"
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), payload, None


def _cmd_ustat_bound(cfg: ExperimentConfig):
    m = cfg.model
    if m["family"] == "interval_pair":
        model = IntervalPairModel(rate=float(m["rate"]), delta=float(m["delta"]))
    else:
        model = TripletSumModel(rate=float(m["rate"]), threshold=float(m["threshold"]))
    r = ustat_R(model)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": m["family"],
        "R": r.value,
        "R_error_bound": r.error_bound,
        "bound": ustat_bound(model),
        "order": model.order,
        "verdict": "PASS",
    }
    return EXIT_OK, payload, None


def _gibbs_model(cfg: ExperimentConfig) -> GibbsModel:
    m = cfg.model
    return GibbsModel(
        beta=float(m["beta"]), theta=float(m["theta"]), rho=float(m["rho"]),
        window=_window_from(m["window"]),
    )


def _cmd_papangelou_bound(cfg: ExperimentConfig):
    model = _gibbs_model(cfg)
    f = float(cfg.model.get("target_density", cfg.model["beta"]))
    target = IntensityMeasure(model.window, f)
    res = papangelou_bound(model, target, reps=cfg.reps, seed=cfg.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "estimate": res.estimate,
        "std_error": res.std_error,
        "quad_bound": 0.0,  # the integral is exact; the field stays for old readers
        "reps": res.reps,
        "verdict": "PASS",
    }
    return EXIT_OK, payload, None


def _cmd_gnz_check(cfg: ExperimentConfig):
    model = _gibbs_model(cfg)
    u_spec = cfg.model.get("u", {"kind": "one"})
    if u_spec["kind"] == "one":
        u = IndicatorTimesEmpty()
    elif u_spec["kind"] == "total_count":
        u = TotalCount()
    else:
        u = IndicatorTimesEmpty(
            region_a=_window_from(u_spec["region_a"]) if "region_a" in u_spec else None,
            region_b=_window_from(u_spec["region_b"]) if "region_b" in u_spec else None,
        )
    report = gnz_check(model, u, reps=cfg.reps, seed=cfg.seed)
    z_tol = cfg.overrides["z_threshold"]
    ok = abs(report.z_score) <= z_tol
    payload = {
        "schema_version": SCHEMA_VERSION,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "z_score": report.z_score,
        "std_error": report.std_error,
        "quad_bound": 0.0,
        "z_threshold": z_tol,
        "reps": report.reps,
        "verdict": "PASS" if ok else "FAIL",
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), payload, None


def _cmd_dpi_estimate(cfg: ExperimentConfig):
    m = cfg.model
    partitions = _partitions_from(m["partitions"])
    est = dpi_lower_bound(
        _source_from(m["xi"], partitions), _source_from(m["eta"], partitions), partitions,
        reps=cfg.reps, seed=cfg.seed, n_boot=cfg.overrides["n_boot"],
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "estimate": est.value,
        "std_error": est.std_error,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "per_partition": list(est.per_partition),
        "truncation_error": est.truncation_error,
        "verdict": "PASS",
    }
    rows = [("partition", "w1_lower_bound")]
    rows += [(str(i), f"{v:.17g}") for i, v in enumerate(est.per_partition)]
    code = EXIT_OK
    if "bound" in m:
        # a lower bound exceeding the claimed upper bound is a failed check
        slack = 3.0 * est.std_error + est.truncation_error
        if est.value > float(m["bound"]) + slack:
            payload["verdict"] = "FAIL"
            code = EXIT_CHECK_FAILED
    return code, payload, rows


def _cmd_wasserstein(cfg: ExperimentConfig):
    P, Q = (LatticePmf.from_json_dict(cfg.overrides[k]) for k in ("p", "q"))
    flow_csv = cfg.overrides.get("flow_csv")
    res = wasserstein_l1(P, Q, want_flow=flow_csv is not None)
    if flow_csv:
        with open(flow_csv, "w", encoding="utf-8") as fh:
            fh.write("x,y,mass\n")
            for x, y, mass in res.flow:
                fh.write(f"\"{' '.join(map(str, x))}\",\"{' '.join(map(str, y))}\",{mass:.17g}\n")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "value": res.value,
        "truncation_error": res.truncation_error,
        "verdict": "PASS",
    }
    return EXIT_OK, payload, None


_COMMANDS = {
    "stein-check": (_cmd_stein_check, None),
    "bernoulli-bound": (_cmd_bernoulli_bound, "bernoulli"),
    "bernoulli-verify": (_cmd_bernoulli_verify, "bernoulli"),
    "ustat-bound": (_cmd_ustat_bound, "ustat"),
    "papangelou-bound": (_cmd_papangelou_bound, "gibbs"),
    "gnz-check": (_cmd_gnz_check, "gibbs"),
    "dpi-estimate": (_cmd_dpi_estimate, "dpi"),
    "wasserstein": (_cmd_wasserstein, None),
}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _write_outputs(cfg: ExperimentConfig, payload: dict, rows) -> None:
    if cfg.fmt == "csv" and rows is not None:
        text = "\n".join(",".join(r) for r in rows) + "\n"
    else:
        text = jsonio.dumps(payload)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        jsonio.write(cfg.out + ".meta.json", {"subcommand": cfg.subcommand, "written_at": time.time()})
    else:
        sys.stdout.write(text)


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config; exit code 0 (pass), 2 (check failed),
    1 (a ``palab.errors`` failure) or 3 (any other exception)."""
    fn, _schema = _COMMANDS[cfg.subcommand]
    try:
        code, payload, rows = fn(cfg)
        _validate(payload, cfg.subcommand)
        _write_outputs(cfg, payload, rows)
    except Exception as exc:  # flush a failed marker, then report the failure
        if cfg.out:
            with contextlib.suppress(OSError):  # an unwritable --out gets no marker
                jsonio.write(cfg.out, {"failed": True, "error": str(exc), "subcommand": cfg.subcommand})
        if isinstance(exc, PalabError):
            print(f"{cfg.subcommand}: FAILED ({exc})", file=sys.stderr)
            return EXIT_USAGE
        traceback.print_exc()
        return EXIT_INTERNAL
    print(f"{cfg.subcommand}: {payload.get('verdict', 'PASS')}", file=sys.stderr)
    return code


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        grid = float(lo), float(hi), int(n)
    except ValueError:
        raise ParameterError(f"--lambda-grid must read lo:hi:count, got {text!r}") from None
    if grid[2] < 1:
        raise ParameterError(f"--lambda-grid needs a count >= 1, got {grid[2]}")
    return grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="palab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_model=True):
        if needs_model:
            p.add_argument("--model", required=True, help="JSON model file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--reps", type=int, default=10_000)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=None, help="accepted for old scripts; no effect")

    p = sub.add_parser("stein-check", help="magic-factor and residual sweep")
    common(p, needs_model=False)
    p.add_argument("--lambda-grid", default="0.1:10:25", help="lo:hi:count")
    p.add_argument("--g", default="random:200", help="random:<count>")
    p.add_argument("--range", type=int, default=300, dest="grange")
    p.add_argument("--sup-tol", type=float, default=1.0 + 1e-12)
    p.add_argument("--residual-tol", type=float, default=1e-10)

    for name in ("bernoulli-bound", "bernoulli-verify", "ustat-bound"):
        common(sub.add_parser(name))
    for name in ("papangelou-bound", "gnz-check"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--grid", type=int, default=None, help="accepted for old scripts; no effect")
    p.add_argument("--z-threshold", type=float, default=4.0)
    p = sub.add_parser("dpi-estimate")
    common(p)
    p.add_argument("--n-boot", type=int, default=DEFAULT_N_BOOT)
    p = sub.add_parser("wasserstein")
    common(p, needs_model=False)
    p.add_argument("--p", required=True, dest="p_path")
    p.add_argument("--q", required=True, dest="q_path")
    p.add_argument("--flow-csv", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    model: dict = {}
    _fn, schema = _COMMANDS[args.subcommand]
    try:
        if schema is not None:
            model = _load_model(args.model, schema)
        if args.subcommand == "stein-check":
            kind, _, count = args.g.partition(":")
            if kind != "random":
                raise ParameterError(f"unsupported g family {kind!r}")
            if not count.isdigit() or int(count) < 1:
                raise ParameterError(f"--g needs random:<count> with count >= 1, got {args.g!r}")
            if args.grange < 0:
                raise ParameterError(f"--range must be >= 0, got {args.grange}")
            overrides = {
                "lambda_grid": _parse_grid(args.lambda_grid),
                "n_g": int(count),
                "range": args.grange,
                "sup_tol": args.sup_tol,
                "res_tol": args.residual_tol,
            }
        elif args.subcommand == "gnz-check":
            overrides = {"z_threshold": args.z_threshold}
        elif args.subcommand == "dpi-estimate":
            overrides = {"n_boot": args.n_boot}
        elif args.subcommand == "wasserstein":
            overrides = {"p": _load_model(args.p_path, "pmf"), "q": _load_model(args.q_path, "pmf"),
                         "flow_csv": args.flow_csv}
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cfg = ExperimentConfig(
        subcommand=args.subcommand, model=model, seed=args.seed, reps=args.reps,
        out=args.out, fmt=args.fmt, overrides=overrides,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
