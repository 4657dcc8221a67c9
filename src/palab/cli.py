"""Reproducible experiment harness.

One binary, subcommand per pipeline.  Model and pmf files are JSON, validated
against strict schemas (unknown keys rejected) before any computation; results
are written as deterministic JSON (17 significant digits, sorted keys) or CSV.
Wall-clock metadata goes to a ``<out>.meta.json`` sidecar so reruns with the
same config and seed are byte-identical.

Exit codes: 0 all checks pass, 2 a dominance or statistical check failed,
1 usage or configuration error (including a non-finite flag value and any
``palab.errors`` failure), 3 internal failure (a failed solver certificate
check or a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

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
from .stein import _solve_stein, check_lipschitz_1d, column_checks
from .transport import ReweightedW1, wasserstein_l1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3
SCHEMA_VERSION = 1

BERNOULLI_N_BOOT = 24

# ---------------------------------------------------------------------------
# model schemas
# ---------------------------------------------------------------------------

def _strict(properties: dict, required) -> dict:
    """A JSON object schema: these properties, the ``required`` ones present, no others."""
    return {"type": "object", "properties": properties, "required": list(required), "additionalProperties": False}


_NUM = {"type": "number"}
_NUMS = {"type": "array", "items": _NUM}
_INT = {"type": "integer"}
_LABELS = {"type": "array", "items": {"type": ["string", "integer"]}}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_VERSION = {"schema_version": {"const": SCHEMA_VERSION}}
_WINDOW_SCHEMA = _strict({"lows": {**_NUMS, "minItems": 1}, "highs": {**_NUMS, "minItems": 1}},
                         ["lows", "highs"])
_SET_SCHEMA = {"oneOf": [
    _strict({"box": _WINDOW_SCHEMA}, ["box"]),
    _strict({"labels": {**_LABELS, "minItems": 1}}, ["labels"]),
]}
# a Gibbs model, in a ``gibbs`` model file or as a ``dpi`` source
_GIBBS_FIELDS = {"beta": _POSITIVE, "theta": _NONNEGATIVE, "rho": _POSITIVE, "window": _WINDOW_SCHEMA}
_SOURCE_SCHEMA = {"oneOf": [
    _strict({"type": {"const": "dirac_labels"}, "space": {**_LABELS, "minItems": 1}, "points": _LABELS},
            ["type", "space", "points"]),
    _strict({"type": {"const": "poisson"}, "rate": _NONNEGATIVE, "window": _WINDOW_SCHEMA,
             "exact": {"type": "boolean"}}, ["type", "rate", "window"]),
    _strict({"type": {"const": "gibbs"}, **_GIBBS_FIELDS}, ["type", *_GIBBS_FIELDS]),
    _strict({"type": {"const": "ustat_interval"}, "rate": _POSITIVE, "delta": _POSITIVE}, ["type", "rate", "delta"]),
]}

SCHEMAS = {
    "bernoulli": _strict({
        **_VERSION, "n": {"type": "integer", "minimum": 1}, "d": {"type": "integer", "minimum": 1},
        # the rows of ``p`` are checked by ``_check_number_rows``: a schema
        # walk over every entry costs ~10 us per entry
        "p": {"type": "array"}, "m": {"type": "integer", "minimum": 0},
        "family": {"enum": ["sliding_min", "independent"]},
    }, ["schema_version", "n", "d", "p", "m"]),
    "gibbs": _strict({
        **_VERSION, **_GIBBS_FIELDS, "target_density": _NONNEGATIVE,
        # the GNZ test function: only 1_A * 1{nu(B) = 0} has regions.  A branch
        # on ``kind`` (not oneOf) makes a stray region the error that is reported
        "u": {
            "if": {"properties": {"kind": {"const": "indicator_empty"}}},
            "then": _strict({"kind": True, "region_a": _WINDOW_SCHEMA, "region_b": _WINDOW_SCHEMA}, ["kind"]),
            "else": _strict({"kind": {"enum": ["one", "total_count", "indicator_empty"]}}, ["kind"]),
        },
    }, ["schema_version", *_GIBBS_FIELDS]),
    "ustat": {"oneOf": [
        _strict({**_VERSION, "family": {"const": family}, "rate": _POSITIVE, param: _POSITIVE},
                ["schema_version", "family", "rate", param])
        for family, param in (("interval_pair", "delta"), ("triplet_sum", "threshold"))
    ]},
    "dpi": _strict({
        **_VERSION, "xi": _SOURCE_SCHEMA, "eta": _SOURCE_SCHEMA,
        "partitions": {"type": "array", "items": {"type": "array", "items": _SET_SCHEMA, "minItems": 1}, "minItems": 1},
        "bound": _NONNEGATIVE,
    }, ["schema_version", "xi", "eta", "partitions"]),
    # LatticePmf.to_json, the input of ``wasserstein``.  Atoms are checked when
    # the pmf is built: a schema walk over every atom costs ~40 us per atom.
    "pmf": _strict({"dim": {"type": "integer", "minimum": 1}, "atoms": {"type": "array"},
                    "tail_mass": _NUM, "tail_moment": _NUM},
                   ["dim", "atoms", "tail_mass", "tail_moment"]),
}


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


def _check_number_rows(p: list) -> None:
    """``p`` is an array of arrays of numbers, in one pass; ragged rows and
    values are checked when the model is built."""
    for r, row in enumerate(p):
        if type(row) is not list:
            raise ParameterError(f"{row!r} is not of type 'array' at p[{r}]")
        for j, x in enumerate(row):
            if type(x) not in (int, float):  # a bool is not a JSON number
                raise ParameterError(f"{x!r} is not of type 'number' at p[{r}][{j}]")


def _load_model(path: str, schema_name: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = jsonio.loads(fh.read())
    _validate(obj, schema_name)
    if schema_name == "bernoulli":
        _check_number_rows(obj["p"])
    return obj


def _window_from(obj: dict) -> Box:
    return Box(tuple(obj["lows"]), tuple(obj["highs"]))


def _set_from(obj: dict):
    if "box" in obj:
        return _window_from(obj["box"])
    return LabelSet(obj["labels"])


def _partitions_from(obj: list) -> list[PartitionSpec]:
    return [PartitionSpec([_set_from(s) for s in sets]) for sets in obj]


def _gibbs_from(obj: dict) -> GibbsModel:
    return GibbsModel(
        beta=float(obj["beta"]), theta=float(obj["theta"]), rho=float(obj["rho"]),
        window=_window_from(obj["window"]),
    )


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
        return _gibbs_from(obj)
    if kind == "ustat_interval":
        model = IntervalPairModel(rate=float(obj["rate"]), delta=float(obj["delta"]))

        def sample(rng):
            return build_ustat_process(sample_poisson_process(model.mu, rng), model)

        return sample
    raise ParameterError(f"unknown source type {kind!r}")


# ---------------------------------------------------------------------------
# subcommands: one ``_COMMANDS`` entry each.  The function ``(args, config)``
# returns (passed, output fields, CSV rows or None); the parser and
# ``OUTPUT_SCHEMAS`` are built from the table, and ``run`` adds
# ``schema_version`` and ``verdict`` and picks the exit code.  ``config`` is
# read before the run, so its failures are config errors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """One subcommand: its function, ``--help`` line, output fields (JSON
    schemas by name) and extra flags (``(flag, add_argument keywords)``).  Its
    config is the ``--model`` file checked against ``SCHEMAS[model]`` or,
    without a model file, ``load(args)``."""

    run: Callable
    help: str
    fields: dict
    model: Optional[str] = None
    load: Optional[Callable] = None
    flags: tuple = ()


def _stein_sweep(args) -> tuple[tuple[float, float, int], int]:
    """The ``stein-check`` sweep: ((lo, hi, count) of the lambda grid, number of g columns)."""
    kind, _, count = args.g.partition(":")
    if kind != "random":
        raise ParameterError(f"unsupported g family {kind!r}")
    if not count.isdigit() or int(count) < 1:
        raise ParameterError(f"--g needs random:<count> with count >= 1, got {args.g!r}")
    if args.grange < 0:
        raise ParameterError(f"--range must be >= 0, got {args.grange}")
    try:
        lo, hi, n = args.lambda_grid.split(":")
        grid = float(lo), float(hi), int(n)
    except ValueError:
        raise ParameterError(f"--lambda-grid must read lo:hi:count, got {args.lambda_grid!r}") from None
    if not (math.isfinite(grid[0]) and math.isfinite(grid[1])):
        raise ParameterError(f"--lambda-grid needs finite bounds, got {args.lambda_grid!r}")
    if grid[2] < 1:
        raise ParameterError(f"--lambda-grid needs a count >= 1, got {grid[2]}")
    return grid, int(count)


def _cmd_stein_check(args, sweep):
    (lo, hi, n_lam), n_g = sweep
    top = args.grange
    rows = [("lambda", "g_id", "sup_abs", "sup_delta", "residual")] if args.fmt == "csv" else None
    worst_sup = worst_res = 0.0
    rng = streams.derive(args.seed, 3)
    g_cols = np.empty((top + 1, n_g))
    for g_id in range(n_g):  # a start in [-1, 1], then top steps in [-1, 1]
        g_cols[:, g_id] = np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(-1.0, 1.0, size=top)]).cumsum()
    check_lipschitz_1d(g_cols)  # once for the sweep
    for lam in np.linspace(lo, hi, n_lam):
        ghat, means = _solve_stein(float(lam), g_cols)
        residual, sup_abs, sup_delta = column_checks(lam, g_cols, ghat, means)
        if rows is not None:
            rows += [(f"{lam:.17g}", str(g_id), f"{sup_abs[g_id]:.17g}",
                      f"{sup_delta[g_id]:.17g}", f"{residual[g_id]:.17g}") for g_id in range(n_g)]
        worst_sup = max(worst_sup, float(sup_abs.max()), float(sup_delta.max()))
        worst_res = max(worst_res, float(residual.max()))
    fields = {
        "lambda_grid": [lo, hi, n_lam], "n_g": n_g, "range": top, "worst_sup": worst_sup,
        "worst_residual": worst_res, "sup_tol": args.sup_tol, "residual_tol": args.residual_tol,
    }
    return worst_sup <= args.sup_tol and worst_res <= args.residual_tol, fields, rows


def _bernoulli_model(m: dict) -> BernoulliArrayModel:
    return BernoulliArrayModel(n=m["n"], d=m["d"], p=m["p"], m=m["m"], family=m.get("family", "sliding_min"))


def _cmd_bernoulli_bound(args, m):
    model = _bernoulli_model(m)
    qs = [q_factor(model, k) for k in range(1, model.n + 1)]
    return True, {"bound": mdep_bound(model), "corollary_bound": corollary_bound(model.p), "Q": qs}, None


def _cmd_bernoulli_verify(args, m):
    model = _bernoulli_model(m)
    if model.m > 0 and args.reps < 2:  # the bootstrap standard error needs two rows
        raise ParameterError(f"an m-dependent array needs --reps >= 2, got {args.reps}")
    bound = mdep_bound(model)
    lam = PoissonVectorParams(tuple(model.p.sum(axis=0)))
    target = truncate_small_atoms(poisson_vector_pmf(lam, 1e-10), 1e-9)
    if model.m == 0:
        res = wasserstein_l1(bernoulli_sum_pmf(model.p), target)
        mode, se, slack = "exact", 0.0, 1e-8
    else:
        sample = SampleAtoms(sample_mdep_counts(model, args.reps, args.seed))
        w1 = ReweightedW1(sample.law(), target)
        res = w1.estimate
        boots = np.zeros(BERNOULLI_N_BOOT)
        for b in range(BERNOULLI_N_BOOT):
            take = streams.derive(args.seed, 30, b).integers(0, args.reps, size=args.reps)
            boots[b] = w1.replicate(sample.counts(take)).value
        se = float(boots.std(ddof=1))
        mode, slack = "empirical", 3.0 * se
    fields = {
        "bound": bound, "corollary_bound": corollary_bound(model.p), "mode": mode, "distance": res.value,
        "std_error": se, "truncation_error": res.truncation_error,
    }
    return res.value <= bound + res.truncation_error + slack, fields, None


def _cmd_ustat_bound(args, m):
    if m["family"] == "interval_pair":
        model = IntervalPairModel(rate=float(m["rate"]), delta=float(m["delta"]))
    else:
        model = TripletSumModel(rate=float(m["rate"]), threshold=float(m["threshold"]))
    r = ustat_R(model)
    fields = {
        "family": m["family"], "R": r.value, "R_error_bound": r.error_bound, "bound": ustat_bound(model),
        "order": model.order,
    }
    return True, fields, None


def _cmd_papangelou_bound(args, m):
    model = _gibbs_from(m)
    target = IntensityMeasure(model.window, float(m.get("target_density", m["beta"])))
    res = papangelou_bound(model, target, reps=args.reps, seed=args.seed)
    # the integral is exact; quad_bound stays for old readers
    return True, {"estimate": res.estimate, "std_error": res.std_error, "quad_bound": 0.0, "reps": res.reps}, None


def _cmd_gnz_check(args, m):
    u = m.get("u", {"kind": "one"})
    if u["kind"] == "total_count":
        fn = TotalCount()
    else:  # "one" is 1_A * 1{nu(B) = 0} with neither region
        fn = IndicatorTimesEmpty(**{k: _window_from(v) for k, v in u.items() if k != "kind"})
    report = gnz_check(_gibbs_from(m), fn, reps=args.reps, seed=args.seed)
    fields = {
        "lhs": report.lhs, "rhs": report.rhs, "z_score": report.z_score, "std_error": report.std_error,
        "quad_bound": 0.0, "z_threshold": args.z_threshold, "reps": report.reps,
    }
    return abs(report.z_score) <= args.z_threshold, fields, None


def _cmd_dpi_estimate(args, m):
    partitions = _partitions_from(m["partitions"])
    est = dpi_lower_bound(
        _source_from(m["xi"], partitions), _source_from(m["eta"], partitions), partitions,
        reps=args.reps, seed=args.seed, n_boot=args.n_boot,
    )
    fields = {
        "estimate": est.value, "std_error": est.std_error, "ci_low": est.ci_low, "ci_high": est.ci_high,
        "per_partition": list(est.per_partition), "truncation_error": est.truncation_error,
    }
    rows = [("partition", "w1_lower_bound")] + [(str(i), f"{v:.17g}") for i, v in enumerate(est.per_partition)]
    # a lower bound exceeding the claimed upper bound is a failed check
    passed = "bound" not in m or est.value <= float(m["bound"]) + (3.0 * est.std_error + est.truncation_error)
    return passed, fields, rows


def _cmd_wasserstein(args, pmfs):
    P, Q = (LatticePmf.from_json_dict(obj) for obj in pmfs)
    res = wasserstein_l1(P, Q, want_flow=args.flow_csv is not None)
    if args.flow_csv:
        with open(args.flow_csv, "w", encoding="utf-8") as fh:
            fh.write("x,y,mass\n")
            for x, y, mass in res.flow:
                fh.write(f"\"{' '.join(map(str, x))}\",\"{' '.join(map(str, y))}\",{mass:.17g}\n")
    return True, {"value": res.value, "truncation_error": res.truncation_error}, None


_INERT = "accepted for old scripts; no effect"
_MODEL_FLAG = ("--model", {"required": True, "help": "JSON model file"})
_COMMON_FLAGS = (("--out", {"default": None}), ("--threads", {"type": int, "default": None, "help": _INERT}))
# each command takes the ones it reads
_SEED_FLAG = ("--seed", {"type": int, "default": 0})
_REPS_FLAG = ("--reps", {"type": int, "default": 10_000})
_FORMAT_FLAG = ("--format", {"dest": "fmt", "choices": ("json", "csv"), "default": "json"})
_GRID_FLAG = ("--grid", {"type": int, "default": None, "help": _INERT})
_SAMPLED_FLAGS = (_SEED_FLAG, _REPS_FLAG)

_COMMANDS = {
    "stein-check": _Command(
        _cmd_stein_check, "magic-factor and residual sweep", load=_stein_sweep,
        fields={"lambda_grid": _NUMS, "n_g": _INT, "range": _INT, "worst_sup": _NUM, "worst_residual": _NUM,
                "sup_tol": _NUM, "residual_tol": _NUM},
        flags=(
            _SEED_FLAG, _FORMAT_FLAG,
            ("--lambda-grid", {"default": "0.1:10:25", "help": "lo:hi:count"}),
            ("--g", {"default": "random:200", "help": "random:<count>"}),
            ("--range", {"type": int, "default": 300, "dest": "grange"}),
            ("--sup-tol", {"type": float, "default": 1.0 + 1e-12}),
            ("--residual-tol", {"type": float, "default": 1e-10,
                                "help": "absolute bound on the equation residual, which grows with lambda and --range"}),
        ),
    ),
    "bernoulli-bound": _Command(
        _cmd_bernoulli_bound, "m-dependent Bernoulli bound, independent-rows bound and Q factors",
        model="bernoulli",
        fields={"bound": _NUM, "corollary_bound": _NUM, "Q": _NUMS},
    ),
    "bernoulli-verify": _Command(
        _cmd_bernoulli_verify, "exact (m = 0) or sampled W1 to the Poisson law against the bound",
        model="bernoulli", flags=_SAMPLED_FLAGS,
        fields={"bound": _NUM, "corollary_bound": _NUM, "mode": {"enum": ["exact", "empirical"]},
                "distance": _NUM, "std_error": _NUM, "truncation_error": _NUM},
    ),
    "ustat-bound": _Command(
        _cmd_ustat_bound, "U-statistic R-functional and bound", model="ustat",
        fields={"family": {"type": "string"}, "R": _NUM, "R_error_bound": _NUM, "bound": _NUM, "order": _INT},
    ),
    "papangelou-bound": _Command(
        _cmd_papangelou_bound, "conditional-intensity bound of a Gibbs model", model="gibbs",
        flags=(*_SAMPLED_FLAGS, _GRID_FLAG),
        fields={"estimate": _NUM, "std_error": _NUM, "quad_bound": _NUM, "reps": _INT},
    ),
    "gnz-check": _Command(
        _cmd_gnz_check, "GNZ identity check of the Gibbs sampler", model="gibbs",
        flags=(*_SAMPLED_FLAGS, _GRID_FLAG, ("--z-threshold", {"type": float, "default": 4.0})),
        fields={"lhs": _NUM, "rhs": _NUM, "z_score": _NUM, "std_error": _NUM, "quad_bound": _NUM,
                "z_threshold": _NUM, "reps": _INT},
    ),
    "dpi-estimate": _Command(
        _cmd_dpi_estimate, "partition lower bound on the process distance", model="dpi",
        flags=(*_SAMPLED_FLAGS, _FORMAT_FLAG, ("--n-boot", {"type": int, "default": DEFAULT_N_BOOT})),
        fields={"estimate": _NUM, "std_error": _NUM, "ci_low": _NUM, "ci_high": _NUM, "per_partition": _NUMS,
                "truncation_error": _NUM},
    ),
    "wasserstein": _Command(
        _cmd_wasserstein, "exact W1 between two serialized pmfs",
        load=lambda args: (_load_model(args.p_path, "pmf"), _load_model(args.q_path, "pmf")),
        flags=(("--p", {"required": True, "dest": "p_path"}), ("--q", {"required": True, "dest": "q_path"}),
               ("--flow-csv", {"default": None})),
        fields={"value": _NUM, "truncation_error": _NUM},
    ),
}


def _output_schema(fields: dict) -> dict:
    props = {**_VERSION, "verdict": {"enum": ["PASS", "FAIL"]}, **fields}
    return _strict(props, sorted(props))


OUTPUT_SCHEMAS = {name: _output_schema(cmd.fields) for name, cmd in _COMMANDS.items()}

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1 (argparse's own code, 2, means a failed check here)."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="palab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag, kwargs in ((_MODEL_FLAG,) if cmd.model else ()) + cmd.flags + _COMMON_FLAGS:
            p.add_argument(flag, **kwargs)
    return parser


_parser = functools.cache(_build_parser)  # one parser per process: parse_args keeps no state


def _write_outputs(args, payload: dict, rows) -> None:
    if rows is not None and args.fmt == "csv":
        text = "\n".join(",".join(r) for r in rows) + "\n"
    else:
        text = jsonio.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        jsonio.write(args.out + ".meta.json", {"subcommand": args.subcommand, "written_at": time.time()})
    else:
        sys.stdout.write(text)


def run(args, config) -> int:
    """Run subcommand ``args.subcommand`` on its config; exit code 0 (pass),
    2 (check failed), 1 (a ``palab.errors`` failure) or 3 (any other exception)."""
    name = args.subcommand
    try:
        passed, fields, rows = _COMMANDS[name].run(args, config)
        payload = {"schema_version": SCHEMA_VERSION, **fields, "verdict": "PASS" if passed else "FAIL"}
        _validate(payload, name)
        _write_outputs(args, payload, rows)
    except Exception as exc:  # flush a failed marker, then report the failure
        if args.out:
            with contextlib.suppress(OSError):  # an unwritable --out gets no marker
                jsonio.write(args.out, {"failed": True, "error": str(exc), "subcommand": name})
        if isinstance(exc, PalabError):
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
            return EXIT_USAGE
        traceback.print_exc()
        return EXIT_INTERNAL
    print(f"{name}: {payload['verdict']}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = _COMMANDS[args.subcommand]
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"--{dest.replace('_', '-')} must be finite, got {value}")
        config = _load_model(args.model, cmd.model) if cmd.model else cmd.load(args)
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(args, config)


if __name__ == "__main__":
    sys.exit(main())
