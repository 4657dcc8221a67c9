"""One measurement of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.  Set-up
time runs from the first line of this file (before numpy, scipy and palab are
imported) through input generation and warm-up.  With ``--setup-only`` the
process stops there.  Otherwise it repeats the workload's pass for about
``--seconds`` seconds and, after the timed passes, checks every operation
against palab's verdict, the recorded reference values and the first pass's
output, then cross-checks one W1 instance with HiGHS.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics, the untraced ones the base for the overhead.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
CLOSURE_TOL_S = 1e-6


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def check_ops(passes, reference, tolerances) -> list[str]:
    """One entry per failed operation: palab's verdict, the reference value,
    and byte-identical output across passes of the same inputs."""
    failures = []
    first = {op.name: op.text for op in passes[0]}
    for i, ops in enumerate(passes):
        for op in ops:
            reasons = []
            if op.error or not op.ok:
                reasons.append(op.error or "not ok")
            if op.text != first.get(op.name):
                reasons.append("output differs from pass 0")
            ref = reference.get(op.ref_key) if op.ref_key else None
            if op.ref_key and op.ok and ref is None:
                reasons.append(f"no reference for {op.ref_key}")
            for name in op.ref_fields if (ref is not None and op.ok) else ():
                got, want = op.values.get(name), ref.get(name)
                if got is None or want is None or not abs(got - want) <= tolerances[name]:
                    reasons.append(f"{name}={got!r} vs reference {want!r}")
            if reasons:
                failures.append(f"pass {i} {op.name}: {'; '.join(reasons)}")
    return failures


def run_oracle(wl, ops) -> tuple[bool, str]:
    import oracle

    try:
        P, Q, value = wl.oracle_instance(ops)
        lp = oracle.highs_w1(P, Q)
    except Exception as exc:  # an oracle that cannot run is a failed operation
        return False, f"oracle: {type(exc).__name__}: {exc}"
    ok = abs(value - lp) <= oracle.AGREEMENT
    return ok, f"oracle: palab {value!r} vs HiGHS {lp!r} (|diff| {abs(value - lp):.2e})"


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name}\n{op.text}\n".encode())
    return h.hexdigest()


def timed_passes(wl, seconds: float):
    """Untraced passes until about ``seconds`` have gone: another pass starts
    only if the median pass so far still fits."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = wl.run_pass()
        walls.append(time.perf_counter() - t0)
        passes.append(ops)
        if time.perf_counter() - start + _median(walls) > seconds:
            return walls, passes


def traced_passes(wl, seconds: float):
    """Alternating untraced/traced pass pairs (order flips every pair)."""
    import layers
    from tracer import Tracer, calibrate

    tracer = Tracer(layers.make_probes())
    cost_timed, cost_counting = calibrate()
    untraced, traced, passes, samples, closure = [], [], [], [], 0.0
    start = time.perf_counter()
    pair = 0
    while True:
        for use_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if use_trace:
                tracer.reset()
                tracer.install()
                try:
                    ops, wall = tracer.run_root(wl.run_pass)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                samples.append(layers.pass_metrics(tracer, cost_timed, cost_counting))
                closure = max(closure, tracer.closure_error())
            else:
                t0 = time.perf_counter()
                ops = wl.run_pass()
                untraced.append(time.perf_counter() - t0)
            passes.append(ops)
        pair += 1
        if time.perf_counter() - start + _median(untraced) + _median(traced) > seconds:
            break
    base = _median(untraced)
    per_layer = {}
    for name in layers.PER_LAYER:
        if name == "trace.wall_delta_frac":
            per_layer[name] = _median(traced) / base - 1.0
        elif name == "trace.overhead_frac":
            per_layer[name] = statistics.median_low([s["trace.overhead_s"] for s in samples]) / base
        else:
            # a value one traced pass measured, so counts stay whole numbers
            per_layer[name] = statistics.median_low([s[name] for s in samples])
    probes = {p.target: p.installed for p in tracer.probes}
    return untraced, traced, passes, per_layer, closure, probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--record", default=None, help="write the full run record here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setup_s": setup_s}
        if args.trace:
            walls, traced, passes, per_layer, closure, probes = traced_passes(wl, args.seconds)
            result.update(traced_walls=traced, per_layer=per_layer, closure_error_s=closure,
                          probes_installed=probes)
        else:
            walls, passes = timed_passes(wl, args.seconds)
            closure = 0.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, "r", encoding="utf-8") as fh:
                reference = json.load(fh)["workloads"].get(args.workload, {})
        failures = check_ops(passes, reference, workloads.TOLERANCES)
        oracle_ok, oracle_detail = run_oracle(wl, passes[0])
        if not oracle_ok:
            failures.append(oracle_detail)
        attempted = sum(len(ops) for ops in passes) + 1
        result.update(
            walls=walls,
            wall_s=statistics.median(walls),
            peak_rss_mb=peak_rss_mb,
            attempted=attempted,
            failed=len(failures),
            failures=failures,
            oracle=oracle_detail,
            closure_ok=closure <= CLOSURE_TOL_S,
            digest=digest(passes[0]),
            outputs={op.name: op.text for op in passes[0]},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    result.pop("outputs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
