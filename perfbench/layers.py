"""Which palab attributes the traced run wraps, and the per-layer metrics
computed from them.

Layers are palab's modules.  Each probe names the attribute a caller looks
up (the caller's module, not the defining one), so the span sits on the
boundary between two layers.  Kinds split a layer's self time into the
pieces the per-layer metrics name (``rows``, ``target``, ``solve``, ...).
"""

from __future__ import annotations

import statistics

from tracer import Probe, Tracer, n_atoms, n_rows


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _note_solve(probe, args, kwargs, out):
    P, Q = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "Q")
    probe.add("arcs", n_atoms(P) * n_atoms(Q))
    if P.dim == 1:
        probe.add("d1_solves", 1)


def _note_pmf(probe, args, kwargs, out):
    probe.add("atoms_built", n_atoms(out))


def _note_rows(probe, args, kwargs, out):
    probe.add("rows_counted", n_rows(_arg(args, kwargs, 0, "batch")))
    probe.add("atoms_built", n_atoms(out))


def _note_target(probe, args, kwargs, out):
    probe.add("target_builds", 1)
    probe.add("atoms_built", n_atoms(out))


def _note_pattern(probe, args, kwargs, out):
    probe.add("patterns", 1)


def _note_count(probe, args, kwargs, out):
    # _collect_rows(source, partitions, reps, rng): one count vector per
    # (pattern, partition)
    partitions = _arg(args, kwargs, 1, "partitions")
    reps = _arg(args, kwargs, 2, "reps")
    if partitions is not None and reps is not None:
        probe.add("count_calls", int(reps) * len(partitions))


def _note_mdep_rows(probe, args, kwargs, out):
    probe.add("rows_sampled", len(out))


def _note_cells(probe, args, kwargs, out):
    g = _arg(args, kwargs, 1, "g")
    probe.add("cells", int(getattr(g, "size", 0)))


def make_probes() -> list[Probe]:
    P = Probe
    return [
        # cli: argparse, schema validation, JSON output
        P("palab.cli:main", "cli", "main"),
        # measures: rows -> pmf, count-law targets, exact constructors
        P("palab.cli:batch_from_rows", "measures", "rows"),
        P("palab.processes.dpi:batch_from_rows", "measures", "rows"),
        P("palab.cli:empirical_pmf", "measures", "rows", _note_rows),
        P("palab.processes.dpi:empirical_pmf", "measures", "rows", _note_rows),
        P("palab.cli:poisson_vector_pmf", "measures", "target", _note_target),
        P("palab.processes.dpi:poisson_vector_pmf", "measures", "target", _note_target),
        P("palab.cli:truncate_small_atoms", "measures", "target", _note_pmf),
        P("palab.processes.dpi:truncate_small_atoms", "measures", "target", _note_pmf),
        P("palab.cli:bernoulli_sum_pmf", "measures", "exact", _note_pmf),
        P("palab.measures:LatticePmf.from_json", "measures", "json", _note_pmf),
        # transport: exact W1 and TV
        P("palab.cli:wasserstein_l1", "transport", "solve", _note_solve),
        P("palab.processes.dpi:wasserstein_l1", "transport", "solve", _note_solve),
        P("palab.transport:wasserstein_l1", "transport", "solve", _note_solve),
        P("palab.transport:total_variation", "transport", "tv"),
        # processes: samplers, partition counts, grid integrals, dpi, U-statistics
        P("palab.cli:sample_gibbs", "processes", "sample", _note_pattern),
        P("palab.processes.gibbs:sample_gibbs", "processes", "sample", _note_pattern),
        P("palab.cli:sample_poisson_process", "processes", "sample", _note_pattern),
        P("palab.processes:sample_poisson_process", "processes", "sample", _note_pattern),
        # sample_gibbs draws its proposals through the patterns module
        P("palab.processes.patterns:sample_poisson_process", "processes", "proposal", timed=False),
        P("palab.processes.dpi:_collect_rows", "processes", "count", _note_count),
        P("palab.cli:gnz_check", "processes", "grid"),
        P("palab.cli:papangelou_bound", "processes", "grid"),
        P("palab.cli:dpi_lower_bound", "processes", "dpi"),
        P("palab.processes:dpi_lower_bound", "processes", "dpi"),
        P("palab.cli:build_ustat_process", "processes", "ustat"),
        P("palab.processes:build_ustat_process", "processes", "ustat"),
        P("palab.processes:ustat_bound", "processes", "ustat"),
        P("palab.processes:ustat_R", "processes", "ustat"),
        P("palab.processes.ustat:ustat_R", "processes", "ustat"),
        P("palab.cli:ustat_R", "processes", "ustat"),
        P("palab.cli:ustat_bound", "processes", "ustat"),
        # coupling: m-dependent sampler and bounds
        P("palab.cli:sample_mdep_counts", "coupling", "sample", _note_mdep_rows),
        P("palab.cli:mdep_bound", "coupling", "bound"),
        P("palab.cli:corollary_bound", "coupling", "bound"),
        P("palab.cli:q_factor", "coupling", "bound"),
        # stein: batch solver and decomposition check
        P("palab.cli:solve_stein_batch", "stein", "solve", _note_cells),
        P("palab.stein:solve_stein_batch", "stein", "solve", _note_cells),
        P("palab.stein:decomposition_check", "stein", "decomposition"),
        # quadrature
        P("palab.processes.ustat:integrate_box", "quadrature", "integrate"),
        P("palab.processes.patterns:integrate_box", "quadrature", "integrate"),
    ]


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "measures.self_s": ("s", "lower"),
    "measures.rows_to_pmf_s": ("s", "lower"),
    "measures.rows_counted": ("count", "lower"),
    "measures.atoms_built": ("count", "lower"),
    "measures.target_builds": ("count", "lower"),
    "measures.target_s": ("s", "lower"),
    "transport.self_s": ("s", "lower"),
    "transport.solves": ("count", "lower"),
    "transport.arcs": ("count", "lower"),
    "transport.solve_p50_s": ("s", "lower"),
    "transport.failures": ("count", "lower"),
    "transport.d1_solves": ("count", "lower"),
    "processes.sample_s": ("s", "lower"),
    "processes.patterns": ("count", "lower"),
    "processes.gibbs_proposals": ("count", "lower"),
    "processes.gibbs_accept_ratio": ("ratio", "higher"),
    "processes.count_s": ("s", "lower"),
    "processes.count_calls": ("count", "lower"),
    "processes.grid_s": ("s", "lower"),
    "processes.dpi_s": ("s", "lower"),
    "processes.ustat_s": ("s", "lower"),
    "coupling.self_s": ("s", "lower"),
    "coupling.rows_sampled": ("count", "lower"),
    "stein.self_s": ("s", "lower"),
    "stein.cells": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.wall_delta_frac": ("ratio", "lower"),
}


def pass_metrics(tr: Tracer, cost_timed: float, cost_counting: float) -> dict:
    """Per-layer metrics of the traced pass just finished.  The tracer's own
    cost is returned in seconds (``trace.overhead_s``, calibrated cost per
    wrapper call times the calls made); the caller divides it by the
    untraced pass time, and compares traced with untraced passes for
    ``trace.wall_delta_frac``."""
    proposals = tr.kind_calls("processes", "proposal")
    gibbs = sum(p.counts.get("patterns", 0) for p in tr.probes
                if p.target.endswith(":sample_gibbs"))
    solve_durations = tr.durations("transport", "solve")
    timed_calls, counting_calls = tr.wrapper_calls()
    overhead_s = timed_calls * cost_timed + counting_calls * cost_counting
    return {
        "measures.self_s": tr.layer_self("measures"),
        "measures.rows_to_pmf_s": tr.kind_self("measures", "rows"),
        "measures.rows_counted": tr.count("measures", "rows_counted"),
        "measures.atoms_built": tr.count("measures", "atoms_built"),
        "measures.target_builds": tr.count("measures", "target_builds"),
        "measures.target_s": tr.kind_self("measures", "target"),
        "transport.self_s": tr.layer_self("transport"),
        "transport.solves": tr.kind_calls("transport", "solve"),
        "transport.arcs": tr.count("transport", "arcs"),
        "transport.solve_p50_s": statistics.median(solve_durations) if solve_durations else 0.0,
        "transport.failures": tr.failures("transport"),
        "transport.d1_solves": tr.count("transport", "d1_solves"),
        "processes.sample_s": tr.kind_self("processes", "sample"),
        "processes.patterns": tr.count("processes", "patterns"),
        "processes.gibbs_proposals": proposals,
        "processes.gibbs_accept_ratio": gibbs / proposals if proposals else 0.0,
        "processes.count_s": tr.kind_self("processes", "count"),
        "processes.count_calls": tr.count("processes", "count_calls"),
        "processes.grid_s": tr.kind_self("processes", "grid"),
        "processes.dpi_s": tr.kind_self("processes", "dpi"),
        "processes.ustat_s": tr.kind_self("processes", "ustat"),
        "coupling.self_s": tr.layer_self("coupling"),
        "coupling.rows_sampled": tr.count("coupling", "rows_sampled"),
        "stein.self_s": tr.layer_self("stein"),
        "stein.cells": tr.count("stein", "cells"),
        "quadrature.self_s": tr.layer_self("quadrature"),
        "quadrature.calls": tr.kind_calls("quadrature", "integrate"),
        "cli.self_s": tr.layer_self("cli"),
        "cli.calls": tr.kind_calls("cli", "main"),
        "trace.overhead_s": overhead_s,
        "trace.untraced_s": tr.root_self_s,
        "trace.traced_wall_s": tr.root_s,
    }
