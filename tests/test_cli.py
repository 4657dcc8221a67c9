"""CLI harness tests: schema validation, exit codes, deterministic outputs,
and the documented pipelines end to end."""

import argparse
import inspect
import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import palab
import palab.processes
from palab import cli
from palab.cli import OUTPUT_SCHEMAS, SCHEMAS, main


def run_cli(args):
    return main(list(args))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bernoulli_model(tmp_path):
    rng = np.random.default_rng(1)
    p = (rng.random((8, 2)) * 0.15).round(6)
    return write_json(
        tmp_path / "bern.json",
        {"schema_version": 1, "n": 8, "d": 2, "p": p.tolist(), "m": 0},
    )


@pytest.fixture
def gibbs_model(tmp_path):
    return write_json(
        tmp_path / "gibbs.json",
        {
            "schema_version": 1,
            "beta": 2.0,
            "theta": 0.5,
            "rho": 0.1,
            "window": {"lows": [0.0, 0.0], "highs": [1.0, 1.0]},
            "u": {
                "kind": "indicator_empty",
                "region_a": {"lows": [0.0, 0.0], "highs": [0.5, 1.0]},
                "region_b": {"lows": [0.5, 0.0], "highs": [1.0, 1.0]},
            },
        },
    )


def test_bernoulli_bound_deterministic_output(tmp_path, bernoulli_model):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["bernoulli-bound", "--model", bernoulli_model, "--out", str(out1)]) == 0
    assert run_cli(["bernoulli-bound", "--model", bernoulli_model, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["bernoulli-bound"])
    assert payload["bound"] == payload["corollary_bound"]  # m = 0
    assert (tmp_path / "a.json.meta.json").exists()


def test_bernoulli_verify_exact_pipeline(tmp_path, bernoulli_model):
    out = tmp_path / "verify.json"
    code = run_cli(["bernoulli-verify", "--model", bernoulli_model, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["bernoulli-verify"])
    assert payload["verdict"] == "PASS"
    assert payload["mode"] == "exact"
    assert payload["distance"] <= payload["bound"] + payload["truncation_error"] + 1e-8


def test_bernoulli_verify_exact_ignores_reps(tmp_path, bernoulli_model):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    assert run_cli(["bernoulli-verify", "--model", bernoulli_model, "--out", str(outs[0])]) == 0
    assert run_cli(["bernoulli-verify", "--model", bernoulli_model, "--reps", "1", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bernoulli_verify_empirical_mdep(tmp_path):
    rng = np.random.default_rng(5)
    p = (rng.random((20, 2)) * 0.03).round(6)
    model = write_json(
        tmp_path / "mdep.json",
        {"schema_version": 1, "n": 20, "d": 2, "p": p.tolist(), "m": 1},
    )
    out = tmp_path / "verify.json"
    code = run_cli([
        "bernoulli-verify", "--model", model, "--out", str(out),
        "--reps", "20000", "--seed", "9",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "empirical"
    assert payload["verdict"] == "PASS"


def test_stein_check_csv(tmp_path):
    out = tmp_path / "stein.csv"
    code = run_cli([
        "stein-check", "--lambda-grid", "0.5:4:4", "--g", "random:10",
        "--range", "80", "--out", str(out), "--format", "csv", "--seed", "3",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,g_id,sup_abs,sup_delta,residual"
    assert len(lines) == 1 + 4 * 10
    for line in lines[1:]:
        _, _, sup_abs, sup_delta, residual = line.split(",")
        assert float(sup_abs) <= 1 + 1e-12
        assert float(sup_delta) <= 1 + 1e-12
        assert float(residual) <= 1e-10


STEIN_SMALL = ["stein-check", "--lambda-grid", "0.5:4:3", "--g", "random:2", "--range", "40", "--seed", "3"]


def test_stein_check_output_pinned(tmp_path):
    json_out, csv_out = tmp_path / "stein.json", tmp_path / "stein.csv"
    assert run_cli([*STEIN_SMALL, "--out", str(json_out)]) == 0
    assert run_cli([*STEIN_SMALL, "--out", str(csv_out), "--format", "csv"]) == 0
    assert json_out.read_text() == (
        '{"lambda_grid":[0.5,4.0,3],"n_g":2,"range":40,"residual_tol":1e-10,"schema_version":1,'
        '"sup_tol":1.0000000000010001,"verdict":"PASS","worst_residual":3.1086244689504383e-15,'
        '"worst_sup":0.5847935633965009}\n'
    )
    assert csv_out.read_text() == (
        "lambda,g_id,sup_abs,sup_delta,residual\n"
        "0.5,0,0.30215972619905623,0.1729300837048838,2.2204460492503131e-16\n"
        "0.5,1,0.5847935633965009,0.54410051799021431,8.8817841970012523e-16\n"
        "2.25,0,0.35683148520244562,0.13191343237638842,6.9388939039072284e-16\n"
        "2.25,1,0.55989940625257273,0.5137954792428604,1.5543122344752192e-15\n"
        "4,0,0.3950405266437384,0.14257327709269152,3.1086244689504383e-15\n"
        "4,1,0.56594816032977036,0.50574884104737095,8.8817841970012523e-16\n"
    )


@pytest.mark.parametrize("argv", [
    ["--g", "random:abc"],
    ["--lambda-grid", "1:2"],
    ["--g", "random:0"],
    ["--range", "-3"],
    ["--lambda-grid", "1:2:0"],
])
def test_stein_check_malformed_arguments_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "stein.json"
    assert run_cli(["stein-check", *argv, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--sup-tol", "--residual-tol", "--z-threshold", "--lambda-grid"])
def test_non_finite_flags_are_config_errors(tmp_path, capsys, gibbs_model, flag, value):
    # read with the config, like a non-finite number in a model file: no run, no --out file
    if flag == "--z-threshold":
        argv = ["gnz-check", "--model", gibbs_model, "--reps", "20"]
    else:  # a repeated --lambda-grid replaces the first
        argv = ["stein-check", "--lambda-grid", "1:2:2", "--g", "random:2", "--range", "60"]
    out = tmp_path / "out.json"
    value = f"1:{value}:2" if flag == "--lambda-grid" else value
    assert run_cli([*argv, flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_dpi_two_point_dirac_exactly_two(tmp_path):
    model = write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "dirac_labels", "space": ["a", "b"], "points": ["a"]},
            "eta": {"type": "dirac_labels", "space": ["a", "b"], "points": ["b"]},
            "partitions": [[{"labels": ["a"]}, {"labels": ["b"]}]],
        },
    )
    out = tmp_path / "dpi.json.out"
    assert run_cli(["dpi-estimate", "--model", model, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["dpi-estimate"])
    assert payload["estimate"] == 2.0


def test_dpi_bound_violation_exits_2(tmp_path):
    model = write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "dirac_labels", "space": ["a", "b"], "points": ["a"]},
            "eta": {"type": "dirac_labels", "space": ["a", "b"], "points": ["b"]},
            "partitions": [[{"labels": ["a"]}, {"labels": ["b"]}]],
            "bound": 0.5,
        },
    )
    assert run_cli(["dpi-estimate", "--model", model, "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "points, partitions",
    [
        (["c", "z"], [[{"labels": ["a"]}, {"labels": ["b"]}]]),
        (["a"], [[{"labels": ["a"]}, {"labels": ["b", "q"]}]]),
    ],
    ids=["points-outside-space", "set-outside-space"],
)
def test_dirac_labels_outside_space_exit_1(tmp_path, capsys, points, partitions):
    model = write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "dirac_labels", "space": ["a", "b"], "points": points},
            "eta": {"type": "dirac_labels", "space": ["a", "b"], "points": ["b"]},
            "partitions": partitions,
        },
    )
    out = tmp_path / "o.json"
    assert run_cli(["dpi-estimate", "--model", model, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failed"] is True
    assert "not in the space" in capsys.readouterr().err


ALL_SCHEMAS = {**SCHEMAS, **OUTPUT_SCHEMAS}
MALFORMED = [[], {}, {"schema_version": 2}, {"schema_version": 1, "bogus": 1}, {"schema_version": 1, "verdict": "MAYBE"}]


@pytest.mark.parametrize("name", sorted(ALL_SCHEMAS))
def test_compiled_validator_matches_jsonschema_validate(tmp_path, name):
    schema = ALL_SCHEMAS[name]
    jsonschema.validators.validator_for(schema).check_schema(schema)
    for bad in MALFORMED:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, schema)
        with pytest.raises(jsonschema.ValidationError) as got:
            if name in SCHEMAS:
                cli._load_model(write_json(tmp_path / "bad.json", bad), name)
            else:
                cli._validate(bad, name)
        assert str(got.value) == str(want.value)


def test_unknown_keys_rejected(tmp_path):
    model = write_json(
        tmp_path / "bad.json",
        {"schema_version": 1, "n": 2, "d": 1, "p": [[0.1], [0.1]], "m": 0, "bogus": 1},
    )
    assert run_cli(["bernoulli-bound", "--model", model]) == 1


def test_failed_marker_written(tmp_path):
    # valid schema, invalid semantics: row sums > 1 explode inside the pipeline
    model = write_json(
        tmp_path / "bad.json",
        {"schema_version": 1, "n": 1, "d": 2, "p": [[0.8, 0.7]], "m": 0},
    )
    out = tmp_path / "out.json"
    assert run_cli(["bernoulli-bound", "--model", model, "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["failed"] is True


def test_wasserstein_duplicate_atoms_exit_1(tmp_path):
    dup = {
        "dim": 1,
        "atoms": [{"x": [0], "p": 0.3}, {"x": [0], "p": 0.5}, {"x": [1], "p": 0.5}],
        "tail_mass": 0.0,
        "tail_moment": 0.0,
    }
    ok = {"dim": 1, "atoms": [{"x": [1], "p": 1.0}], "tail_mass": 0.0, "tail_moment": 0.0}
    p_path = write_json(tmp_path / "p.json", dup)
    q_path = write_json(tmp_path / "q.json", ok)
    out = tmp_path / "w.json"
    assert run_cli(["wasserstein", "--p", p_path, "--q", q_path, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failed"] is True


GIBBS_TEXT = ('{"schema_version": 1, "beta": %s, "theta": 0.5, "rho": 0.1, '
              '"window": {"lows": [0, 0], "highs": [1, 1]}}')


@pytest.mark.parametrize("argv, schema, text", [
    (["papangelou-bound", "--reps", "4"], "gibbs", GIBBS_TEXT % "Infinity"),
    (["papangelou-bound", "--reps", "4"], "gibbs", GIBBS_TEXT % "1e400"),
    (["papangelou-bound", "--reps", "4"], "gibbs", GIBBS_TEXT % ("1" + "0" * 400)),
    (["bernoulli-bound"], "bernoulli", '{"schema_version": 1, "n": 2, "d": 1, "p": [[0.1], [NaN]], "m": 0}'),
], ids=["infinity-literal", "overflowing-literal", "overflowing-integer-literal", "nan-literal"])
def test_non_finite_model_numbers_are_config_errors(tmp_path, capsys, argv, schema, text):
    model = tmp_path / f"{schema}.json"
    model.write_text(text)
    assert run_cli([argv[0], "--model", str(model), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "non-finite number" in err


@pytest.mark.parametrize("p_text, line", [
    ('[[0.1], ["0.2"]]', "config error: '0.2' is not of type 'number' at p[1][0]"),
    ('[[0.1], [true]]', "config error: True is not of type 'number' at p[1][0]"),
    ('[[0.1], [[0.2]]]', "config error: [0.2] is not of type 'number' at p[1][0]"),
    ('[[0.1], [0.2, 0.3]]', "bernoulli-bound: FAILED (p must be an n x d matrix: setting an array element"),
    ('[[0.1], [NaN]]', "config error: non-finite number NaN in JSON input"),
    ('[[0.1], [1.5]]', "bernoulli-bound: FAILED (entries of p must lie in [0,1])"),
], ids=["string", "boolean", "nested-list", "ragged-rows", "nan", "out-of-range"])
def test_bernoulli_p_entries_are_checked(tmp_path, capsys, p_text, line):
    # entries that are not numbers are config errors; shape and range are
    # checked when the model is built.  Every case exits 1.
    model = tmp_path / "bernoulli.json"
    model.write_text('{"schema_version": 1, "n": 2, "d": 1, "p": %s, "m": 0}' % p_text)
    assert run_cli(["bernoulli-bound", "--model", str(model)]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith(line)


def test_wasserstein_non_finite_tail_exits_1(tmp_path, capsys):
    # pmf files are read and checked with the config, like model files
    p_path = tmp_path / "p.json"
    p_path.write_text('{"dim": 1, "atoms": [{"x": [0], "p": 1.0}], "tail_mass": NaN, "tail_moment": 0.0}')
    out = tmp_path / "w.json"
    assert run_cli(["wasserstein", "--p", str(p_path), "--q", str(p_path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and "non-finite number NaN" in err


POINT_PMF_TEXT = '{"dim": 1, "atoms": [{"x": [0], "p": 1.0}], "tail_mass": 0.0, "tail_moment": 0.0}'


@pytest.mark.parametrize("p_text, message", [
    (None, "No such file"),
    (POINT_PMF_TEXT[:40], "Expecting"),
    (POINT_PMF_TEXT.replace(', "tail_moment": 0.0', ""), "'tail_moment' is a required property"),
], ids=["missing-file", "truncated-json", "missing-field"])
def test_wasserstein_bad_pmf_file_is_config_error(tmp_path, capsys, p_text, message):
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    if p_text is not None:
        p_path.write_text(p_text)
    q_path.write_text(POINT_PMF_TEXT)
    out = tmp_path / "w.json"
    for p, q in ((p_path, q_path), (q_path, p_path)):
        assert run_cli(["wasserstein", "--p", str(p), "--q", str(q), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()


@pytest.mark.parametrize("atoms", ['[{"x": [0]}]', '[{"p": 1.0}]', '[[0, 1.0]]', '[{"x": [0], "p": "one"}]'],
                         ids=["no-p", "no-x", "not-an-object", "p-not-a-number"])
def test_wasserstein_malformed_atoms_exit_1(tmp_path, capsys, atoms):
    p_path = tmp_path / "p.json"
    p_path.write_text(POINT_PMF_TEXT.replace('[{"x": [0], "p": 1.0}]', atoms))
    out = tmp_path / "w.json"
    assert run_cli(["wasserstein", "--p", str(p_path), "--q", str(p_path), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failed"] is True
    assert "atoms must be objects" in capsys.readouterr().err


def test_internal_failure_exits_3(tmp_path, monkeypatch):
    from palab.transport import _SimplexFailure

    def failing_solve(P, Q, want_flow=False):
        raise _SimplexFailure("duality gap 1e-3")

    monkeypatch.setattr(cli, "wasserstein_l1", failing_solve)
    point = {"dim": 1, "atoms": [{"x": [0], "p": 1.0}], "tail_mass": 0.0, "tail_moment": 0.0}
    p_path = write_json(tmp_path / "p.json", point)
    out = tmp_path / "w.json"
    code = run_cli(["wasserstein", "--p", p_path, "--q", p_path, "--out", str(out)])
    assert code == cli.EXIT_INTERNAL == 3
    payload = json.loads(out.read_text())
    assert payload["failed"] is True
    assert "duality gap" in payload["error"]


@pytest.fixture
def dpi_sampled_model(tmp_path):
    window = {"lows": [0.0], "highs": [1.0]}
    return write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "poisson", "rate": 2.0, "window": window, "exact": False},
            "eta": {"type": "poisson", "rate": 2.0, "window": window},
            "partitions": [[{"box": window}]],
        },
    )


@pytest.fixture
def mdep_model(tmp_path):
    return write_json(
        tmp_path / "mdep.json",
        {"schema_version": 1, "n": 4, "d": 1, "p": [[0.05]] * 4, "m": 1},
    )


@pytest.fixture
def dpi_labels_in_boxes(tmp_path):
    return write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "dirac_labels", "space": ["a", "b"], "points": ["a"]},
            "eta": {"type": "dirac_labels", "space": ["a", "b"], "points": ["b"]},
            "partitions": [[{"box": {"lows": [0.0], "highs": [1.0]}}]],
        },
    )


@pytest.fixture
def dpi_points_in_labels(tmp_path):
    window = {"lows": [0.0], "highs": [1.0]}
    return write_json(
        tmp_path / "dpi.json",
        {
            "schema_version": 1,
            "xi": {"type": "poisson", "rate": 2.0, "window": window, "exact": False},
            "eta": {"type": "poisson", "rate": 2.0, "window": window},
            "partitions": [[{"labels": ["a"]}]],
        },
    )


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("gibbs_model", ["gnz-check", "--reps", "0"]),
        ("gibbs_model", ["gnz-check", "--reps", "-5"]),
        ("gibbs_model", ["papangelou-bound", "--reps", "1"]),
        ("dpi_sampled_model", ["dpi-estimate", "--reps", "50", "--n-boot", "0"]),
        ("dpi_sampled_model", ["dpi-estimate", "--reps", "50", "--n-boot", "1"]),
        ("mdep_model", ["bernoulli-verify", "--reps", "-5"]),
        ("mdep_model", ["bernoulli-verify", "--reps", "0"]),
        ("mdep_model", ["bernoulli-verify", "--reps", "1"]),
        ("dpi_labels_in_boxes", ["dpi-estimate"]),
        ("dpi_points_in_labels", ["dpi-estimate", "--reps", "50"]),
    ],
    ids=["gnz-reps-0", "gnz-reps-neg", "pap-reps-1", "dpi-nboot-0", "dpi-nboot-1",
         "mdep-reps-neg", "mdep-reps-0", "mdep-reps-1", "dpi-labels-in-boxes", "dpi-points-in-labels"],
)
def test_bad_sample_sizes_exit_1_with_marker(tmp_path, request, fixture, argv):
    model = request.getfixturevalue(fixture)
    out = tmp_path / "out.json"
    assert run_cli([argv[0], "--model", model, *argv[1:], "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failed"] is True


def test_unwritable_output_exits_3_with_marker(tmp_path, gibbs_model, monkeypatch):
    # a non-finite value cannot be written deterministically; that failure
    # happens after the pipeline and must still leave the marker
    from palab.processes import PapangelouBound

    monkeypatch.setattr(cli, "papangelou_bound", lambda *a, **k: PapangelouBound(1.0, math.inf, 2))
    out = tmp_path / "out.json"
    assert run_cli(["papangelou-bound", "--model", gibbs_model, "--out", str(out)]) == cli.EXIT_INTERNAL
    payload = json.loads(out.read_text())
    assert payload["failed"] is True
    assert "non-finite" in payload["error"]


def test_missing_output_directory_exits_3_with_one_traceback(tmp_path, gibbs_model, capsys):
    # the failure marker cannot go to the same bad path either; it is skipped,
    # so the write error is reported once, not chained to a second one
    out = tmp_path / "missing" / "x.json"
    code = run_cli(["gnz-check", "--model", gibbs_model, "--reps", "8", "--grid", "8", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("Traceback") == 1
    assert "FileNotFoundError" in err
    assert not out.parent.exists()


def test_gnz_check_cli(tmp_path, gibbs_model):
    out = tmp_path / "gnz.json"
    code = run_cli([
        "gnz-check", "--model", gibbs_model, "--reps", "3000", "--seed", "4",
        "--grid", "16", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["gnz-check"])
    assert abs(payload["z_score"]) <= 4


@pytest.mark.parametrize("kind", ["one", "total_count"])
@pytest.mark.parametrize("region", ["region_a", "region_b"])
def test_gnz_check_region_on_a_region_less_kind_exit_1(tmp_path, capsys, kind, region):
    # only indicator_empty reads regions; elsewhere a region is a config error, not ignored
    model = write_json(tmp_path / "gibbs.json", {
        "schema_version": 1, "beta": 2.0, "theta": 0.5, "rho": 0.1, "window": {"lows": [0.0, 0.0], "highs": [1.0, 1.0]},
        "u": {"kind": kind, region: {"lows": [0.0, 0.0], "highs": [0.5, 1.0]}},
    })
    assert run_cli(["gnz-check", "--model", model, "--reps", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # the error names the region, not the kind
    assert err.splitlines()[0] == f"config error: Additional properties are not allowed ('{region}' was unexpected)"


SQUARE = {"lows": [0.0, 0.0], "highs": [1.0, 1.0]}
SEGMENT = {"lows": [0.0], "highs": [0.5]}
GIBBS_SOURCE = {"type": "gibbs", "beta": 2.0, "theta": 0.5, "rho": 0.1, "window": SQUARE}


@pytest.mark.parametrize("xi, eta, partition", [
    # one partition of a segment and a square
    ({"type": "poisson", "rate": 2.0, "window": SQUARE}, {"type": "poisson", "rate": 2.0, "window": SQUARE},
     [{"box": SEGMENT}, {"box": {"lows": [0.5, 0.0], "highs": [1.0, 1.0]}}]),
    # a segment on the square: counted from sampled points, and as an exact measure
    ({"type": "poisson", "rate": 2.0, "window": SQUARE, "exact": False}, GIBBS_SOURCE, [{"box": SEGMENT}]),
    ({"type": "poisson", "rate": 2.0, "window": SQUARE}, {"type": "poisson", "rate": 1.0, "window": SQUARE},
     [{"box": SEGMENT}]),
], ids=["mixed-partition", "sampled-counts", "exact-measure"])
def test_dpi_box_of_another_dimension_exit_1(tmp_path, capsys, xi, eta, partition):
    model = write_json(tmp_path / "dpi.json", {"schema_version": 1, "xi": xi, "eta": eta, "partitions": [partition]})
    assert run_cli(["dpi-estimate", "--model", model, "--reps", "50", "--n-boot", "2"]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("region", ["region_a", "region_b"])
def test_gnz_check_region_of_another_dimension_exit_1(tmp_path, capsys, region):
    model = write_json(tmp_path / "gibbs.json", {
        "schema_version": 1, "beta": 2.0, "theta": 0.5, "rho": 0.1, "window": SQUARE,
        "u": {"kind": "indicator_empty", region: SEGMENT},
    })
    assert run_cli(["gnz-check", "--model", model, "--reps", "50"]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


def test_papangelou_bound_cli(tmp_path, gibbs_model):
    out = tmp_path / "pap.json"
    code = run_cli([
        "papangelou-bound", "--model", gibbs_model, "--reps", "2000", "--seed", "4",
        "--grid", "24", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["papangelou-bound"])
    assert payload["estimate"] > 0


def test_ustat_bound_cli(tmp_path):
    model = write_json(
        tmp_path / "ustat.json",
        {"schema_version": 1, "family": "interval_pair", "rate": 1.0, "delta": 1.0},
    )
    out = tmp_path / "u.json"
    assert run_cli(["ustat-bound", "--model", model, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["R"] == pytest.approx(1.0, rel=1e-9)
    assert payload["bound"] == pytest.approx(4.0, rel=1e-9)


def test_wasserstein_cli_with_flow(tmp_path):
    from palab.measures import LatticePmf

    p = LatticePmf(2, {(2, 3): 1.0})
    q = LatticePmf(2, {(4, 1): 1.0})
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(p.to_json())
    q_path.write_text(q.to_json())
    out = tmp_path / "w.json"
    flow = tmp_path / "flow.csv"
    code = run_cli([
        "wasserstein", "--p", str(p_path), "--q", str(q_path),
        "--out", str(out), "--flow-csv", str(flow),
    ])
    assert code == 0
    assert json.loads(out.read_text())["value"] == 4.0
    lines = flow.read_text().strip().splitlines()
    assert lines[0] == "x,y,mass"
    assert len(lines) == 2


def test_wasserstein_d1_flow_is_the_monotone_plan(tmp_path):
    # two optimal plans cost 2.25 here; at d = 1 the solver returns the one
    # that never crosses
    p = {"dim": 1, "atoms": [{"x": [0], "p": 0.5}, {"x": [2], "p": 0.25}, {"x": [3], "p": 0.25}],
         "tail_mass": 0.0, "tail_moment": 0.0}
    q = {"dim": 1, "atoms": [{"x": [1], "p": 0.25}, {"x": [4], "p": 0.5}, {"x": [5], "p": 0.25}],
         "tail_mass": 0.0, "tail_moment": 0.0}
    p_path, q_path = write_json(tmp_path / "p.json", p), write_json(tmp_path / "q.json", q)
    flow = tmp_path / "flow.csv"
    assert run_cli(["wasserstein", "--p", p_path, "--q", q_path, "--out", str(tmp_path / "w.json"),
                    "--flow-csv", str(flow)]) == 0
    assert (tmp_path / "w.json").read_text() == (
        '{"schema_version":1,"truncation_error":0.0,"value":2.25,"verdict":"PASS"}\n')
    assert flow.read_text() == 'x,y,mass\n"0","1",0.25\n"0","4",0.25\n"2","4",0.25\n"3","5",0.25\n'


@pytest.mark.parametrize("argv, code", [
    (["bernoulli-bound"], 1),
    (["stein-check", "--bogus"], 1),
    (["stein-check", "--sup-tol", "-inf"], 1),
    (["--help"], 0),
], ids=["missing-model", "unknown-flag", "negative-infinity-as-option", "help"])
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("usage: palab") and "error:" in err and out == ""
    else:
        assert out.startswith("usage: palab") and err == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "palab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "stein-check" in proc.stdout


SCIPY_CHECK = """
import sys, {module}
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
from palab import cli, transport
from palab.measures import LatticePmf
P = LatticePmf(2, {{(0, 0): 0.5, (3, 1): 0.5}})
Q = LatticePmf(2, {{(1, 2): 0.25, (2, 0): 0.75}})
for select in (transport._grid_axes, lambda src, at: None):  # the grid, then the dense path
    transport._envelope_grid = select
    assert transport.wasserstein_l1(P, Q).value == 2.25
assert cli.main(["wasserstein", "--p", {pmf!r}, "--q", {pmf!r}, "--out", {out!r}]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


@pytest.mark.parametrize("module", ["palab", "palab.cli"])
def test_import_leaves_scipy_unloaded(tmp_path, module):
    # scipy is a test-only reference; importing any of it would add a quarter
    # of a second or more to every cold start.  Imports inside functions count
    # too, so the check also runs W1 at d = 2 on each path and the CLI.
    pmf = write_json(tmp_path / "p.json", {"dim": 2, "atoms": [{"x": [0, 1], "p": 1.0}], "tail_mass": 0.0,
                                           "tail_moment": 0.0})
    code = SCIPY_CHECK.format(module=module, pmf=pmf, out=str(tmp_path / "w.json"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


def test_threads_flag_has_no_effect(tmp_path, gibbs_model):
    outs = []
    for flag in (["--threads", "3"], ["--threads", "1"], []):
        out = tmp_path / f"t{len(outs)}.json"
        assert run_cli([
            "gnz-check", "--model", gibbs_model, "--reps", "600", "--seed", "2",
            "--grid", "8", "--out", str(out), *flag,
        ]) == 0
        outs.append(out.read_bytes())
    # --threads is accepted for old scripts; the fixed stream layout decides the draws
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("subcommand", ["gnz-check", "papangelou-bound"])
def test_grid_flag_has_no_effect(tmp_path, gibbs_model, subcommand):
    outs = []
    for flag in (["--grid", "0"], ["--grid", "48"], []):
        out = tmp_path / f"g{len(outs)}.json"
        assert run_cli([
            subcommand, "--model", gibbs_model, "--reps", "300", "--seed", "2", "--out", str(out), *flag,
        ]) == 0
        outs.append(out.read_bytes())
    # --grid is accepted for old scripts; the integrals are exact
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["quad_bound"] == 0.0


# Byte pins of each subcommand/format pair not pinned elsewhere: stdout,
# the stderr verdict line and the exit code, on small fixed models.
PIN_LABELS = {"type": "dirac_labels", "space": ["a", "b", "c"]}
PIN_P = [[0.1, 0.05], [0.02, 0.08], [0.07, 0.03], [0.04, 0.06]]
PIN_MODELS = {
    "bern1": {"schema_version": 1, "n": 4, "d": 2, "p": PIN_P, "m": 1},
    "bern0": {"schema_version": 1, "n": 4, "d": 2, "p": PIN_P, "m": 0},
    "pair": {"schema_version": 1, "family": "interval_pair", "rate": 1.5, "delta": 0.4},
    "triplet": {"schema_version": 1, "family": "triplet_sum", "rate": 1.2, "threshold": 0.8},
    "dirac": {
        "schema_version": 1,
        "xi": {**PIN_LABELS, "points": ["a", "a", "c"]}, "eta": {**PIN_LABELS, "points": ["b", "c"]},
        "partitions": [[{"labels": ["a"]}, {"labels": ["b", "c"]}], [{"labels": ["a", "b", "c"]}]],
    },
    "dirac_bound": {
        "schema_version": 1,
        "xi": {**PIN_LABELS, "points": ["a", "a", "c"]}, "eta": {**PIN_LABELS, "points": ["b", "c"]},
        "partitions": [[{"labels": ["a"]}, {"labels": ["b", "c"]}]], "bound": 1.5,
    },
    "poisson": {
        "schema_version": 1,
        "xi": {"type": "poisson", "rate": 3.0, "window": {"lows": [0.0], "highs": [1.0]}, "exact": False},
        "eta": {"type": "poisson", "rate": 2.5, "window": {"lows": [0.0], "highs": [1.0]}},
        "partitions": [[{"box": {"lows": [0.0], "highs": [0.5]}}, {"box": {"lows": [0.5], "highs": [1.0]}}]],
    },
    "gibbs": {
        "schema_version": 1, "beta": 2.0, "theta": 0.5, "rho": 0.1,
        "window": {"lows": [0.0, 0.0], "highs": [1.0, 1.0]}, "u": {"kind": "total_count"},
    },
    "p": {"dim": 2, "atoms": [{"x": [0, 1], "p": 0.5}, {"x": [2, 0], "p": 0.25}, {"x": [1, 1], "p": 0.25}],
          "tail_mass": 0.0, "tail_moment": 0.0},
    "q": {"dim": 2, "atoms": [{"x": [1, 0], "p": 0.5}, {"x": [0, 2], "p": 0.5}], "tail_mass": 0.0, "tail_moment": 0.0},
}
POISSON_DPI = ["dpi-estimate", "--model", "{poisson}", "--reps", "300", "--n-boot", "8", "--seed", "5"]
# case -> (argv, exit code, stdout)
OUTPUT_PINNED = {
    "bernoulli-bound": (["bernoulli-bound", "--model", "{bern1}"], 0, (
        '{"Q":[0.042860423950412674,0.042860423950412674,0.027275539384481129,0.021210184315342273],'
        '"bound":1.732978859207785,"corollary_bound":0.052500000000000005,"schema_version":1,"verdict":"PASS"}\n')),
    "bernoulli-verify-exact": (["bernoulli-verify", "--model", "{bern0}"], 0, (
        '{"bound":0.052500000000000005,"corollary_bound":0.052500000000000005,"distance":0.035956296481993832,'
        '"mode":"exact","schema_version":1,"std_error":0.0,"truncation_error":1.6944878043204101e-08,'
        '"verdict":"PASS"}\n')),
    "ustat-bound-interval-pair": (["ustat-bound", "--model", "{pair}"], 0, (
        '{"R":1.4399999963810544,"R_error_bound":1.0382271042885804e-08,"bound":5.7599999855242174,'
        '"family":"interval_pair","order":2,"schema_version":1,"verdict":"PASS"}\n')),
    "ustat-bound-triplet-sum": (["ustat-bound", "--model", "{triplet}"], 0, (
        '{"R":0.070778879971058334,"R_error_bound":1.3891222894191202e-10,"bound":0.18874367992282221,'
        '"family":"triplet_sum","order":3,"schema_version":1,"verdict":"PASS"}\n')),
    "dpi-estimate-dirac-json": (["dpi-estimate", "--model", "{dirac}"], 0, (
        '{"ci_high":3.0,"ci_low":3.0,"estimate":3.0,"per_partition":[3.0,1.0],"schema_version":1,'
        '"std_error":0.0,"truncation_error":0.0,"verdict":"PASS"}\n')),
    "dpi-estimate-dirac-csv": (["dpi-estimate", "--model", "{dirac}", "--format", "csv"], 0,
                               "partition,w1_lower_bound\n0,3\n1,1\n"),
    "dpi-estimate-poisson-json": (POISSON_DPI, 0, (
        '{"ci_high":0.61648420497021139,"ci_low":0.45802769378527197,"estimate":0.52532421422222786,'
        '"per_partition":[0.52532421422222786],"schema_version":1,"std_error":0.055034100203140895,'
        '"truncation_error":3.2286259485171177e-08,"verdict":"PASS"}\n')),
    "dpi-estimate-poisson-csv": ([*POISSON_DPI, "--format", "csv"], 0,
                                 "partition,w1_lower_bound\n0,0.52532421422222786\n"),
    "dpi-estimate-bound-fail": (["dpi-estimate", "--model", "{dirac_bound}"], 2, (
        '{"ci_high":3.0,"ci_low":3.0,"estimate":3.0,"per_partition":[3.0],"schema_version":1,'
        '"std_error":0.0,"truncation_error":0.0,"verdict":"FAIL"}\n')),
    "gnz-check-fail": (["gnz-check", "--model", "{gibbs}", "--reps", "64", "--seed", "3", "--z-threshold", "0.01"], 2, (
        '{"lhs":4.03125,"quad_bound":0.0,"reps":64,"rhs":3.8655713118729622,"schema_version":1,'
        '"std_error":0.44556188405796771,"verdict":"FAIL","z_score":0.37184214820647155,"z_threshold":0.01}\n')),
    "wasserstein": (["wasserstein", "--p", "{p}", "--q", "{q}", "--flow-csv", "{flow}"], 0,
                    '{"schema_version":1,"truncation_error":0.0,"value":1.0,"verdict":"PASS"}\n'),
    "stein-check-csv": (["stein-check", "--lambda-grid", "1:3:2", "--g", "random:2", "--range", "40", "--seed", "7",
                         "--format", "csv"], 0, (
        "lambda,g_id,sup_abs,sup_delta,residual\n"
        "1,0,0.54201189358651891,0.49381843401682457,6.6613381477509392e-16\n"
        "1,1,0.4602893764985444,0.4602893764985444,2.2204460492503131e-16\n"
        "3,0,0.53712832650494891,0.41102121950319032,2.2204460492503131e-15\n"
        "3,1,0.21424931392641733,0.21424931392641733,8.8817841970012523e-16\n")),
}
FLOW_PINNED = 'x,y,mass\n"0 1","0 2",0.5\n"1 1","1 0",0.25\n"2 0","1 0",0.25\n'


@pytest.mark.parametrize("case", sorted(OUTPUT_PINNED))
def test_subcommand_output_pinned(tmp_path, capsys, case):
    argv, code, expected = OUTPUT_PINNED[case]
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in PIN_MODELS.items()}
    paths["flow"] = str(tmp_path / "flow.csv")
    assert run_cli([a.format(**paths) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == expected
    assert err == f"{argv[0]}: {'PASS' if code == 0 else 'FAIL'}\n"
    if "--flow-csv" in argv:
        assert (tmp_path / "flow.csv").read_text() == FLOW_PINNED


def _opt(flag, dest, default=None, required=False, type=None, choices=None):
    return ([flag], dest, default, required, type, choices)


_COMMON_OPTS = [_opt("--out", "out"), _opt("--threads", "threads", type="int")]
_SEED_OPT = _opt("--seed", "seed", 0, type="int")
_REPS_OPT = _opt("--reps", "reps", 10_000, type="int")
_FORMAT_OPT = _opt("--format", "fmt", "json", choices=("json", "csv"))
_MODEL_OPT = _opt("--model", "model", required=True)
_GRID_OPT = _opt("--grid", "grid", type="int")
# subcommand -> its options in order: (option strings, dest, default, required, type, choices)
PARSER_SURFACE = {
    "stein-check": [
        _SEED_OPT, _FORMAT_OPT, _opt("--lambda-grid", "lambda_grid", "0.1:10:25"), _opt("--g", "g", "random:200"),
        _opt("--range", "grange", 300, type="int"), _opt("--sup-tol", "sup_tol", 1.0 + 1e-12, type="float"),
        _opt("--residual-tol", "residual_tol", 1e-10, type="float"), *_COMMON_OPTS,
    ],
    "bernoulli-bound": [_MODEL_OPT, *_COMMON_OPTS],
    "bernoulli-verify": [_MODEL_OPT, _SEED_OPT, _REPS_OPT, *_COMMON_OPTS],
    "ustat-bound": [_MODEL_OPT, *_COMMON_OPTS],
    "papangelou-bound": [_MODEL_OPT, _SEED_OPT, _REPS_OPT, _GRID_OPT, *_COMMON_OPTS],
    "gnz-check": [
        _MODEL_OPT, _SEED_OPT, _REPS_OPT, _GRID_OPT, _opt("--z-threshold", "z_threshold", 4.0, type="float"),
        *_COMMON_OPTS,
    ],
    "dpi-estimate": [_MODEL_OPT, _SEED_OPT, _REPS_OPT, _FORMAT_OPT, _opt("--n-boot", "n_boot", 32, type="int"),
                     *_COMMON_OPTS],
    "wasserstein": [
        _opt("--p", "p_path", required=True), _opt("--q", "q_path", required=True), _opt("--flow-csv", "flow_csv"),
        *_COMMON_OPTS,
    ],
}


# the (subcommand, flag) pairs a command does not read
UNREAD_FLAGS = [
    ("stein-check", "--reps"), ("bernoulli-bound", "--seed"), ("bernoulli-bound", "--reps"),
    ("bernoulli-bound", "--format"), ("bernoulli-verify", "--format"), ("ustat-bound", "--seed"),
    ("ustat-bound", "--reps"), ("ustat-bound", "--format"), ("papangelou-bound", "--format"),
    ("gnz-check", "--format"), ("wasserstein", "--seed"), ("wasserstein", "--reps"), ("wasserstein", "--format"),
]


@pytest.mark.parametrize("name, flag", UNREAD_FLAGS, ids=[f"{n}{f}" for n, f in UNREAD_FLAGS])
def test_unread_flag_is_a_usage_error(capsys, name, flag):
    required = {"wasserstein": ["--p", "p.json", "--q", "q.json"], "stein-check": []}.get(name, ["--model", "m.json"])
    with pytest.raises(SystemExit) as exc:
        main([name, *required, flag, "csv" if flag == "--format" else "1"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_parser_surface_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_SURFACE)
    for name, p in sub.choices.items():
        got = [(a.option_strings, a.dest, a.default, a.required, getattr(a.type, "__name__", None), a.choices)
               for a in p._actions if not isinstance(a, argparse._HelpAction)]
        assert got == PARSER_SURFACE[name], name


# the public library callables -> their parameters (names, kinds by the
# ``/`` and ``*`` markers, defaults), as ``PARSER_SURFACE`` pins the CLI
LIBRARY_SURFACE = {
    "LatticePmf": "(dim, atoms, tail_mass=0.0, tail_moment=0.0)",
    "PoissonVectorParams": "(lambdas)",
    "bernoulli_sum_pmf": "(p)",
    "empirical_pmf": "(rows)",
    "poisson_vector_pmf": "(params, eps)",
    "truncate_small_atoms": "(pmf, drop_mass)",
    "DistanceResult": "(value, truncation_error, flow=None, v=None)",
    "total_variation": "(P, Q)",
    "wasserstein_l1": "(P, Q, want_flow=False, start=None)",
    "Box": "(lows, highs)",
    "CountLawFromMeasure": "(measure_fn, eps=1e-10, prune_mass=0.0)",
    "DiracCountLaw": "(pattern)",
    "DpiEstimate": "(value, std_error, ci_low, ci_high, per_partition, truncation_error)",
    "GibbsModel": "(beta, theta, rho, window)",
    "GnzReport": "(lhs, rhs, z_score, std_error, reps)",
    "IndicatorTimesEmpty": "(region_a=None, region_b=None)",
    "IntensityMeasure": "(window, density, density_max=0.0)",
    "IntervalPairModel": "(rate, delta)",
    "LabelSet": "(members)",
    "LabelSpace": "(labels)",
    "MonotoneMapModel": "(rate, g, g_inverse)",
    "PapangelouBound": "(estimate, std_error, reps)",
    "PartitionSpec": "(sets)",
    "PatternBatch": "(points, offsets)",
    "PoissonCountLaw": "(intensity, eps=1e-10, prune_mass=0.0)",
    "PointPattern": "(points)",
    "PrefixTerm": "(lam, q_abs_sum, z_abs_means)",
    "RResult": "(value, error_bound)",
    "TotalCount": "()",
    "TripletSumModel": "(rate, threshold)",
    "UStatModel": "()",
    "build_ustat_process": "(points, model)",
    "count_vector": "(pattern, partition)",
    "coverage_areas": "(points, rho, box)",
    "dpi_lower_bound": "(xi, eta, partitions, reps=10000, seed=0, n_boot=32)",
    "gnz_check": "(model, u, reps, seed)",
    "papangelou_bound": "(model, target, reps, seed)",
    "sample_gibbs": "(model, seed_or_rng)",
    "sample_gibbs_batch": "(model, rng, size)",
    "sample_poisson_batch": "(intensity, rng, size)",
    "sample_poisson_process": "(intensity, seed_or_rng)",
    "sample_xA": "(model, region, seed_or_rng)",
    "tuple_process_bound": "(terms)",
    "ustat_R": "(model)",
    "ustat_bound": "(model)",
}


def test_library_surface_pinned():
    got = {}
    for module in (palab, palab.processes):
        for name in module.__all__:
            sig = inspect.signature(getattr(module, name))
            params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
            got[name] = str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))
    assert got == LIBRARY_SURFACE
