"""Problem files, reports, the fuzz campaign, and the command line."""
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from morsekit import bilinear, boundary, constraints, exactla, harness
from morsekit.cli import main
from morsekit.errors import ImpossibleCounts, ParseError, ValidationError
from morsekit.harness import (
    fuzz,
    parse_problem,
    random_unimodular,
    report_to_dict,
    report_to_json,
    report_to_text,
    run,
)

try:
    from importlib import resources
    _REPORT_SCHEMA = json.loads(
        resources.files("morsekit.schemas").joinpath("report.schema.json")
        .read_text())
except Exception:  # pragma: no cover
    _REPORT_SCHEMA = None


ABSTRACT_DOC = """
{
  "kind": "abstract",
  "dim": 2,
  "backend": "exact",
  "form": [["-1", "0"], ["0", "1"]],
  "constraints": [["1", "0"]]
}
"""

PDE_DOC = """
{
  "kind": "pde",
  "domain": {"a": 0.0, "b": 1.0, "n_elements": 32},
  "p": {"constant": 5.0},
  "q_a": 0.0,
  "q_b": 0.0,
  "constraints": "volume"
}
"""

PDE_DECOMP_DOC = """
{
  "kind": "pde",
  "domain": {"a": 0.0, "b": 1.0, "n_elements": 16},
  "p": {"constant": 0.0},
  "q_a": 1.0,
  "q_b": 1.0
}
"""


def validate_report(report):
    if _REPORT_SCHEMA is not None:
        jsonschema.validate(json.loads(report_to_json(report)), _REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# parsing

def test_parse_abstract_exact_entries():
    prob = parse_problem(ABSTRACT_DOC)
    assert prob.kind == "abstract"
    assert prob.backend == "exact"
    assert prob.form[0, 0] == Fraction(-1)
    assert isinstance(prob.form[0, 0], Fraction)


def test_parse_fraction_strings():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [["-1/2", "0"], ["0", "2/3"]]
    prob = parse_problem(json.dumps(doc))
    assert prob.form[0, 0] == Fraction(-1, 2)
    assert prob.form[1, 1] == Fraction(2, 3)


def test_parse_integral_floats_allowed_exact():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [[-1.0, 0], [0, 1.0]]
    prob = parse_problem(json.dumps(doc))
    assert prob.form[0, 0] == Fraction(-1)


def test_parse_rejects_nonintegral_float_in_exact_mode():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [[-1.5, 0], [0, 1]]
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(doc))


def test_parse_rejects_bool_entries():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [[True, 0], [0, 1]]
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(doc))


def test_parse_rejects_wrong_shape():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [["-1", "0", "0"], ["0", "1", "0"]]
    with pytest.raises(ValidationError) as exc:
        parse_problem(json.dumps(doc))
    assert "square" in str(exc.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_problem('{"kind": "abstract",\n  bad}')
    msg = str(exc.value)
    assert "line 2" in msg and "column" in msg


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        parse_problem('{"kind": "graph", "dim": 2, "form": [[1]]}')


def test_parse_rejects_unknown_keys():
    doc = json.loads(ABSTRACT_DOC)
    doc["extra"] = 1
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(doc))


# json.loads reads these literals, and 1e999 as inf, and the schema
# passes them
NON_FINITE_DOCS = [
    ("NaN", '{"kind": "abstract", "dim": 2, "backend": "float", '
            '"form": [[NaN, 0], [0, 1.0]], "constraints": [[1.0, 0.0]]}'),
    ("NaN", '{"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 16}, '
            '"p": {"constant": 0.0}, "q_a": NaN, "q_b": 1.0}'),
    ("Infinity", '{"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 16}, '
                 '"p": {"polynomial": [1.0, Infinity]}, "q_a": 1.0, "q_b": 1.0}'),
    ("1e999", '{"kind": "abstract", "dim": 2, "backend": "float", '
              '"form": [[-1e999, 0], [0, 1.0]], "constraints": [[1.0, 0.0]]}'),
]


@pytest.mark.parametrize("literal, text", NON_FINITE_DOCS,
                         ids=["abstract-form", "pde-q_a", "pde-polynomial", "overflow"])
def test_parse_refuses_non_finite_numbers(literal, text):
    with pytest.raises(ValidationError, match=f"non-finite number -?{literal}"):
        parse_problem(text)


def test_parse_keeps_exact_integers_of_any_size():
    doc = json.loads(ABSTRACT_DOC)
    doc["form"] = [[-(10 ** 400), 0], [0, 1]]
    assert parse_problem(json.dumps(doc)).form[0, 0] == -(10 ** 400)


_HUGE = 10 ** 400
_FLOAT_ABSTRACT = {"kind": "abstract", "dim": 2, "backend": "float",
                   "form": [[-1.0, 0.0], [0.0, 1.0]], "constraints": [[1.0, 0.0]]}
_FLOAT_PDE = {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 16},
              "p": {"constant": 0.0}, "q_a": 1.0, "q_b": 1.0}
# (where the integer too large for a float sits, the document)
HUGE_INTEGER_DOCS = [
    ("form[0][0]", {**_FLOAT_ABSTRACT, "form": [[_HUGE, 0.0], [0.0, 1.0]]}),
    ("form[0][0]", {**_FLOAT_ABSTRACT, "form": [[f"{_HUGE}/3", 0.0], [0.0, 1.0]]}),
    ("gram[1][1]", {**_FLOAT_ABSTRACT, "gram": [[1.0, 0.0], [0.0, _HUGE]]}),
    ("constraints[0][1]", {**_FLOAT_ABSTRACT, "constraints": [[1.0, -_HUGE]]}),
    ("tolerances.marginal_factor", {**_FLOAT_ABSTRACT, "tolerances": {"marginal_factor": _HUGE}}),
    ("q_a", {**_FLOAT_PDE, "q_a": _HUGE}),
    ("domain.b", {**_FLOAT_PDE, "domain": {"a": 0, "b": _HUGE, "n_elements": 16}}),
    ("p.constant", {**_FLOAT_PDE, "p": {"constant": -_HUGE}}),
    ("p.polynomial[1]", {**_FLOAT_PDE, "p": {"polynomial": [1.0, _HUGE]}}),
    ("p.nodal[2]", {**_FLOAT_PDE, "domain": {"a": 0.0, "b": 1.0, "n_elements": 2},
                    "p": {"nodal": [0.0, 1.0, _HUGE]}}),
]


@pytest.mark.parametrize("where, doc", HUGE_INTEGER_DOCS,
                         ids=[where for where, _ in HUGE_INTEGER_DOCS])
def test_parse_refuses_integers_too_large_for_a_float(where, doc):
    # float(10**400) overflows; the document is refused naming the value,
    # before any form or coefficient is built
    with pytest.raises(ValidationError, match=rf"^{re.escape(where)}: -?{_HUGE}(/3)? is too large"):
        parse_problem(json.dumps(doc))


def test_cli_integer_too_large_for_a_float_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "huge.json", json.dumps(HUGE_INTEGER_DOCS[0][1]))
    assert main(["analyze", path]) == 2
    assert "form[0][0]: 1000" in capsys.readouterr().err


def test_shipped_schemas_are_valid():
    for name in ("problem.schema.json", "report.schema.json"):
        schema = json.loads(resources.files("morsekit.schemas").joinpath(name).read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)


_PDE_BASE = json.loads(PDE_DECOMP_DOC)


@pytest.mark.parametrize("changes,message", [
    ({"kind": "pde", "domain": None, "p": None, "q_a": None, "q_b": None},
     "kind: 'abstract' was expected"),
    ({"kind": "graph"},
     "<root>: {'kind': 'graph', 'domain': {'a': 0.0, 'b': 1.0, 'n_elements': 16}, "
     "'p': {'constant': 0.0}, 'q_a': 1.0, 'q_b': 1.0} is not valid under any of the "
     "given schemas"),
    ({"domain": {"a": 0.0, "b": 1.0, "n_elements": 0}},
     "domain.n_elements: 0 is less than the minimum of 1"),
    ({"q_b": -0.5}, "kind: 'abstract' was expected"),
    ({"p": {"polynomial": [1, 2, 3, 4, 5, 6, 7, 8]}}, "kind: 'abstract' was expected"),
    ({"tolerances": {"null_band": -1e-9}},
     "tolerances.null_band: -1e-09 is less than or equal to the minimum of 0"),
    ({"checks": []}, "checks: [] should be non-empty"),
])
def test_schema_messages_are_stable(changes, message):
    # the messages jsonschema.validate gives, read from one validator
    doc = {k: v for k, v in {**_PDE_BASE, **changes}.items() if v is not None}
    with pytest.raises(ValidationError) as exc:
        parse_problem(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_pde_defaults():
    prob = parse_problem(PDE_DOC)
    assert prob.kind == "pde"
    assert prob.checks == ("weak_index",)
    bare = parse_problem(PDE_DECOMP_DOC)
    assert bare.checks == ("decomposition",)


def test_parse_pde_rejects_negative_weight():
    doc = json.loads(PDE_DECOMP_DOC)
    doc["q_a"] = -1.0
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(doc))


def test_parse_tolerance_overrides():
    doc = json.loads(ABSTRACT_DOC)
    doc["tolerances"] = {"null_band": 1e-6}
    prob = parse_problem(json.dumps(doc))
    assert prob.tol.null_band == 1e-6
    assert prob.tol.residual == 1e-8


# ---------------------------------------------------------------------------
# run dispatch and reports

def test_run_abstract_report():
    report = run(parse_problem(ABSTRACT_DOC))
    assert report.kind == "abstract"
    assert report.verdict == "pass"
    payload = report.payloads["constrained"]
    assert payload.mi_full == 1
    assert payload.mi_constrained_predicted == 0
    assert payload.agreement
    validate_report(report)


def test_run_pde_weak_index():
    report = run(parse_problem(PDE_DOC))
    assert report.verdict == "pass"
    weak = report.payloads["weak"]
    assert weak.mi_full == 1
    assert weak.mi_constrained_oracle == 0
    validate_report(report)


def test_run_pde_explicit_constraints_are_joint():
    # two explicit functionals cut the space to their joint kernel: one
    # constrained report, checked against the restriction oracle
    doc = json.loads(PDE_DOC)
    n = doc["domain"]["n_elements"]
    doc["constraints"] = [[1.0] + [0.0] * n, [0.0] * n + [1.0]]
    report = run(parse_problem(json.dumps(doc)))
    validate_report(report)
    weak = report.payloads["weak"]
    assert len(weak.s_critical) == 2
    assert weak.mi_constrained_predicted == weak.mi_constrained_oracle
    assert weak.agreement and report.verdict == "pass"


def test_run_pde_empty_constraint_list():
    doc = json.loads(PDE_DOC)
    doc["constraints"] = []
    report = run(parse_problem(json.dumps(doc)))
    validate_report(report)
    weak = report.payloads["weak"]
    assert weak.s_critical == ()
    assert weak.mi_constrained_oracle == weak.mi_full == 1
    assert report.verdict == "pass"


def test_run_pde_computes_dirichlet_spectrum_once(count_calls, factorization_sizes):
    # the clamped pencil is factored once, and its counts and near-zero
    # eigenvalues read that factorization; the dense reference never runs
    calls = count_calls(boundary, "dirichlet_spectrum")
    doc = json.loads(PDE_DECOMP_DOC)
    doc["checks"] = ["decomposition", "weak_index"]
    report = run(parse_problem(json.dumps(doc)))
    assert report.verdict == "pass"
    n = doc["domain"]["n_elements"]
    assert calls == []
    assert sorted(factorization_sizes) == [n - 1, n + 1]


def test_run_pde_solves_two_pencils_and_restricts_nothing(count_calls, monkeypatch):
    # the Robin and the Dirichlet pencil are factored by Sturm counts; the
    # weak index reads the Robin factorization for its banded dual and
    # counts its oracle on the bordered pencil, so no dense eigensolve
    # runs and no form is restricted
    eigh = count_calls(bilinear, "_eigh")
    restrict = count_calls(bilinear, "restrict")
    solve_dual = constraints.solve_dual
    outcomes = []
    monkeypatch.setattr(constraints, "solve_dual",
                        lambda *args: outcomes.append(solve_dual(*args)) or outcomes[-1])
    doc = {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 64},
           "p": {"polynomial": [60.0, -20.0, 35.0]}, "q_a": 0.4, "q_b": 1.3,
           "checks": ["decomposition", "weak_index"]}
    report = run(parse_problem(json.dumps(doc)))
    assert report.verdict == "pass"
    assert eigh == []
    assert restrict == []
    prob = boundary.assemble(boundary.IntervalDomain(0.0, 1.0, 64), boundary.CoefficientSpec(
        boundary.Polynomial((60.0, -20.0, 35.0)), 0.4, 1.3))
    dense = bilinear.SymmetricForm(bilinear.InnerProductSpace(prob.Mmass), prob.Qmat)
    expected = solve_dual(dense, boundary.volume_functional(prob))
    assert [o.status for o in outcomes] == ["in_range"]
    assert np.linalg.norm(outcomes[0].u - expected.u) <= 1e-8 * np.linalg.norm(expected.u)


def test_run_pde_decomposition():
    report = run(parse_problem(PDE_DECOMP_DOC))
    assert report.verdict == "pass"
    spectrum = report.payloads["spectrum"]
    assert spectrum.decomposition_ok
    assert spectrum.mi_q == spectrum.a + spectrum.b
    validate_report(report)


def test_run_error_becomes_fail_verdict():
    doc = json.loads(PDE_DOC)
    doc.pop("constraints")
    doc["checks"] = ["decomposition"]  # q = 0 makes this impossible
    report = run(parse_problem(json.dumps(doc)))
    assert report.verdict == "fail"
    assert report.error is not None
    assert not report.passed
    validate_report(report)


def test_run_keeps_traceback_of_unexpected_errors(monkeypatch, capsys):
    # a MorsekitError is a bad instance: report content only
    doc = json.loads(PDE_DOC)
    doc.pop("constraints")
    doc["checks"] = ["decomposition"]
    assert run(parse_problem(json.dumps(doc))).error["type"] == "ZeroBoundaryWeight"
    assert capsys.readouterr().err == ""

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "analyze", broken)
    report = run(parse_problem(ABSTRACT_DOC))
    assert report.error == {"type": "RuntimeError", "message": "boom"}
    assert report.verdict == "fail"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


def test_report_json_round_trip():
    report = run(parse_problem(ABSTRACT_DOC))
    doc = json.loads(report_to_json(report))
    assert doc["verdict"] == "pass"
    assert doc["kind"] == "abstract"
    again = report_to_dict(report)
    assert doc == json.loads(json.dumps(again))


def test_report_text_rendering():
    report = run(parse_problem(ABSTRACT_DOC))
    text = report_to_text(report)
    assert "verdict: pass" in text
    assert "mi_full" in text
    # booleans print as the JSON literals
    assert "agreement: true" in text
    assert "[true]" in text
    assert "True" not in text


def test_report_json_has_no_nan():
    # inf from one-sided boundary weights must serialize as a string
    doc = json.loads(PDE_DECOMP_DOC)
    doc["q_a"] = 0.0
    report = run(parse_problem(json.dumps(doc)))
    dumped = report_to_json(report)
    parsed = json.loads(dumped)
    assert "inf" in json.dumps(parsed)
    validate_report(report)


# ---------------------------------------------------------------------------
# unimodular generator

def test_random_unimodular_det_and_bounds():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        B = random_unimodular(rng, n)
        assert B.dtype == np.int64
        assert np.max(np.abs(B)) <= 300
        det = round(float(np.linalg.det(B.astype(float))))
        assert det in (-1, 1)


def _random_unimodular_on_numpy(rng, n):
    """The generator as written on numpy int64 rows, before it moved to
    Python ints."""
    B = np.eye(n, dtype=np.int64)
    for _ in range(n + 4):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        c = int(rng.choice(np.array([-2, -1, 1, 2])))
        candidate = B[i, :] + c * B[j, :]
        if np.max(np.abs(candidate)) <= 300:
            B[i, :] = candidate
    return B


def test_random_unimodular_draws_as_the_numpy_version():
    # same matrices and the same generator state after each draw, so every
    # fuzz instance built after it is unchanged too
    for seed in range(300):
        n = 2 + seed % 11
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        B = random_unimodular(rng, n)
        assert B.dtype == np.int64
        assert np.array_equal(B, _random_unimodular_on_numpy(ref, n))
        assert rng.integers(2**62) == ref.integers(2**62)


# ---------------------------------------------------------------------------
# fuzz campaigns

def test_fuzz_exact_small_campaign_passes():
    report = fuzz(seed=5, trials=40, dim_max=6)
    assert report.passed
    summary = report.payloads["summary"]
    assert summary["trials"] == 40
    assert summary["agreements"] == 40
    assert summary["disagreements"] == []
    assert sum(summary["branch_counts"].values()) == 40
    validate_report(report)


def test_fuzz_replay_is_byte_identical():
    a = report_to_json(fuzz(seed=19, trials=30, dim_max=6))
    b = report_to_json(fuzz(seed=19, trials=30, dim_max=6))
    assert a == b


def test_fuzz_different_seeds_differ():
    a = report_to_json(fuzz(seed=1, trials=10, dim_max=5))
    b = report_to_json(fuzz(seed=2, trials=10, dim_max=5))
    assert a != b


def test_fuzz_branch_schedule_covers_all_cases():
    report = fuzz(seed=11, trials=20, dim_max=6)
    counts = report.payloads["summary"]["branch_counts"]
    for branch in ("negative", "zero", "positive", "out_of_range",
                   "multi:2", "multi:3"):
        assert counts.get(branch, 0) >= 1


def test_fuzz_nullity_cases_populated():
    report = fuzz(seed=13, trials=50, dim_max=6)
    cases = report.payloads["summary"]["nullity_case_counts"]
    assert cases["-1"] >= 1 and cases["0"] >= 1 and cases["+1"] >= 1


def test_fuzz_zero_trials_passes():
    report = fuzz(seed=0, trials=0)
    assert report.passed
    assert report.payloads["summary"]["trials"] == 0


def test_fuzz_k_choices_only_multi():
    report = fuzz(seed=3, trials=12, dim_max=6, k_choices=(2, 3))
    counts = report.payloads["summary"]["branch_counts"]
    assert set(counts) == {"multi:2", "multi:3"}
    assert report.passed


def test_fuzz_float_backend_passes():
    report = fuzz(seed=23, trials=40, dim_max=7, backend="float")
    summary = report.payloads["summary"]
    assert report.passed
    assert summary["marginal_disagreements"] == len(summary["disagreements"])


def test_fuzz_validations():
    with pytest.raises(ValidationError):
        fuzz(seed=-1, trials=1)
    with pytest.raises(ValidationError):
        fuzz(seed=0, trials=-1)
    with pytest.raises(ValidationError):
        fuzz(seed=0, trials=1, dim_max=1)
    with pytest.raises(ValidationError, match="capped at dim_max = 32"):
        fuzz(seed=0, trials=1, dim_max=33, backend="exact")
    with pytest.raises(ValidationError):
        fuzz(seed=0, trials=1, backend="sympy")
    with pytest.raises(ValidationError):
        fuzz(seed=0, trials=1, dim_max=6, k_choices=(1,))
    with pytest.raises(ValidationError):
        fuzz(seed=0, trials=1, dim_max=6, k_choices=(9,))


def test_fuzz_exact_campaign_at_the_dimension_cap():
    report = fuzz(seed=3, trials=30, dim_max=32)
    summary = report.payloads["summary"]
    assert report.passed
    assert summary["agreements"] == 30 and summary["disagreements"] == []
    # |B| <= 300 and |L| <= 5 keep A = B^T L B below 32 * 5 * 300^2, exact
    # in int64 and float64
    rng = np.random.default_rng(3)
    for _ in range(20):
        B = random_unimodular(rng, 32)
        assert np.abs(B.T @ (5 * B)).max() <= 32 * 5 * 300 ** 2 < 2 ** 53


_PINNED_CAMPAIGNS = [
    # (backend, sha256 of the report, campaign arguments besides trials=200)
    ("exact", "dce65eb0d1f5f63880b7bf8bc43d277ddaf61d9a54c41ad4167043b621b7aebc",
     {"seed": 42}),
    ("float", "2800769c64c6c05cc8f2cdbf18efcf32086f3186a72ee6794a518a44f9626581",
     {"seed": 42}),
    ("exact", "b846039df940be016d804a44064ca5f1a6a717e4beba238204291bd71da3abfc",
     {"seed": 7, "k_choices": (2, 3)}),
    ("float", "409b37156b98eb923ae8be9c8239ad12857424e0eae32387f21b77cb53a6bbd1",
     {"seed": 7, "k_choices": (2, 3)}),
]


@pytest.mark.parametrize("backend,digest,campaign", [
    pytest.param(backend, digest, campaign, id=f"{backend}-{digest}")
    for backend, digest, campaign in _PINNED_CAMPAIGNS])
def test_fuzz_report_bytes_are_pinned(backend, digest, campaign):
    text = report_to_json(fuzz(trials=200, backend=backend, **campaign))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _pde_doc(n: int, p: list, **extra) -> dict:
    return {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": n},
            "p": {"polynomial": p}, "q_a": 0.7, "q_b": 1.3, **extra}


def _pinned_documents() -> list:
    ladder = ["decomposition", "weak_index"]
    ones = [1.0] * 65
    waves = [round(math.cos(3.0 * i / 64), 6) for i in range(65)]
    # B^T diag(3, 0, -2, 0) B, cut by a functional in range, one that pairs
    # with the kernel and their sum
    B = np.array([[1, 2, 0, 1], [0, 1, -1, 0], [0, 0, 1, 3], [0, 0, 0, 1]])
    f1, f2 = B.T @ [1, 0, 1, 0], B.T @ [0, 1, 0, 0]
    singular = {"kind": "abstract", "dim": 4, "backend": "float",
                "form": (B.T @ np.diag([3, 0, -2, 0]) @ B).astype(float).tolist(),
                "constraints": [f.astype(float).tolist() for f in (f1, f2, f1 + f2)]}
    # non-identity grams, so the oracle counts the pencil (B^T A B, B^T G B):
    # C^T C with the form D^T diag(2, -1, 0, 3) D, cut by two functionals
    # that vanish on its kernel vector (2, -2, -1, 0), and a rational pencil
    C = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
    D = np.array([[1, 0, 2, 0], [1, 1, 0, 0], [0, -1, 1, 1], [0, 0, 0, 1]])
    float_gram = {"kind": "abstract", "dim": 4, "backend": "float",
                  "form": (D.T @ np.diag([2, -1, 0, 3]) @ D).astype(float).tolist(),
                  "gram": (C.T @ C).astype(float).tolist(),
                  "constraints": [[1.0, 0.0, 2.0, 0.0], [0.5, 0.5, 0.0, 2.0]]}
    exact_gram = {"kind": "abstract", "dim": 3, "backend": "exact",
                  "form": [[1, 2, 0], [2, -1, "1/2"], [0, "1/2", 0]],
                  "gram": [[2, "1/2", 0], ["1/2", 1, "1/3"], [0, "1/3", 1]],
                  "constraints": [[1, 0, 1], [0, 1, "1/2"]]}
    return [
        # (name, document, sha256 of its report_to_json with timing_s null)
        ("ladder-128", _pde_doc(128, [87.125, -41.5, 23.0, 12.75], checks=ladder),
         "0e0f65d08a3cd0e8e7b3f4ff01c8443ded78cd88801d306579b180266e659eba"),
        ("ladder-1024", _pde_doc(1024, [140.5, 30.25, -55.0], checks=ladder),
         "56a657afb7dddef003e93366f91c8da68bf7028d333c5cb04c1f3c8d8dc6d09f"),
        ("pde-3c-dependent", _pde_doc(64, [96.5, -12.0], constraints=[
            ones, waves, [a - 2.0 * b for a, b in zip(ones, waves)]]),
         "47ccf6f724be9eb8c64a8ae17b9425cc07f7f68fd5d26b56a2a3f41ba5748c15"),
        ("abstract-singular", singular,
         "a80687571266d2ab9af472259a9214d816f22bee42b99ef79f15660f4a40c036"),
        ("abstract-float-gram", float_gram,
         "73f9d55e93d6f37f3548a52eb8bd321842e3fc91648ba038dfbacbb6d818d533"),
        ("abstract-exact-gram", exact_gram,
         "569e553dfe457695eccc4ed00d9fe9114cbe8deb0400229d51a61d31cd535c20"),
    ]


@pytest.mark.parametrize("doc,digest", [
    pytest.param(doc, digest, id=name) for name, doc, digest in _pinned_documents()])
def test_report_bytes_are_pinned(doc, digest):
    report = run(parse_problem(json.dumps(doc)))
    text = report_to_json(dataclasses.replace(report, timing_s=None))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fuzz_records_impossible_counts_and_goes_on(monkeypatch):
    real = harness.analyze
    seen = []

    def analyze_failing_once(form, constraints, tol=None):
        seen.append(form)
        if len(seen) == 3:
            raise ImpossibleCounts("predicted index -1 and nullity 2 are impossible")
        return real(form, constraints, tol)

    monkeypatch.setattr(harness, "analyze", analyze_failing_once)
    report = fuzz(seed=42, trials=10)
    summary = report.payloads["summary"]
    assert len(seen) == 10
    assert report.verdict == "fail"
    assert summary["agreements"] == 9
    [dump] = summary["disagreements"]
    assert dump["trial"] == 2
    assert dump["error"] == {"type": "ImpossibleCounts",
                             "message": "predicted index -1 and nullity 2 are impossible"}
    jsonschema.validate(json.loads(report_to_json(report)), _REPORT_SCHEMA)


def test_fuzz_timing_absent_for_reproducibility():
    report = fuzz(seed=29, trials=5)
    assert report.timing_s is None


# ---------------------------------------------------------------------------
# the benchmark's routing gate

def _benchmark_tracer():
    """perfbench/tracer.py, a stdlib-only module, loaded from its file
    without importing the benchmark package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_exist():
    for mod, names in _benchmark_tracer().TARGETS.items():
        module = importlib.import_module(f"morsekit.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"morsekit.{mod}.{name}"


def test_traced_pde_op_counts_one_steklov_spectrum_per_verify():
    # the benchmark's own tracer, installed as a traced run installs it
    tracer = _benchmark_tracer().Tracer()
    tracer.install()
    try:
        assert all(tracer.sites.values()), tracer.sites
        assert run(parse_problem(PDE_DECOMP_DOC)).error is None
    finally:
        tracer.uninstall()
    calls = {layer: row[0] for layer, row in tracer.aggregate().items()}
    assert calls["boundary.verify_decomposition"] == 1
    assert calls["boundary.steklov_spectrum"] == 1
    assert calls["bilinear._eigh"] == 0


def test_traced_fuzz_predicts_each_multi_set_through_predict_multi():
    # ten trials are one pass of the branch schedule, multi:2 and multi:3
    # among them
    tracer = _benchmark_tracer().Tracer()
    tracer.install()
    try:
        assert fuzz(seed=42, trials=10).passed
    finally:
        tracer.uninstall()
    calls = {layer: row[0] for layer, row in tracer.aggregate().items()}
    assert calls["constraints.analyze"] == 10
    assert calls["constraints.predict_multi"] == 2


def test_exact_fuzz_runs_every_exactla_target_and_no_eigensolve(count_calls):
    # the benchmark refuses a fuzz-exact run in which any exactla target
    # never ran or _eigh ran
    calls = {name: count_calls(exactla, name) for name in _benchmark_tracer().TARGETS["exactla"]}
    eigh = count_calls(bilinear, "_eigh")
    assert fuzz(seed=42, trials=10).passed
    assert [name for name, seen in calls.items() if not seen] == []
    assert eigh == []


def test_float_fuzz_runs_no_exactla_target(count_calls):
    calls = {name: count_calls(exactla, name) for name in _benchmark_tracer().TARGETS["exactla"]}
    assert fuzz(seed=42, trials=10, backend="float").passed
    assert [name for name, seen in calls.items() if seen] == []


# ---------------------------------------------------------------------------
# command line

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_analyze_json(tmp_path, capsys):
    path = _write(tmp_path, "prob.json", ABSTRACT_DOC)
    code = main(["analyze", path])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "pass"


def test_cli_analyze_text_format(tmp_path, capsys):
    path = _write(tmp_path, "prob.json", ABSTRACT_DOC)
    code = main(["analyze", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out


def test_cli_pde(tmp_path, capsys):
    path = _write(tmp_path, "pde.json", PDE_DOC)
    code = main(["pde", path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["kind"] == "pde"


def test_cli_kind_mismatch_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "prob.json", ABSTRACT_DOC)
    code = main(["pde", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "kind" in err


def test_cli_missing_file(capsys):
    code = main(["analyze", "/nonexistent/prob.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_malformed_json(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "{not json")
    code = main(["analyze", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_cli_non_finite_number_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "nan.json", NON_FINITE_DOCS[0][1])
    code = main(["analyze", path])
    assert code == 2
    assert "non-finite number NaN" in capsys.readouterr().err


def test_cli_fail_verdict_exit_one(tmp_path, capsys):
    doc = json.loads(PDE_DOC)
    doc.pop("constraints")
    doc["checks"] = ["decomposition"]
    path = _write(tmp_path, "zero_q.json", json.dumps(doc))
    code = main(["pde", path])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_cli_fuzz(capsys):
    code = main(["fuzz", "--seed", "4", "--trials", "10", "--dim-max", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["payloads"]["summary"]["trials"] == 10


def test_cli_fuzz_k_flag(capsys):
    code = main(["fuzz", "--seed", "4", "--trials", "6", "--dim-max", "6",
                 "--k", "2,3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(doc["payloads"]["summary"]["branch_counts"]) == {"multi:2",
                                                                "multi:3"}


def test_cli_fuzz_bad_k(capsys):
    code = main(["fuzz", "--seed", "4", "--trials", "2", "--k", "two"])
    assert code == 2
    assert "--k" in capsys.readouterr().err


def test_cli_tolerance_override(tmp_path, capsys):
    # widening the zero band reclassifies a small negative eigenvalue
    doc = json.loads(ABSTRACT_DOC)
    doc["backend"] = "float"
    doc["form"] = [[-1e-6, 0.0], [0.0, 1.0]]
    doc["constraints"] = []
    path = _write(tmp_path, "tol.json", json.dumps(doc))
    code = main(["analyze", path])
    narrow = json.loads(capsys.readouterr().out)
    assert code == 0
    assert narrow["payloads"]["constrained"]["mi_full"] == 1
    code = main(["analyze", path, "--tol-null", "1e-3"])
    wide = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert wide["payloads"]["constrained"]["mi_full"] == 0


@pytest.mark.parametrize("command", ["analyze", "pde", "fuzz"])
def test_cli_rejects_a_tolerance_flag_the_schema_refuses(tmp_path, capsys, command):
    # diag(1, 0, -1) cut by (1, 1, 0) has index 1; a band of width -1 once
    # counted 2 and still passed, and a nan band refused the identity gram
    doc = {"kind": "abstract", "dim": 3, "backend": "float",
           "form": [[1, 0, 0], [0, 0, 0], [0, 0, -1]], "constraints": [[1, 1, 0]]}
    files = {"analyze": json.dumps(doc), "pde": PDE_DOC}
    argv = [command]
    if command == "fuzz":
        argv += ["--seed", "3", "--trials", "2", "--backend", "float"]
    else:
        argv.append(_write(tmp_path, "prob.json", files[command]))
    for flag in ("--tol-null", "--tol-residual"):
        for value in ("-1", "0", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, value])
            out = capsys.readouterr()
            assert exc.value.code == 2
            assert out.out == "" and flag in out.err
    assert main(argv + ["--tol-null", "1e-9", "--tol-residual", "1e-8"]) == 0
    if command == "analyze":
        report = json.loads(capsys.readouterr().out)["payloads"]["constrained"]
        assert report["mi_full"] == 1
