"""Problem-file ingestion, report emission, and seeded fuzz campaigns.

Problem files are JSON documents validated against the shipped schema:
``_conforms`` decides validity by walking ``problem.schema.json`` itself,
and jsonschema is imported only when a document is refused, to word the
refusal.
Reports are dictionaries with a stable field order so that identical
inputs produce byte-identical JSON; the text rendering is derived from
the same dictionary.  Fuzz campaigns generate instances whose theorem
branch is known by construction: forms A = B^T L B with unimodular
integer B and integer diagonal L have known inertia, and constraints
built in L-coordinates land in a prescribed branch of the predictors.
"""
from __future__ import annotations

import functools
import json
import re
import time
import traceback
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from importlib import resources
from math import isfinite, isinf, isnan
from typing import NoReturn

import numpy as np

from .bilinear import SymmetricForm
from .boundary import (
    AssembledProblem,
    CoefficientSpec,
    Constant,
    IntervalDomain,
    NodalSamples,
    Polynomial,
    assemble,
    verify_decomposition,
    weak_index,
)
from .constraints import BRANCH_EFFECT, analyze
from .errors import ImpossibleCounts, MorsekitError, ParseError, ValidationError
from .tolerances import DEFAULT, Tolerances


@functools.cache
def _problem_schema() -> dict:
    """The shipped problem schema: the one statement of the document rules."""
    with resources.files("morsekit.schemas").joinpath("problem.schema.json").open("r") as fh:
        return json.load(fh)


@functools.cache
def _problem_validator():
    """jsonschema's validator of the problem schema, built once per process
    and only when a document is refused: it words the refusal.  The shipped
    schema is not checked against its metaschema here; the test suite makes
    that check once (``test_shipped_schemas_are_valid``)."""
    import jsonschema

    schema = _problem_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _json_equal(a, b) -> bool:
    """Equality of JSON values, under which no bool equals a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _local_ref(ref: str, root: dict):
    if not ref.startswith("#/$defs/"):
        raise ValueError(f"schema $ref {ref!r} is not a local #/$defs/ reference")
    return root["$defs"][ref[len("#/$defs/"):]]


# keyword -> check(doc, value, schema, root).  As in Draft 2020-12, each
# keyword but type, enum, const, oneOf and $ref constrains only values of its
# own JSON type; the bounds are negated comparisons, as jsonschema's are
_KEYWORDS = {
    "type": lambda d, t, s, r: _TYPES[t](d),
    "enum": lambda d, values, s, r: any(_json_equal(d, v) for v in values),
    "const": lambda d, value, s, r: _json_equal(d, value),
    "required": lambda d, names, s, r: not isinstance(d, dict) or all(n in d for n in names),
    "properties": lambda d, props, s, r: not isinstance(d, dict) or all(
        _conforms(d[k], sub, r) for k, sub in props.items() if k in d),
    "additionalProperties": lambda d, sub, s, r: not isinstance(d, dict) or all(
        _conforms(d[k], sub, r) for k in d if k not in s.get("properties", ())),
    "items": lambda d, sub, s, r: not isinstance(d, list) or all(_conforms(x, sub, r) for x in d),
    "minItems": lambda d, n, s, r: not isinstance(d, list) or not len(d) < n,
    "maxItems": lambda d, n, s, r: not isinstance(d, list) or not len(d) > n,
    "minimum": lambda d, m, s, r: not _is_number(d) or not d < m,
    "exclusiveMinimum": lambda d, m, s, r: not _is_number(d) or not d <= m,
    "pattern": lambda d, p, s, r: not isinstance(d, str) or re.search(p, d) is not None,
    "oneOf": lambda d, subs, s, r: sum(_conforms(d, sub, r) for sub in subs) == 1,
    "$ref": lambda d, ref, s, r: _conforms(d, _local_ref(ref, r), r),
}
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})


def _conforms(doc, schema, root: dict | None = None) -> bool:
    """Whether a JSON value is valid under a schema, by Draft 2020-12, for
    the keywords the problem schema uses.  Any other keyword raises
    ValueError when it is reached: a schema edit cannot be skipped
    silently.  ``root`` holds the ``$defs`` of ``$ref`` (default: schema)."""
    if isinstance(schema, bool):
        return schema
    root = schema if root is None else root
    for key, value in schema.items():
        if key in _ANNOTATIONS:
            continue
        check = _KEYWORDS.get(key)
        if check is None:
            raise ValueError(f"schema keyword {key!r} is not implemented")
        if not check(doc, value, schema, root):
            return False
    return True


def _refuse(doc) -> NoReturn:
    """Raise the ValidationError of a document ``_conforms`` refused,
    worded by jsonschema's best match.  Should jsonschema find no error,
    the document is refused all the same."""
    from jsonschema.exceptions import best_match

    error = best_match(_problem_validator().iter_errors(doc))
    if error is None:
        raise ValidationError("<root>: document does not conform to the problem schema")
    path = ".".join(str(p) for p in error.absolute_path) or "<root>"
    raise ValidationError(f"{path}: {error.message}") from error


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """A parsed, validated, backend-normalized problem document."""

    kind: str
    echo: dict
    tol: Tolerances
    backend: str = "float"
    form: np.ndarray | None = None
    gram: np.ndarray | None = None
    constraints: object = None
    domain: IntervalDomain | None = None
    coeffs: CoefficientSpec | None = None
    checks: tuple = ()


@dataclass(frozen=True, eq=False)
class RunReport:
    kind: str
    input: dict
    payloads: dict
    warnings: tuple
    timing_s: float | None
    seed: int | None
    verdict: str
    error: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _entry_to_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not matrix entries")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != int(value):
            raise ValidationError(
                f"{where}: exact backend needs integers or 'n/d' strings, "
                f"got non-integral float {value!r}")
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: bad rational literal {value!r}") from exc
    raise ValidationError(f"{where}: unsupported entry {value!r}")


def _to_float(value, where: str) -> float:
    """A document number (or Fraction) as a float; JSON integers have no
    bound, and one beyond the float range is refused."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{where}: {value} is too large for a float") from exc


def _entry_to_float(value, where: str) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not matrix entries")
    if isinstance(value, (int, float)):
        return _to_float(value, where)
    if isinstance(value, str):
        try:
            rational = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: bad rational literal {value!r}") from exc
        return _to_float(rational, where)
    raise ValidationError(f"{where}: unsupported entry {value!r}")


def _convert_matrix(rows, exact: bool, where: str) -> np.ndarray:
    conv = _entry_to_fraction if exact else _entry_to_float
    data = [[conv(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ValidationError(f"{where}: ragged rows")
    if exact:
        out = np.empty((len(data), len(data[0])), dtype=object)
        for i, row in enumerate(data):
            out[i, :] = row
        return out
    return np.array(data, dtype=float)


def _convert_vector(entries, exact: bool, where: str) -> np.ndarray:
    conv = _entry_to_fraction if exact else _entry_to_float
    data = [conv(v, f"{where}[{j}]") for j, v in enumerate(entries)]
    if exact:
        out = np.empty(len(data), dtype=object)
        out[:] = data
        return out
    return np.array(data, dtype=float)


def _finite_number(literal: str) -> float:
    """A JSON number literal, or NaN / Infinity / -Infinity, as a float;
    a value that is not finite (1e999 overflows to inf) is refused."""
    value = float(literal)
    if not isfinite(value):
        raise ValidationError(f"non-finite number {literal} in problem document")
    return value


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a JSON problem document.

    Syntax failures raise ParseError with line/column context; structural
    failures raise ValidationError naming the violated invariant, and
    numbers that are not finite raise it naming the value.
    """
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not _conforms(doc, _problem_schema()):
        _refuse(doc)
    tol = DEFAULT.with_overrides(**{name: _to_float(value, f"tolerances.{name}")
                                    for name, value in doc.get("tolerances", {}).items()})
    if doc["kind"] == "abstract":
        return _parse_abstract(doc, tol)
    return _parse_pde(doc, tol)


def _parse_abstract(doc: dict, tol: Tolerances) -> ProblemFile:
    backend = doc.get("backend", "float")
    exact = backend == "exact"
    dim = doc["dim"]
    form = _convert_matrix(doc["form"], exact, "form")
    if form.shape != (dim, dim):
        raise ValidationError("form must be square of size dim")
    gram = None
    if "gram" in doc:
        gram = _convert_matrix(doc["gram"], exact, "gram")
        if gram.shape != (dim, dim):
            raise ValidationError("gram must be square of size dim")
    constraints = [_convert_vector(c, exact, f"constraints[{i}]")
                   for i, c in enumerate(doc.get("constraints", []))]
    for i, c in enumerate(constraints):
        if c.shape != (dim,):
            raise ValidationError(f"constraints[{i}] must have length dim")
    return ProblemFile(kind="abstract", echo=doc, tol=tol, backend=backend,
                       form=form, gram=gram, constraints=constraints)


def _parse_pde(doc: dict, tol: Tolerances) -> ProblemFile:
    d = doc["domain"]
    a, b = _to_float(d["a"], "domain.a"), _to_float(d["b"], "domain.b")
    if not a < b:
        raise ValidationError("domain must have a < b")
    # the schema calls an integral float such as 4.0 an integer
    domain = IntervalDomain(a, b, int(d["n_elements"]))
    pspec = doc["p"]
    if "constant" in pspec:
        p = Constant(_to_float(pspec["constant"], "p.constant"))
    elif "polynomial" in pspec:
        p = Polynomial(tuple(_convert_vector(pspec["polynomial"], False, "p.polynomial").tolist()))
    else:
        nodal = tuple(_convert_vector(pspec["nodal"], False, "p.nodal").tolist())
        if len(nodal) != domain.n_elements + 1:
            raise ValidationError("nodal p must have n_elements + 1 samples")
        p = NodalSamples(nodal)
    coeffs = CoefficientSpec(p, _to_float(doc["q_a"], "q_a"), _to_float(doc["q_b"], "q_b"))
    constraints = doc.get("constraints")
    if isinstance(constraints, list):
        vecs = [_convert_vector(c, False, f"constraints[{i}]")
                for i, c in enumerate(constraints)]
        for i, c in enumerate(vecs):
            if c.shape != (domain.n_elements + 1,):
                raise ValidationError(f"constraints[{i}] must have one entry per node")
        constraints = vecs
    checks = doc.get("checks")
    if checks is None:
        checks = ("weak_index",) if constraints is not None else ("decomposition",)
    return ProblemFile(kind="pde", echo=doc, tol=tol, domain=domain,
                       coeffs=coeffs, constraints=constraints,
                       checks=tuple(checks))


# ---------------------------------------------------------------------------
# report rendering

def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if isnan(value):
            return "nan"
        if isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()] \
            if value.dtype != object else [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if is_dataclass(value):
        # report payloads serialize as their fields, in declaration order
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return str(value)


def report_to_dict(report: RunReport) -> dict:
    return {
        "kind": report.kind,
        "input": _jsonable(report.input),
        "payloads": _jsonable(report.payloads),
        "warnings": list(report.warnings),
        "timing_s": report.timing_s,
        "seed": report.seed,
        "verdict": report.verdict,
        "error": _jsonable(report.error),
    }


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False)


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(pad + "[" + ", ".join(_scalar_text(v) for v in value) + "]")
        elif all(isinstance(v, list)
                 and all(not isinstance(x, (dict, list)) for x in v)
                 for v in value):
            for v in value:
                lines.append(pad + "[" + ", ".join(_scalar_text(x) for x in v) + "]")
        else:
            for i, v in enumerate(value):
                lines.append(f"{pad}- [{i}]")
                lines.extend(_render_text(v, indent + 1))
    else:
        lines.append(pad + _scalar_text(value))
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return "null"
    if isinstance(v, (dict, list)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def report_to_text(report: RunReport) -> str:
    return "\n".join(_render_text(report_to_dict(report)))


# ---------------------------------------------------------------------------
# running problems

def run(problem: ProblemFile) -> RunReport:
    """Execute a parsed problem and fold the outcome into a report.

    Errors raised by the underlying modules become report content with a
    fail verdict; the process is never taken down by a bad instance.  Any
    other exception is a defect, so its traceback also goes to stderr.
    """
    start = time.perf_counter()
    payloads: dict = {}
    warnings: list[str] = []
    error = None
    verdict = "pass"
    try:
        if problem.kind == "abstract":
            form = SymmetricForm.from_matrix(problem.form, gram=problem.gram,
                                             tol=problem.tol)
            rep = analyze(form, problem.constraints, problem.tol)
            payloads["constrained"] = rep
            warnings.extend(rep.warnings)
            if not rep.agreement:
                verdict = "fail"
        else:
            prob = assemble(problem.domain, problem.coeffs)
            if "decomposition" in problem.checks:
                spec_rep = verify_decomposition(prob, problem.tol)
                payloads["spectrum"] = spec_rep
                if spec_rep.degenerate:
                    warnings.append("decomposition spectra have marginal eigenvalues")
                if not spec_rep.decomposition_ok:
                    verdict = "fail"
            if "weak_index" in problem.checks:
                constraints = problem.constraints
                if not isinstance(constraints, list):
                    constraints = "volume"
                rep = weak_index(prob, constraints, problem.tol)
                payloads["weak"] = rep
                warnings.extend(rep.warnings)
                if not rep.agreement:
                    verdict = "fail"
    except Exception as exc:  # never panic on a bad instance
        if not isinstance(exc, MorsekitError):
            traceback.print_exc()
        error = {"type": type(exc).__name__, "message": str(exc)}
        verdict = "fail"
    timing = time.perf_counter() - start
    return RunReport(kind=problem.kind, input=problem.echo, payloads=payloads,
                     warnings=tuple(warnings), timing_s=timing, seed=None,
                     verdict=verdict, error=error)


# ---------------------------------------------------------------------------
# fuzz campaign

_DEFAULT_CYCLE = ("negative", "zero", "positive", "out_of_range", "multi:2",
                  "negative", "zero", "positive", "out_of_range", "multi:3")


def random_unimodular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer matrix with determinant +-1 built from elementary row
    operations; entries are capped at 300 so products A = B^T L B with
    |L| <= 5 stay below n * 5 * 300^2, 1.44e7 at n = 32, and so exactly
    representable in both int64 and float64."""
    # rows are Python int lists: at dim <= 12, numpy scalar arithmetic
    # costs more than the work
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    # one bulk draw takes the same stream as the (i, j, c) scalar draws of
    # each step in turn; c indexes the multipliers as rng.choice would
    for i, j, c in rng.integers((n, n - 1, 4), size=(n + 4, 3)).tolist():
        if j >= i:
            j += 1
        c = (-2, -1, 1, 2)[c]
        candidate = [x + c * y for x, y in zip(B[i], B[j])]
        if max(map(abs, candidate)) <= 300:
            B[i] = candidate
    return np.array(B, dtype=np.int64)


def _make_single_instance(rng: np.random.Generator, dim_max: int, branch: str):
    """A form with known inertia plus a functional landing in the branch.

    In L-coordinates (A = B^T L B) a functional f = B^T L y has the dual
    u = B^{-1} y with phi(u) = y^T L y, so the sign pattern of L and the
    support of y pin the predictor branch exactly.
    """
    n = int(rng.integers(2, dim_max + 1))
    lam = rng.integers(-5, 6, size=n).astype(np.int64)
    B = random_unimodular(rng, n)
    y = np.zeros(n, dtype=np.int64)
    if branch == "negative":
        i = int(rng.integers(n))
        lam[i] = -int(rng.integers(1, 6))
        y[i] = 1
    elif branch == "positive":
        i = int(rng.integers(n))
        lam[i] = int(rng.integers(1, 6))
        y[i] = 1
    elif branch == "zero":
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        t = int(rng.integers(1, 6))
        lam[i], lam[j] = t, -t
        y[i] = 1
        y[j] = 1
    elif branch == "out_of_range":
        i = int(rng.integers(n))
        lam[i] = 0
        carrier = np.zeros(n, dtype=np.int64)
        carrier[i] = 1
        if rng.integers(2):
            w = rng.integers(-3, 4, size=n)
            carrier = carrier + np.where(lam != 0, w, 0)
        A = B.T @ (lam[:, None] * B)
        f = B.T @ carrier
        return A, [f]
    else:
        raise ValueError(branch)
    A = B.T @ (lam[:, None] * B)
    f = B.T @ (lam * y)
    return A, [f]


def _make_multi_instance(rng: np.random.Generator, dim_max: int, k: int):
    """k independent in-range functionals over a known-inertia form."""
    n = int(rng.integers(max(2, k + 1), dim_max + 1))
    lam = rng.integers(-5, 6, size=n).astype(np.int64)
    slots = rng.permutation(n)[:k]
    for s in slots:
        sign = -1 if rng.integers(2) else 1
        lam[s] = sign * int(rng.integers(1, 6))
    B = random_unimodular(rng, n)
    support = np.flatnonzero(lam)
    chosen = np.sort(rng.permutation(support)[:k])
    fs = []
    for pos, s in enumerate(chosen):
        y = np.zeros(n, dtype=np.int64)
        y[s] = 1
        for later in chosen[pos + 1:]:
            y[later] = int(rng.integers(-2, 3))
        fs.append(B.T @ (lam * y))
    A = B.T @ (lam[:, None] * B)
    return A, fs


# a single-constraint prediction's (drop, change) names its branch
_BRANCH_OF_EFFECT = {effect: branch for branch, effect in BRANCH_EFFECT.items()}


def _draw_trial(seed: int, t: int, dim_max: int, k_choices: tuple | None):
    """(branch, form, constraints) of trial t of a ``fuzz`` campaign, from
    its own generator stream (seed, t)."""
    rng = np.random.default_rng([seed, t])
    if k_choices is not None:
        branch = f"multi:{k_choices[t % len(k_choices)]}"
    else:
        branch = _DEFAULT_CYCLE[t % len(_DEFAULT_CYCLE)]
    if branch.startswith("multi:"):
        k = min(int(branch.split(":")[1]), dim_max - 1)
        branch = f"multi:{k}"
        A, fs = _make_multi_instance(rng, dim_max, k)
    else:
        A, fs = _make_single_instance(rng, dim_max, branch)
    return branch, A, fs


def _instance_dump(trial: int, branch: str, A: np.ndarray, fs: list) -> dict:
    return {
        "trial": trial,
        "branch": branch,
        "form": [[int(v) for v in row] for row in A],
        "constraints": [[int(v) for v in f] for f in fs],
    }


def fuzz(seed: int, trials: int, dim_max: int = 8, backend: str = "exact",
         k_choices=None, tol: Tolerances = DEFAULT) -> RunReport:
    """Seeded campaign checking predictions against the oracle per trial.

    Each trial draws its own generator stream from (seed, index), so
    campaigns are reproducible and the schedule of theorem branches is
    fixed by construction: cycling negative / zero / positive /
    out-of-range functionals plus multi-constraint sets of size 2 and 3.
    Passing k_choices restricts trials to multi-constraint instances with
    the given sizes.  In exact mode any disagreement fails the campaign;
    in floating mode only disagreements free of marginal warnings do.  A
    trial whose analysis raises ImpossibleCounts is recorded among the
    disagreements with its ``error`` and fails the campaign; the
    remaining trials still run.
    """
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    if dim_max < 2:
        raise ValidationError("dim_max must be at least 2")
    if backend == "exact" and dim_max > 32:
        raise ValidationError("exact backend is capped at dim_max = 32")
    if backend not in ("exact", "float"):
        raise ValidationError(f"unknown backend {backend!r}")
    if k_choices is not None:
        k_choices = tuple(int(k) for k in k_choices)
        if any(k < 2 or k > dim_max - 1 for k in k_choices):
            raise ValidationError("k_choices must fit in 2..dim_max-1")
    exact = backend == "exact"

    branch_counts: dict[str, int] = {}
    nullity_cases = {"-1": 0, "0": 0, "+1": 0}
    agreements = 0
    disagreements: list[dict] = []
    marginal_disagreements = 0
    bound_violations: list[dict] = []
    generator_mismatches: list[dict] = []

    for t in range(trials):
        branch, A, fs = _draw_trial(seed, t, dim_max, k_choices)
        branch_counts[branch] = branch_counts.get(branch, 0) + 1

        form = SymmetricForm.from_matrix(A, exact=exact, tol=tol)
        try:
            rep = analyze(form, fs, tol)
        except ImpossibleCounts as exc:
            disagreements.append(_instance_dump(t, branch, A, fs) | {
                "error": {"type": type(exc).__name__, "message": str(exc)}})
            continue

        drop_oracle = rep.mi_full - rep.mi_constrained_oracle
        change_oracle = rep.nullity_constrained_oracle - rep.nullity_full
        k_set = len(fs)
        rep_marginal = any("marginal" in w for w in rep.warnings)
        if not (0 <= drop_oracle <= k_set) or abs(change_oracle) > k_set:
            if exact or not rep_marginal:
                bound_violations.append(
                    _instance_dump(t, branch, A, fs)
                    | {"drop": drop_oracle, "change": change_oracle})
        if k_set == 1:
            nullity_cases[f"{change_oracle:+d}" if change_oracle else "0"] += 1
            observed = _BRANCH_OF_EFFECT[(rep.mi_full - rep.mi_constrained_predicted,
                                          rep.nullity_constrained_predicted - rep.nullity_full)]
            if exact and observed != branch:
                generator_mismatches.append(
                    _instance_dump(t, branch, A, fs) | {"observed": observed})
        if rep.agreement:
            agreements += 1
        else:
            dump = _instance_dump(t, branch, A, fs) | {
                "mi_full": rep.mi_full,
                "mi_predicted": rep.mi_constrained_predicted,
                "mi_oracle": rep.mi_constrained_oracle,
                "nullity_full": rep.nullity_full,
                "nullity_predicted": rep.nullity_constrained_predicted,
                "nullity_oracle": rep.nullity_constrained_oracle,
                "warnings": list(rep.warnings),
            }
            if not exact and rep_marginal:
                marginal_disagreements += 1
                dump["marginal"] = True
            disagreements.append(dump)

    hard_failures = [d for d in disagreements if not d.get("marginal")]
    verdict = "pass"
    if hard_failures or bound_violations or generator_mismatches:
        verdict = "fail"
    summary = {
        "trials": trials,
        "branch_counts": dict(sorted(branch_counts.items())),
        "nullity_case_counts": nullity_cases,
        "agreements": agreements,
        "disagreements": disagreements,
        "marginal_disagreements": marginal_disagreements,
        "bound_violations": bound_violations,
        "generator_mismatches": generator_mismatches,
    }
    inputs = {"seed": seed, "trials": trials, "dim_max": dim_max,
              "backend": backend,
              "k_choices": list(k_choices) if k_choices else None}
    # timing is deliberately absent so replays are byte-identical
    return RunReport(kind="fuzz", input=inputs, payloads={"summary": summary},
                     warnings=(), timing_s=None, seed=seed, verdict=verdict)
