"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Each workload draws its inputs from ``random.Random`` seeded by the
workload name and ``--seed``; morsekit receives only the generated
inputs.  ``execute`` is the timed op; ``check`` runs after the timer
stops and returns None or the reason the op counts as failed.
"""
from __future__ import annotations

import collections
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
from morsekit import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_PATH = ROOT / "src" / "morsekit" / "schemas" / "report.schema.json"


@dataclass(frozen=True)
class Item:
    """One generated input: its kind, the text or seed morsekit gets, and,
    for cli-cold, the file on disk plus the in-process reference."""

    kind: str
    data: object
    doc: dict | None = None
    path: Path | None = None
    ref: dict | None = None
    ref_rc: int | None = None


def known_defect(kind: str, reason: str) -> bool:
    """A pde file with two explicit constraints makes run() emit
    payloads.weak as a list, which report.schema.json refuses.  Such ops
    count as failed; they are the only failures a correct run may have."""
    return kind == "pde-2c" and reason.startswith("schema: payloads/weak ")


def _report_validator():
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _schema_reason(validator, doc: dict) -> str | None:
    err = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if err is None:
        return None
    where = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"schema: {where} fails {err.validator!r}"


def _potential(rng: random.Random) -> list:
    """Polynomial potential of degree 0..6 with a positive mean, so the
    Morse index is a handful rather than zero."""
    coeffs = [round(rng.uniform(0.0, 150.0), 3)]
    coeffs += [round(rng.uniform(-60.0, 60.0), 3) for _ in range(rng.randint(0, 6))]
    return coeffs


def _pde_doc(rng: random.Random, n: int, **extra) -> dict:
    return {"kind": "pde",
            "domain": {"a": 0.0, "b": 1.0, "n_elements": n},
            "p": {"polynomial": _potential(rng)},
            "q_a": round(rng.uniform(0.1, 2.0), 3),
            "q_b": round(rng.uniform(0.1, 2.0), 3),
            **extra}


_GAUSS_XI = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def qmat_negative_count(doc: dict) -> int:
    """Negative inertia of Q = K - P - D for a polynomial-potential pde doc.

    Q is assembled here, apart from morsekit, with P1 elements and 2-point
    Gauss quadrature, and counted by the LDL^T (Sturm) recurrence on its
    tridiagonal.  The mass matrix is positive definite, so by Sylvester's
    law this is the Morse index the report calls mi_q.
    """
    dom = doc["domain"]
    n = dom["n_elements"]
    h = (dom["b"] - dom["a"]) / n
    x = np.linspace(dom["a"], dom["b"], n + 1)
    coeffs = doc["p"]["polynomial"][::-1]
    diag = np.full(n + 1, 2.0 / h)
    diag[[0, -1]] = 1.0 / h
    off = np.full(n, -1.0 / h)
    for xi in _GAUSS_XI:
        w = 0.5 * h * np.polyval(coeffs, x[:-1] + xi * h)
        diag[:-1] -= w * (1.0 - xi) ** 2
        diag[1:] -= w * xi ** 2
        off -= w * (1.0 - xi) * xi
    diag[0] -= doc["q_a"]
    diag[-1] -= doc["q_b"]
    tiny = np.finfo(float).eps * float(np.max(np.abs(diag)))
    count = 0
    d = 1.0
    for a, b in zip(diag.tolist(), [0.0] + off.tolist()):
        d = a - b * b / d
        if d == 0.0:
            d = tiny
        count += d < 0.0
    return count


class Workload:
    """Base: in-process ops timed in the benchmark's own interpreter.

    ``cycle_s`` is what one cycle took on the code the benchmark was
    written against (2-vCPU Xeon virtual machine, BLAS on one thread).  A
    run does as many whole cycles as fit in ``--seconds`` at that pace,
    whatever the speed of the code under test, so every commit times the
    same inputs and a speed-up cannot change which samples a percentile
    picks.
    """

    in_process = True
    cycle_s: float
    # hostspeed probe whose slowdown under contention matches the op's
    probe: str

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.validator = _report_validator()
        # parts of outputs that check() accepted without comparing them
        self.unchecked: collections.Counter = collections.Counter()

    def cycles_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.cycle_s))

    def tail(self, items: list[Item], latencies: list[float]) -> tuple[float, str]:
        """(seconds, description) of the highest percentile with at least
        ten samples beyond it.  Below 21 ops no percentile at or above the
        median has ten samples beyond it, and the maximum is reported."""
        xs = sorted(latencies)
        n = len(xs)
        if n < 21:
            return xs[-1], f"the maximum of {n} ops"
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} ops"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fuzz(Workload):
    """harness.fuzz with ten trials, one pass of its branch schedule, so
    every op covers the same mix of theorem branches."""

    def __init__(self, name: str, seed: int, backend: str, batch_ops: int,
                 cycle_s: float):
        super().__init__(name, seed)
        self.backend = backend
        self.probe = "fraction" if backend == "exact" else "small-lapack"
        self.batch_ops = batch_ops
        self.cycle_s = cycle_s

    def cycle(self) -> list[Item]:
        return [Item("fuzz", self.rng.randrange(2 ** 31))]

    def warmup_item(self) -> Item:
        return self.cycle()[0]

    def trace_batch(self) -> list[Item]:
        return [self.cycle()[0] for _ in range(self.batch_ops)]

    def execute(self, item: Item):
        rep = harness.fuzz(item.data, trials=10, dim_max=8, backend=self.backend)
        return harness.report_to_json(rep)

    def check(self, item: Item, out: str) -> str | None:
        doc = json.loads(out)
        lost = len(doc["payloads"]["summary"]["disagreements"])
        if doc["verdict"] != "pass" or lost:
            return f"verdict {doc['verdict']}, {lost} disagreements"
        return None


class PdeLadder(Workload):
    """Verify plus weak index on interval problems from n = 128 to 1024.

    A cycle visits every size once in seeded order, so the size mix is
    the same in every run and the median op always falls in the middle
    size's cluster.
    """

    SIZES = (128, 181, 256, 362, 512, 724, 1024)
    cycle_s = 5.4
    probe = "dense-lapack"

    def _item(self, n: int) -> Item:
        doc = _pde_doc(self.rng, n, checks=["decomposition", "weak_index"])
        return Item("pde", json.dumps(doc), doc)

    def cycle(self) -> list[Item]:
        sizes = list(self.SIZES)
        self.rng.shuffle(sizes)
        return [self._item(n) for n in sizes]

    def warmup_item(self) -> Item:
        return self._item(self.SIZES[0])

    def trace_batch(self) -> list[Item]:
        return self.cycle()

    def tail(self, items: list[Item], latencies: list[float]) -> tuple[float, str]:
        """Median time of the largest-size ops.  A run holds a few cycles,
        so the highest percentile with ten samples beyond it would land on
        a middle size, the same op as the median; the largest size is
        where the dense eigensolves dominate."""
        n = self.SIZES[-1]
        top = [t for item, t in zip(items, latencies)
               if item.doc["domain"]["n_elements"] == n]
        return statistics.median(top), f"the median of the {len(top)} n = {n} ops"

    def execute(self, item: Item):
        return harness.report_to_json(harness.run(harness.parse_problem(item.data)))

    def check(self, item: Item, out: str) -> str | None:
        rep = json.loads(out)
        reason = _schema_reason(self.validator, rep)
        if reason:
            return reason
        if rep["error"] is not None:
            return f"error {rep['error']['type']}: {rep['error']['message'][:100]}"
        spec, weak = rep["payloads"]["spectrum"], rep["payloads"]["weak"]
        if not spec["decomposition_ok"]:
            return "decomposition_ok is false"
        if not weak["agreement"]:
            # the harness's float rule: a count flagged marginal cannot be
            # trusted on either side, so only an unflagged disagreement fails
            if not any("marginal" in w for w in weak["warnings"]):
                return "weak index prediction disagrees with the oracle"
            self.unchecked["weak index disagreement flagged marginal"] += 1
        if spec["degenerate"]:
            self.unchecked["mi_q not compared: degenerate spectra"] += 1
        else:
            expected = qmat_negative_count(item.doc)
            if spec["mi_q"] != expected:
                return f"mi_q {spec['mi_q']} != negative inertia {expected} of Qmat"
        return None


class CliCold(Workload):
    """One fresh ``python -m morsekit.cli`` process per op over a fixed
    pool of small problem files; a cycle is the pool in seeded order."""

    in_process = False
    cycle_s = 3.6
    probe = "interpreter"
    POOL = ("abstract-exact", "abstract-exact", "abstract-float",
            "abstract-float", "pde-volume", "pde-volume", "pde-1c", "pde-2c")

    def __init__(self, name: str, seed: int, workdir: Path, env: dict):
        super().__init__(name, seed)
        self.workdir = workdir
        self.env = env
        self.peak_rss_kib = 0
        self.pool = [self._make(i, kind) for i, kind in enumerate(self.POOL)]

    def _doc(self, kind: str) -> dict:
        rng = self.rng
        if kind.startswith("abstract"):
            dim = rng.randint(3, 6)
            if kind == "abstract-exact":
                def entry():
                    return f"{rng.randint(-9, 9)}/{rng.randint(1, 3)}"
            else:
                def entry():
                    return round(rng.uniform(-5.0, 5.0), 3)
            form = [[None] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    form[i][j] = form[j][i] = entry()
            return {"kind": "abstract", "dim": dim, "backend": kind[9:],
                    "form": form,
                    "constraints": [[entry() for _ in range(dim)]
                                    for _ in range(rng.randint(1, 2))]}
        n = rng.randint(32, 64)
        if kind == "pde-volume":
            return _pde_doc(rng, n, checks=["decomposition", "weak_index"])
        k = 1 if kind == "pde-1c" else 2
        return _pde_doc(rng, n, constraints=[
            [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n + 1)]
            for _ in range(k)])

    def _make(self, index: int, kind: str) -> Item:
        doc = self._doc(kind)
        text = json.dumps(doc)
        path = self.workdir / f"problem{index}.json"
        path.write_text(text, encoding="utf-8")
        report = harness.run(harness.parse_problem(text))
        ref = json.loads(harness.report_to_json(report))
        ref.pop("timing_s")
        return Item(kind, text, doc, path, ref, 0 if report.passed else 1)

    def cycle(self) -> list[Item]:
        return self.rng.sample(self.pool, len(self.pool))

    def warmup_item(self) -> Item:
        return self.pool[0]

    def trace_batch(self) -> list[Item]:
        return list(self.pool)

    @staticmethod
    def _command(item: Item) -> str:
        return "analyze" if item.doc["kind"] == "abstract" else "pde"

    def _spawn(self, argv: list[str]):
        """Run one child to its end: (exit code, stdout, stderr)."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return (proc.returncode, out.decode("utf-8", "replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def execute(self, item: Item):
        return self._spawn([sys.executable, "-m", "morsekit.cli",
                            self._command(item), str(item.path)])

    def execute_probe(self, item: Item, probes: list):
        """The same op through cli_probe.py; appends its layer record."""
        record = self.workdir / "probe.json"
        out = self._spawn([sys.executable, str(HERE / "cli_probe.py"),
                           str(record), self._command(item), str(item.path)])
        probes.append(json.loads(record.read_text(encoding="utf-8")))
        return out

    def check(self, item: Item, out) -> str | None:
        rc, stdout, stderr = out
        if rc != item.ref_rc:
            return f"exit code {rc}, in-process {item.ref_rc}: {stderr[-200:]}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        reason = _schema_reason(self.validator, doc)
        doc.pop("timing_s", None)
        if doc != item.ref:
            return "stdout differs from the in-process report"
        return reason

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kib / 1024.0


def make(name: str, seed: int, workdir: Path, env: dict) -> Workload:
    if name == "fuzz-exact":
        return Fuzz(name, seed, "exact", batch_ops=15, cycle_s=0.058)
    if name == "fuzz-float":
        return Fuzz(name, seed, "float", batch_ops=100, cycle_s=0.0096)
    if name == "pde-ladder":
        return PdeLadder(name, seed)
    if name == "cli-cold":
        return CliCold(name, seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
