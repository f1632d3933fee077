"""The two workloads: what one pass runs, what it checks, and the
in-process call sequence the traced run decomposes it into.

Load shape: a closed loop with one client.  CLI commands run one at a
time as ``python -m markprep`` subprocesses in the workload directory,
with relative paths so outputs do not depend on where the checkout lives.
A fixed calibration probe runs between commands, so that each command's
time can be read against the host's speed at that moment.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks as facts
import inputs
from checks import Checks, Expected

COMMAND_TIMEOUT_S = 150
TIMED_OUT = -1  # the exit code recorded for a command killed at the timeout
FOREST_SEED = 42  # the CLI's default seed; no workload passes --seed to evaluate

# The calibration probe: a fresh interpreter that imports numpy, sorts an
# array and runs a pure-Python loop, as a CLI command starts up and works.
# It touches nothing of markprep, so no change to the package moves it.
PROBE = (
    "import numpy\n"
    "x = numpy.arange(100000.0)[::-1].copy()\n"
    "x.sort()\n"
    "s = 0\n"
    "for i in range(100000):\n"
    "    s += i * i % 7\n"
)


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Cli:
    """Runs ``python -m markprep`` against the checkout's own sources."""

    def __init__(self, src: Path, cwd: Path) -> None:
        self.src = src
        self.cwd = cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), self.env.get("PYTHONPATH")]))

    def run(self, args: list[str]) -> tuple[float, float, int, bytes]:
        """Wall time, the child's CPU time, exit code and stdout."""
        cpu, start = cpu_seconds(resource.RUSAGE_CHILDREN), time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=self.cwd, env=self.env, capture_output=True, timeout=COMMAND_TIMEOUT_S
            )
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:  # the child is killed and reaped; its exit check fails
            code, stdout = TIMED_OUT, b""
        wall = time.perf_counter() - start
        return wall, cpu_seconds(resource.RUSAGE_CHILDREN) - cpu, code, stdout

    def probe(self) -> float:
        """Wall time of one run of the calibration probe."""
        wall, _, code, _ = self.run(["-c", PROBE])
        if code != 0:
            raise RuntimeError(f"the calibration probe exited with code {code}")
        return wall

    def import_time(self) -> float:
        """Wall time of ``import markprep.cli`` in a fresh interpreter; also
        confirms the interpreter imports the checkout's package."""
        probe = (
            "import time; t = time.perf_counter(); import markprep.cli; "
            "print(time.perf_counter() - t); print(markprep.cli.__file__)"
        )
        _, _, code, out = self.run(["-c", probe])
        lines = out.decode().split()
        if code != 0 or len(lines) != 2 or not Path(lines[1]).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"markprep does not import from {self.src}")
        return float(lines[0])


def _json(stdout: bytes) -> dict:
    try:
        data = json.loads(stdout)
    except ValueError:
        return {}
    return data if isinstance(data, dict) else {}


@dataclass
class Step:
    wall: float  # seconds
    cpu: float  # seconds, user + system
    probe: float  # mean wall seconds of the probes run just before and after


@dataclass
class Pass:
    steps: dict[str, Step]
    first_probe: float  # wall seconds of the probe run before the first command
    digest: str
    rows_unaccounted: int
    outputs: dict[str, dict]


@dataclass
class CsvWorkload:
    """A sequence of CLI commands over one benchmark-built transcript."""

    name: str
    build_rows: object
    generate: bool
    stats_variant: str
    per_department: bool
    trees: int
    validate_exit: int

    def build(self, seed: int, work: Path, src: Path) -> dict:
        shutil.rmtree(work, ignore_errors=True)
        (work / "input").mkdir(parents=True)
        transcript = self.build_rows(seed)
        transcript.write(work / "input" / "transcript.csv")
        return {"seed": seed, "work": work, "transcript": transcript, "cli": Cli(src, work)}

    def expect(self, state: dict) -> None:
        # The rows go once the facts are drawn: ~57k live lists in this
        # process would slow the garbage collector in the in-process run.
        state["expected"] = Expected.of(state.pop("transcript"), self.per_department)

    def commands(self, seed: int) -> list[tuple[str, list[str], int]]:
        inp = "input/transcript.csv"
        steps = []
        if self.generate:
            students = str(inputs.PAPER_STUDENTS)
            steps.append(("generate", ["generate", "--seed", str(seed), "--students", students, "--out", "pass/generated.csv"], 0))
        steps += [
            ("validate", ["validate", inp, "--format", "json"], self.validate_exit),
            ("stats", ["stats", inp, "--variant", self.stats_variant, "--format", "json"], 0),
            ("refine", ["refine", inp, "--out", "pass/refined.csv", "--model-out", "pass/model.json", "--format", "json"]
             + (["--per-department"] if self.per_department else []), 0),
            ("evaluate", ["evaluate", "pass/refined.csv", "--trees", str(self.trees), "--format", "json"], 0),
        ]
        return steps

    def run_pass(self, state: dict, check: Checks) -> Pass:
        """One pass of the commands, each between two runs of the probe."""
        work: Path = state["work"]
        cli: Cli = state["cli"]
        shutil.rmtree(work / "pass", ignore_errors=True)
        (work / "pass").mkdir()
        digest = hashlib.sha256()
        steps, outputs = {}, {}
        before = first_probe = cli.probe()
        for step, args, want_exit in self.commands(state["seed"]):
            wall, cpu, code, stdout = cli.run(["-m", "markprep", *args])
            after = cli.probe()
            steps[step] = Step(wall, cpu, (before + after) / 2)
            before = after
            check(code == want_exit, f"{step}: exit code {want_exit}")
            outputs[step] = _json(stdout)
            digest.update(f"{step}\0{code}\0".encode() + stdout)
        for path in sorted((work / "pass").iterdir()):
            digest.update(f"{path.name}\0".encode() + path.read_bytes())

        expected: Expected = state["expected"]
        if self.generate:
            generated = work / "pass" / "generated.csv"
            lines = generated.read_bytes().count(b"\n") if generated.is_file() else 0
            # the package's default profile: 3 years of 10 modules, plus a header
            check(lines == inputs.PAPER_STUDENTS * 30 + 1, "generate: 406 x 30 rows")
        facts.check_validate(check, outputs["validate"], expected)
        facts.check_stats(check, outputs["stats"], expected, self.stats_variant)
        fitted = facts.check_refine(check, outputs["refine"], expected)
        facts.check_comparison(check, outputs["evaluate"], expected.students, "evaluate")
        unaccounted = expected.total_rows - fitted - facts.reported_drops(outputs["refine"])
        return Pass(steps, first_probe, digest.hexdigest(), unaccounted, outputs)

    def run_inprocess(self, state: dict, tracer) -> dict:
        """The public calls each command makes, in the same order."""
        import markprep as m

        work: Path = state["work"]
        out = work / "inproc"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        inp = work / "input" / "transcript.csv"
        span = tracer.span
        got = {"ingest": [], "t_tests": 0, "writes": []}

        if self.generate:
            with span("cli.generate"):
                spec = m.default_cohort_spec(state["seed"], inputs.PAPER_STUDENTS)
                with span("synthgen.generate_cohort"):
                    records = m.generate_cohort(spec)
                with span("ingest.write"):
                    m.write_transcript_csv(records, out / "generated.csv")
                (out / "generated.spec.json").write_text(spec.to_json(), encoding="utf-8")
            got["generated"] = len(records)
            # one stream per student and one per module record
            got["generator_streams"] = sum(
                d.student_count * (1 + len(d.years) * d.modules_per_student_per_year) for d in spec.departments
            )
            got["writes"].append(out / "generated.csv")

        with span("cli.validate"):
            with span("ingest.parse"):
                records, parse_report = m.parse_transcript_csv(inp)
            with span("ingest.deduplicate"):
                deduped, dedupe_report = m.deduplicate(records)
            with span("ingest.missing_policy"):
                _, missing_report = m.apply_missing_policy(deduped, m.MissingPolicy.FLAG_ONLY)
        got["ingest"] += [parse_report, dedupe_report, missing_report]
        got["collapsed"] = sum(1 for i in dedupe_report.issues if i.severity is m.Severity.WARN)

        with span("cli.stats"):
            with span("ingest.parse"):
                records, parse_report = m.parse_transcript_csv(inp)
            with span("stats.group_mean_table"):
                table = m.group_mean_table(records)
            samples: dict[str, list[float]] = {}
            for department in sorted(table):
                for method, summary in table[department].items():
                    samples.setdefault(method.value, []).append(summary.mean)
            for _, a, b in facts.COMPARISONS:
                if len(samples.get(a, [])) >= 2 and len(samples.get(b, [])) >= 2:
                    with span("stats.t_test"):
                        try:
                            m.two_sample_t(samples[a], samples[b], m.TTestVariant(self.stats_variant))
                        except m.DegenerateSampleError:
                            pass
                    got["t_tests"] += 1
        got["ingest"].append(parse_report)

        with span("cli.refine"):
            with span("ingest.parse"):
                records, parse_report = m.parse_transcript_csv(inp)
            with span("refine.pipeline"):
                result = m.run_refinement_pipeline(records, per_department=self.per_department)
            with span("ingest.write"):
                m.write_transcript_csv(result.records, out / "refined.csv", refined_marks=result.refined_marks)
        got["ingest"].append(parse_report)
        got["writes"].append(out / "refined.csv")
        if not self.per_department:
            # per-department fits return only the selected model, so their
            # candidate fits cannot be counted from what the package returns
            got["models_fitted"] = sum(c is not None for c in (result.linear_candidate, result.quadratic_candidate))

        with span("cli.evaluate"):
            with span("ingest.parse_refined"):
                records, refined, parse_report = m.parse_refined_transcript_csv(out / "refined.csv")
            with span("evaluation.feature_table"):
                table = m.build_feature_table(records, refined_marks=refined)
            got["comparison"] = compare_decomposed(tracer, m, table, m.ForestParams(tree_count=self.trees), FOREST_SEED)
        got["ingest"].append(parse_report)
        got["students"] = len({r.student_id for r in records})
        got["table_rows"] = len(table.rows)
        return got


def compare_decomposed(tracer, m, table, params, seed: int) -> dict:
    """``compare_with_without_car`` as its public calls: one split, then
    train and evaluate with the ratio column live and then zeroed."""
    span = tracer.span
    car = table.column_names.index(m.CAR_COLUMN)
    with span("forest.holdout_split"):
        train, test = m.holdout_split(list(table.rows), m.DEFAULT_TEST_FRACTION, seed)
    models, reports = [], []
    for masked in (False, True):
        if masked:
            train, test = ([_zeroed(m, row, car) for row in rows] for rows in (train, test))
        with span("forest.train"):
            model = m.train_forest(train, params, seed)
        with span("evaluation.evaluate_forest"):
            reports.append(m.evaluate_forest(model, test, "weighted"))
        models.append(model)
    return {"models": models, "reports": reports, "test_rows": len(test)}


def _zeroed(m, row, column: int):
    features = list(row.features)
    features[column] = 0.0
    return m.FeatureRow(row.student_id, tuple(features), row.label)


WORKLOADS = {
    "paper_roundtrip": CsvWorkload(
        "paper_roundtrip", inputs.paper_cohort, generate=True, stats_variant="pooled",
        per_department=False, trees=100, validate_exit=0,
    ),
    "faculty_dirty": CsvWorkload(
        "faculty_dirty", inputs.faculty_cohort, generate=False, stats_variant="welch",
        per_department=True, trees=10, validate_exit=1,
    ),
}
