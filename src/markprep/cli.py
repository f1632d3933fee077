"""Command-line surface for the transcript preparation pipeline.

Every command is a pure function of its inputs, flags, and seed: no
wall-clock, no OS entropy, byte-identical output on reruns.  Exit codes:
0 success, 1 data or model failure, 2 usage or configuration failure.

Flags override values from an optional JSON config file (``--config``),
which in turn override built-in defaults.  Config keys match the flag
names with underscores; unknown keys are rejected, and values pass the
same validation as typed flags.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, ContextManager, Iterable, Iterator, NoReturn, Sequence

import click

# Each command imports evaluation, fixtures, forest, refine, stats or
# synthgen in its body, so that it loads only the modules it runs.  No
# module imports numpy.
from . import __version__
from .core import (
    DEFAULT_BANDING,
    DEFAULT_TEST_FRACTION,
    BandingScheme,
    DegreeBand,
    read_list,
    read_number,
    read_string,
    render_aligned_table,
    render_confusion_text,
)
from .ingest import (
    IngestReport,
    MissingPolicy,
    TranscriptSchemaError,
    apply_missing_policy,
    deduplicate,
    parse_any_transcript_csv,
    parse_refined_transcript_csv,
    parse_transcript_csv,
    write_transcript_csv,
)

if TYPE_CHECKING:
    from .evaluation import ComparisonResult
    from .fixtures import PublishedConfusionTable
    from .refine import RefinementModel, RefinementResult, SavedModels
    from .stats import GroupSummary, TTestResult, TTestVariant

DEFAULT_SEED = 42

# Config keys with no flag of their own, per command.
_CONFIG_ONLY_KEYS = {"evaluate": {"banding"}}

# The assessment methods as their AssessmentMethodClass values, in report
# column order, with their text-table titles.
_METHOD_TITLES = {"exam_based": "Exam", "coursework_based": "Coursework", "mixed": "Mixed"}

_COMPARISONS = (
    ("exam_vs_coursework", "exam_based", "coursework_based"),
    ("mixed_vs_exam", "mixed", "exam_based"),
    ("mixed_vs_coursework", "mixed", "coursework_based"),
)


def _usage_error(message: str) -> NoReturn:
    raise click.UsageError(message)


def _data_error(message: str) -> NoReturn:
    raise click.ClickException(message)


def _read_json_object(path: str, label: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        _usage_error(f"cannot read {label}: {exc}")
    except UnicodeDecodeError as exc:
        _usage_error(f"cannot read {label}: not UTF-8 text ({exc})")
    except json.JSONDecodeError as exc:
        _usage_error(f"{label} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _usage_error(f"{label} must hold a JSON object")
    return data


def _json_kind_mismatch(kind: click.ParamType, value: object) -> str | None:
    """The kind of JSON value an option of type ``kind`` needs, when
    ``value`` is not one; None when it is.

    A string is parsed like the flag's text.  Any other value must already
    have the option's kind, since click would truncate a bool or a fraction
    to an int and fails with a traceback on a list, or on a number where it
    expects text or a boolean.
    """
    if value is None or isinstance(value, str):
        return None
    if isinstance(kind, click.types.BoolParamType):
        return None if isinstance(value, bool) else "a boolean"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(kind, click.types.IntParamType):
        return None if number and (isinstance(value, int) or value.is_integer()) else "an integer"
    if isinstance(kind, click.types.FloatParamType):
        return None if number else "a number"
    return "a string"


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager ``--config`` callback: the file becomes the command's default map.

    Click then resolves every option as flag, else config value, else the
    option's own default, converting config values with the option's type.
    """
    if path is None:
        return
    raw = _read_json_object(path, f"config {path}")
    options = {
        option.name: option
        for option in ctx.command.params
        if isinstance(option, click.Option) and option is not param
    }
    known_keys = set(options) | _CONFIG_ONLY_KEYS.get(ctx.command.name, set())
    unknown = set(raw) - known_keys
    if unknown:
        _usage_error(f"unknown config keys in {path}: {', '.join(sorted(unknown))}")
    for key in sorted(raw.keys() & options.keys()):
        value = raw[key]
        expected = _json_kind_mismatch(options[key].type, value)
        if expected:
            _usage_error(f"invalid value for {key} in config {path}: {value!r} is not {expected}")
        try:
            options[key].type_cast_value(ctx, value)
        except click.BadParameter as exc:
            _usage_error(f"invalid value for {key} in config {path}: {exc.message}")
    ctx.default_map = raw


class _FiniteFloatRange(click.FloatRange):
    """A ``FloatRange`` that also rejects NaN, which fails no comparison."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number} is not a finite number", param, ctx)
        return number


def _new_file_mode() -> int:
    """The mode ``open`` gives a new file: 0o666 less the umask, which can
    be read only by setting it."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def _output_files() -> Iterator[Callable[[Path, str], ContextManager[IO[str]]]]:
    """Yield ``stage(path, label)``, which opens ``path`` for writing.

    Each file is written to a temporary file beside its target, and the
    files staged in the block are moved into place only once all of them
    are written, so a command that fails part-way leaves no output behind
    and a file already at a target keeps its bytes.  A file that cannot be
    written is a usage error, as an unreadable input is.
    """
    staged: list[tuple[str, Path, str]] = []  # temporary file, target, label

    @contextlib.contextmanager
    def stage(path: Path, label: str) -> Iterator[IO[str]]:
        try:
            if path.exists() and not path.is_file():
                # a device or pipe, such as /dev/stdout, cannot be replaced
                with open(path, "w", encoding="utf-8", newline="") as stream:
                    yield stream
                return
            fd, temp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
            staged.append((temp, path, label))
            os.chmod(fd, _new_file_mode())
            with open(fd, "w", encoding="utf-8", newline="") as stream:
                yield stream
        except OSError as exc:
            _usage_error(f"cannot write {label} {path}: {exc.strerror or exc}")

    try:
        yield stage
        for temp, path, label in staged:
            try:
                os.replace(temp, path)
            except OSError as exc:
                _usage_error(f"cannot write {label} {path}: {exc.strerror or exc}")
    finally:
        # a no-op for each file already moved into place
        for temp, _, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)


def _check_distinct_outputs(outputs: Iterable[tuple[Path | None, str]]) -> None:
    """Exit 2 when two of a command's ``(path, label)`` outputs name one
    file, which would keep only the one moved into place last.  A device or
    pipe is written in turn, not replaced, so it may take several; a None
    path is an output not asked for."""
    seen: dict[Path, str] = {}
    for path, label in outputs:
        if path is None or (path.exists() and not path.is_file()):
            continue
        target = path.resolve()
        if target in seen:
            _usage_error(f"cannot write {label} {path}: the {seen[target]} goes to the same file")
        seen[target] = label


def _write_text(path: str | Path, text: str, label: str) -> None:
    with _output_files() as stage, stage(Path(path), label) as stream:
        stream.write(text)


def _emit(text: str, output_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output_path:
        _write_text(output_path, text, "report")
    else:
        click.echo(text, nl=False)


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows as CSV lines ending in "\n"; a cell is quoted only when it
    holds a comma, a quote or a line break, as a department name may."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _read_records(path: str, parse=parse_transcript_csv, warn_rejects: bool = True) -> tuple:
    """The tuple ``parse`` returns for a transcript CSV; unreadable input,
    text the CSV reader refuses or a wrong header is a usage error.
    Rejected rows are counted on stderr, so stdout stays the report."""
    try:
        parsed = parse(path)
    except OSError as exc:
        _usage_error(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _usage_error(f"cannot read {path}: not UTF-8 text ({exc})")
    except csv.Error as exc:
        _usage_error(f"cannot read {path}: {exc}")
    except TranscriptSchemaError as exc:
        refined = parse is parse_refined_transcript_csv
        _usage_error(f"{exc} (expected the refined schema written by `refine`)" if refined else str(exc))
    report = parsed[-1]
    if warn_rejects and report.rejected_count:
        total = report.accepted_count + report.rejected_count
        line = f"{report.rejected_count} of {total} rows rejected while parsing {path}"
        click.echo(f"{line}; run markprep validate for details", err=True)
    return parsed


def _setting_name(ctx: click.Context, name: str) -> str:
    """The flag or the config key that gave a setting, for error messages."""
    if ctx.get_parameter_source(name) is click.core.ParameterSource.DEFAULT_MAP:
        return f"config key {name}"
    return "--" + name.replace("_", "-")


def _config_option(fn):
    return click.option(
        "--config",
        type=click.Path(),
        is_eager=True,
        expose_value=False,
        callback=_load_config,
        help="JSON config file; explicit flags override its values.",
    )(fn)


def _format_option(fn):
    return click.option(
        "--format",
        type=click.Choice(["json", "csv", "text"]),
        default="text",
        help="Report format.  [default: text]",
    )(fn)


def _output_option(fn):
    return click.option(
        "--output",
        type=click.Path(),
        default=None,
        help="Write the report to this file instead of stdout.",
    )(fn)


def _seed_option(default: int | None):
    return click.option(
        "--seed",
        type=click.IntRange(min=0),
        default=default,
        help=f"Root seed for all randomness.  [default: {DEFAULT_SEED}]",
    )


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Prepare transcript data: coursework-ratio refinement and degree-band
    prediction.

    Typical flow: generate (or bring) a transcript CSV, validate it, look
    at stats, refine marks, then evaluate band prediction with and
    without the coursework assessment ratio (CAR) attribute.
    """


@main.command()
@click.option("--out", type=click.Path(), default="cohort.csv", help="Cohort CSV path.  [default: cohort.csv]")
@click.option("--spec", type=click.Path(), default=None, help="Cohort spec JSON to generate from (defaults to a built-in single-department profile).")
@click.option("--spec-out", type=click.Path(), default=None, help="Where to record the spec actually used.  [default: <out> with .spec.json]")
@click.option("--students", type=click.IntRange(min=1), default=None, help="Student count for the built-in profile.  [default: 406]")
@_seed_option(None)
@_config_option
def generate(
    out: str, spec: str | None, spec_out: str | None, students: int | None, seed: int | None
) -> None:
    """Write a deterministic synthetic cohort CSV plus its spec JSON."""
    from .synthgen import CohortSpec, CohortSpecError, default_cohort_spec, generate_cohort

    out_path = Path(out)
    spec_out_path = Path(spec_out) if spec_out else out_path.with_suffix(".spec.json")
    _check_distinct_outputs([(out_path, "cohort CSV"), (spec_out_path, "cohort spec")])
    try:
        if spec:
            cohort_spec = CohortSpec.from_json_dict(_read_json_object(spec, f"spec {spec}"))
            if seed is not None:
                cohort_spec = dataclasses.replace(cohort_spec, seed=seed)
            if students is not None:
                _usage_error("--students applies only to the built-in profile; edit the spec file instead")
        else:
            cohort_spec = default_cohort_spec(
                seed if seed is not None else DEFAULT_SEED,
                students if students is not None else 406,
            )
        records = generate_cohort(cohort_spec)
    except CohortSpecError as exc:
        _usage_error(str(exc))

    with _output_files() as stage:
        with stage(out_path, "cohort CSV") as stream:
            write_transcript_csv(records, stream)
        with stage(spec_out_path, "cohort spec") as stream:
            stream.write(cohort_spec.to_json())
    students_written = len({record.student_id for record in records})
    click.echo(f"wrote {len(records)} records for {students_written} students to {out_path}")
    click.echo(f"wrote cohort spec to {spec_out_path}")


def _issues_json(stage_reports: dict[str, IngestReport]) -> dict:
    return {stage: report.to_json_dict() for stage, report in stage_reports.items()}


def _issues_csv(stage_reports: dict[str, IngestReport]) -> str:
    lines = ["stage,row,field,category,severity,detail"]
    for stage, report in stage_reports.items():
        for issue in report.issues:
            detail = issue.detail.replace('"', '""')
            lines.append(
                f'{stage},{issue.row_number},{issue.field},{issue.category.value},'
                f'{issue.severity.value},"{detail}"'
            )
    return "\n".join(lines) + "\n"


def _issues_text(stage_reports: dict[str, IngestReport], final_count: int, total_rows: int) -> str:
    lines = []
    for stage, report in stage_reports.items():
        lines.append(
            f"{stage}: {report.accepted_count} accepted, {report.rejected_count} rejected"
        )
        for issue in report.issues:
            lines.append(
                f"  row {issue.row_number} [{issue.field}] "
                f"{issue.category.value}/{issue.severity.value}: {issue.detail}"
            )
    lines.append(f"final: {final_count} of {total_rows} input rows accepted")
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("input_csv", type=click.Path())
@click.option(
    "--missing-policy",
    type=click.Choice(["drop", "flag"]),
    default="flag",
    help="Treatment of records missing a weighted component mark.  [default: flag]",
)
@_config_option
@_format_option
@_output_option
@click.pass_context
def validate(
    ctx: click.Context, input_csv: str, missing_policy: str, format: str, output: str | None
) -> None:
    """Check a transcript CSV; exit 1 when any row is rejected.

    Runs the full cleaning sequence: schema and field validation,
    duplicate handling, then the missing-mark policy.  The header picks
    the schema, so a refined transcript from `refine` is checked too.
    """
    records, _, parse_report = _read_records(input_csv, parse_any_transcript_csv, warn_rejects=False)
    total_rows = parse_report.accepted_count + parse_report.rejected_count
    # Every stage names CSV data rows: a row the parse rejected has a
    # reject issue, and every deduplicate issue drops its record.
    rejected = {issue.row_number for issue in parse_report.reject_issues}
    rows = [n for n in range(1, total_rows + 1) if n not in rejected]
    deduped, dedupe_report = deduplicate(records, row_numbers=rows)
    dropped = {issue.row_number for issue in dedupe_report.issues}
    policy = MissingPolicy.DROP_RECORD if missing_policy == "drop" else MissingPolicy.FLAG_ONLY
    final_records, missing_report = apply_missing_policy(
        deduped, policy, row_numbers=[n for n in rows if n not in dropped]
    )

    stages = {
        "parse": parse_report,
        "deduplicate": dedupe_report,
        "missing_policy": missing_report,
    }
    if format == "json":
        text = _json_text(
            {
                "stages": _issues_json(stages),
                "accepted": len(final_records),
                "total_rows": total_rows,
            }
        )
    elif format == "csv":
        text = _issues_csv(stages)
    else:
        text = _issues_text(stages, len(final_records), total_rows)
    _emit(text, output)

    if any(report.reject_issues for report in stages.values()):
        ctx.exit(1)


def _class_samples(table: dict[str, dict[str, GroupSummary]]) -> dict[str, list[float]]:
    """Department-level mean per method class, one point per department.

    Comparisons run on these per-department means, mirroring how the
    reference analysis compared its published per-department averages.
    """
    samples: dict[str, list[float]] = {method: [] for method in _METHOD_TITLES}
    for department in sorted(table):
        for method, summary in table[department].items():
            samples[method].append(summary.mean)
    return samples


def _stats_json(
    table,
    tests: dict[str, TTestResult | None],
    variant: TTestVariant,
) -> dict:
    return {
        "group_means": {
            department: {
                method: {"mean": summary.mean, "count": summary.count}
                for method, summary in by_method.items()
            }
            for department, by_method in table.items()
        },
        "t_tests": {
            name: (result.to_json_dict() if result is not None else "not applicable")
            for name, result in tests.items()
        },
        "variant": variant.value,
    }


def _stats_text(table, tests: dict[str, TTestResult | None]) -> str:
    rows = [["Department", *_METHOD_TITLES.values()]]
    for department in sorted(table):
        row = [department]
        for method in _METHOD_TITLES:
            summary = table[department].get(method)
            row.append(f"{summary.mean:.2f}" if summary is not None else "-")
        rows.append(row)
    lines = [render_aligned_table(rows), ""]
    for name, result in tests.items():
        if result is None:
            lines.append(f"{name}: not applicable")
        else:
            lines.append(
                f"{name}: t = {result.t_statistic:.4f}, "
                f"df = {result.degrees_of_freedom:g}, p = {result.p_value_two_sided:.4g}"
            )
    return "\n".join(lines) + "\n"


def _stats_csv(table, tests: dict[str, TTestResult | None]) -> str:
    means = [[
        "department", "exam_mean", "exam_count", "coursework_mean", "coursework_count", "mixed_mean", "mixed_count",
    ]]
    for department in sorted(table):
        cells = [department]
        for method in _METHOD_TITLES:
            summary = table[department].get(method)
            if summary is None:
                cells.extend(["", ""])
            else:
                cells.extend([repr(summary.mean), str(summary.count)])
        means.append(cells)
    comparisons = [["comparison", "t", "df", "p", "variant", "n_a", "n_b"]]
    for name, result in tests.items():
        if result is None:
            comparisons.append([name, "not applicable", "", "", "", "", ""])
        else:
            comparisons.append([
                name, repr(result.t_statistic), repr(result.degrees_of_freedom),
                repr(result.p_value_two_sided), result.variant.value, str(result.n_a), str(result.n_b),
            ])
    return _csv_text(means) + "\n" + _csv_text(comparisons)


@main.command()
@click.argument("input_csv", type=click.Path())
@click.option(
    "--variant",
    type=click.Choice(["pooled", "welch"]),
    default="pooled",
    help="t-test variant.  [default: pooled]",
)
@_config_option
@_format_option
@_output_option
def stats(input_csv: str, variant: str, format: str, output: str | None) -> None:
    """Group mean marks by department and assessment method, with the
    three pairwise t-tests on the per-department means."""
    from .stats import DegenerateSampleError, TTestVariant, group_mean_table, two_sample_t

    t_variant = TTestVariant(variant)

    records, _report = _read_records(input_csv)
    if not records:
        _data_error(f"no valid records in {input_csv}")
    table = {
        department: {method.value: summary for method, summary in by_method.items()}
        for department, by_method in group_mean_table(records).items()
    }
    samples = _class_samples(table)

    tests: dict[str, TTestResult | None] = {}
    for name, method_a, method_b in _COMPARISONS:
        sample_a, sample_b = samples[method_a], samples[method_b]
        if len(sample_a) < 2 or len(sample_b) < 2:
            tests[name] = None
            continue
        try:
            tests[name] = two_sample_t(sample_a, sample_b, t_variant)
        except DegenerateSampleError:
            tests[name] = None

    if format == "json":
        text = _json_text(_stats_json(table, tests, t_variant))
    elif format == "csv":
        text = _stats_csv(table, tests)
    else:
        text = _stats_text(table, tests)
    _emit(text, output)


def _model_lines(result: RefinementResult) -> list[str]:
    lines = []
    if result.linear_candidate is not None:
        lines.append(f"linear fit:    R^2 = {result.linear_candidate.r_squared:.6f}")
    if result.quadratic_candidate is not None:
        lines.append(f"quadratic fit: R^2 = {result.quadratic_candidate.r_squared:.6f}")
    if result.model is not None:
        model = result.model
        lines.append(
            f"applied {model.model_kind.value} model: b0 = {model.intercept:.6g}, "
            f"b1 = {model.linear:.6g}, b2 = {model.quadratic:.6g}"
        )
    if result.department_models is not None:
        for department in sorted(result.department_models):
            model = result.department_models[department]
            lines.append(
                f"{department}: {model.model_kind.value} b1 = {model.linear:.6g}, "
                f"b2 = {model.quadratic:.6g}, R^2 = {model.r_squared:.6f}"
            )
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return lines


def _models_csv(models: SavedModels) -> str:
    rows = [["scope", "model_kind", "b0", "b1", "b2", "r_squared", "n_observations"]]
    scoped = sorted(models.items()) if isinstance(models, dict) else [("pooled", models)]
    for scope, model in scoped:
        rows.append([
            scope, model.model_kind.value, repr(model.intercept), repr(model.linear),
            repr(model.quadratic), repr(model.r_squared), str(model.n_observations),
        ])
    return _csv_text(rows)


def _models_text(models: SavedModels) -> str:
    def fit(model: RefinementModel) -> str:
        return (
            f"b0 = {model.intercept:.6g}, b1 = {model.linear:.6g}, b2 = {model.quadratic:.6g}, "
            f"R^2 = {model.r_squared:.6f}, n = {model.n_observations}"
        )

    if isinstance(models, dict):
        return "".join(
            f"{scope}: {model.model_kind.value} {fit(model)}\n" for scope, model in sorted(models.items())
        )
    return f"{models.model_kind.value} model: {fit(models)}\n"


def _refine_report_json(result: RefinementResult) -> dict:
    from .refine import models_to_json

    def saved(models: SavedModels | None) -> dict | None:
        return None if models is None else models_to_json(models)

    return {
        "model": saved(result.model),
        "department_models": saved(result.department_models),
        "linear_candidate": saved(result.linear_candidate),
        "quadratic_candidate": saved(result.quadratic_candidate),
        "ratio_classes": {d: list(w) for d, w in sorted(result.ratio_classes.items())},
        "warnings": list(result.warnings),
        "record_count": len(result.records),
    }


@main.command()
@click.argument("input_csv", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Augmented CSV path.  [default: <input> with .refined.csv]")
@click.option("--model-out", type=click.Path(), default=None, help="Model JSON path.  [default: <input> with .model.json]")
@click.option(
    "--reference-coefficients",
    is_flag=True,
    default=False,
    help="Skip fitting and apply the published coefficient pair (12.77, -5.873).",
)
@click.option("--per-department", is_flag=True, default=False, help="Fit one model per department instead of pooling.")
@click.option("--clamp", is_flag=True, default=False, help="Clamp refined marks into [0, 100].")
@_config_option
@_format_option
@_output_option
@click.pass_context
def refine(
    ctx: click.Context,
    input_csv: str,
    out: str | None,
    model_out: str | None,
    reference_coefficients: bool,
    per_department: bool,
    clamp: bool,
    format: str,
    output: str | None,
) -> None:
    """Fit the ratio model and write marks with the fitted ratio effect
    removed, as a trailing refined_module_mark column."""
    from .refine import SingularFitError, models_to_json, reference_model, run_refinement_pipeline

    if reference_coefficients and per_department:
        _usage_error(
            f"{_setting_name(ctx, 'reference_coefficients')} and {_setting_name(ctx, 'per_department')} "
            "are exclusive: the pinned coefficients are never fitted per department"
        )
    out_path = Path(out) if out else Path(input_csv).with_suffix(".refined.csv")
    model_path = Path(model_out) if model_out else Path(input_csv).with_suffix(".model.json")
    _check_distinct_outputs(
        [(out_path, "refined CSV"), (model_path, "model"), (Path(output) if output else None, "report")]
    )
    records, _report = _read_records(input_csv)
    if not records:
        _data_error(f"no valid records in {input_csv}")
    pinned = reference_model() if reference_coefficients else None
    try:
        result = run_refinement_pipeline(
            records, model=pinned, per_department=per_department, clamp=clamp
        )
    except (SingularFitError, ValueError) as exc:
        _data_error(str(exc))

    models = result.department_models if result.department_models is not None else result.model
    if format == "json":
        text = _json_text(_refine_report_json(result))
    elif format == "csv":
        text = _models_csv(models)
    else:
        lines = _model_lines(result)
        lines.append(f"wrote {len(result.records)} refined records to {out_path}")
        lines.append(f"wrote model to {model_path}")
        text = "\n".join(lines) + "\n"
    with _output_files() as stage:
        with stage(out_path, "refined CSV") as stream:
            write_transcript_csv(result.records, stream, refined_marks=result.refined_marks)
        with stage(model_path, "model") as stream:
            stream.write(_json_text(models_to_json(models)))
        # inside the block, so that a report path that cannot be written
        # leaves neither file behind
        _emit(text, output)


def _parse_predictor_years(ctx: click.Context, value: str, target_year: int) -> tuple[int, ...]:
    name = _setting_name(ctx, "predictor_years")
    try:
        years = tuple(int(part) for part in value.split(",") if part.strip() != "")
    except ValueError:
        _usage_error(f"{name} must be comma-separated integers, got {value!r}")
    if not years:
        _usage_error(f"{name} must not be empty")
    if min(years) < 0:
        _usage_error(f"{name} {value} names a negative year; years are integers >= 0")
    if len(set(years)) != len(years):
        _usage_error(f"{name} {value} names a year twice")
    if target_year in years:
        _usage_error(
            f"{name} {value} includes the target year {target_year} "
            f"({_setting_name(ctx, 'target_year')}); a predictor cannot be the label's own year"
        )
    return years


def _parse_banding(value: object) -> BandingScheme:
    """The config's list of [lower_bound, band_name] pairs as a scheme."""
    try:
        pairs = [read_list("banding entry", pair) for pair in read_list("banding", value)]
        return BandingScheme(tuple(
            (read_number("banding bound", bound), DegreeBand.from_label(read_string("banding band name", name)))
            for bound, name in pairs
        ))
    except ValueError as exc:
        _usage_error(f"invalid banding scheme: {exc}")


def _fixture_text(without: PublishedConfusionTable, with_car: PublishedConfusionTable) -> str:
    blocks = []
    for title, table in (
        ("without ratio attribute", without),
        ("with ratio attribute", with_car),
    ):
        rendered = render_confusion_text(
            table.cells,
            table.class_order,
            row_totals=table.row_totals,
            column_totals=table.column_totals,
            grand_total=table.grand_total,
        )
        blocks.append(f"published confusion matrix, {title}:\n{rendered}")
        blocks.append(
            f"classification accuracy ({title}): {table.classification_accuracy:.4f}"
        )
    return "\n\n".join(blocks) + "\n"


def _fixture_json(without: PublishedConfusionTable, with_car: PublishedConfusionTable) -> dict:
    def block(table: PublishedConfusionTable) -> dict:
        return {
            "class_order": [band.name for band in table.class_order],
            "cells": [list(row) for row in table.cells],
            "row_totals": list(table.row_totals),
            "column_totals": list(table.column_totals),
            "grand_total": table.grand_total,
            "classification_accuracy": table.classification_accuracy,
        }

    return {"without_car": block(without), "with_car": block(with_car)}


def _comparison_csv(result: ComparisonResult) -> str:
    lines = ["metric,with_car,without_car"]
    lines.append(
        "classification_accuracy,"
        f"{result.with_car.classification_accuracy!r},"
        f"{result.without_car.classification_accuracy!r}"
    )
    lines.append(f"auc,{result.with_car.auc!r},{result.without_car.auc!r}")
    lines.append(
        f"error_rate,{result.with_car.error_rate!r},{result.without_car.error_rate!r}"
    )
    lines.append(f"auc_delta,{result.auc_delta!r},")
    return "\n".join(lines) + "\n"


def _comparison_text(result: ComparisonResult) -> str:
    from .evaluation import render_report_text

    parts = [
        "with ratio attribute:",
        render_report_text(result.with_car),
        "",
        "without ratio attribute:",
        render_report_text(result.without_car),
        "",
        f"AUC delta (with - without): {result.auc_delta:+.4f}",
    ]
    return "\n".join(parts) + "\n"


def _comparison_report(result: ComparisonResult, format: str) -> str:
    if format == "json":
        return _json_text(result.to_json_dict())
    if format == "csv":
        return _comparison_csv(result)
    return _comparison_text(result)


@main.command()
@click.argument("input_csv", type=click.Path(), required=False)
@click.option("--from-fixture", is_flag=True, default=False, help="Print the published confusion-matrix fixtures instead of evaluating data.")
@click.option("--test-fraction", type=_FiniteFloatRange(0, 1, min_open=True, max_open=True), default=DEFAULT_TEST_FRACTION, help=f"Holdout test share.  [default: {DEFAULT_TEST_FRACTION}]")
@click.option("--trees", type=click.IntRange(min=1), default=100, help="Number of trees.  [default: 100]")
@click.option("--max-features", type=click.IntRange(min=1), default=None, help="Features tried per node.  [default: ceil(sqrt(d))]")
@click.option("--min-leaf", type=click.IntRange(min=1), default=1, help="Minimum rows per leaf.  [default: 1]")
@click.option("--no-bootstrap", is_flag=True, default=False, help="Train every tree on the full training set instead of bootstrap resamples.")
@click.option("--auc-average", type=click.Choice(["weighted", "macro"]), default="weighted", help="Multiclass AUC averaging.  [default: weighted]")
@click.option("--target-year", type=click.IntRange(min=0), default=3, help="Year whose band is predicted.  [default: 3]")
@click.option("--predictor-years", type=str, default="1,2", help="Comma-separated predictor years.  [default: 1,2]")
@_seed_option(DEFAULT_SEED)
@_config_option
@_format_option
@_output_option
@click.pass_context
def evaluate(
    ctx: click.Context,
    input_csv: str | None,
    from_fixture: bool,
    test_fraction: float,
    trees: int,
    max_features: int | None,
    min_leaf: int,
    no_bootstrap: bool,
    auc_average: str,
    target_year: int,
    predictor_years: str,
    seed: int,
    format: str,
    output: str | None,
) -> None:
    """Predict target-year bands from earlier years, with and without the
    mean coursework ratio attribute, on one identical holdout split.

    INPUT_CSV must be a refined transcript (the output of `refine`).
    """
    if from_fixture:
        if input_csv is not None:
            _usage_error("--from-fixture prints the published tables and takes no INPUT_CSV")
        if format == "csv":
            _usage_error("--from-fixture prints text or json, not csv")
        from .fixtures import CONFUSION_WITH_CAR, CONFUSION_WITHOUT_CAR

        if format == "json":
            text = _json_text(_fixture_json(CONFUSION_WITHOUT_CAR, CONFUSION_WITH_CAR))
        else:
            text = _fixture_text(CONFUSION_WITHOUT_CAR, CONFUSION_WITH_CAR)
        _emit(text, output)
        return

    if input_csv is None:
        _usage_error("INPUT_CSV is required unless --from-fixture is given")
    from .evaluation import build_feature_table, compare_with_without_car
    from .forest import ForestParams

    records, refined_marks, _report = _read_records(input_csv, parse_refined_transcript_csv)
    if not records:
        _data_error(f"no valid records in {input_csv}")

    banding = (ctx.default_map or {}).get("banding")
    scheme = DEFAULT_BANDING if banding is None else _parse_banding(banding)
    years = _parse_predictor_years(ctx, predictor_years, target_year)
    table = build_feature_table(
        records, refined_marks=refined_marks, predictor_years=years, target_year=target_year, scheme=scheme
    )
    students = len({record.student_id for record in records})
    if len(table.rows) < students:
        needed = ", ".join(str(year) for year in years) + f" or {target_year}"
        left_out = f"{students - len(table.rows)} of {students} students left out"
        click.echo(f"{left_out} for lacking a module in year {needed}", err=True)
    if len(table.rows) < 2:
        _data_error(
            f"only {len(table.rows)} students have complete year coverage; cannot evaluate"
        )
    params = ForestParams(
        tree_count=trees, max_features=max_features, min_leaf=min_leaf, bootstrap=not no_bootstrap
    )
    n_features = len(table.column_names)
    if max_features is not None and max_features > n_features:
        _usage_error(
            f"{_setting_name(ctx, 'max_features')} {max_features} exceeds the feature count {n_features}"
        )
    try:
        result = compare_with_without_car(
            table, params, seed=seed, test_fraction=test_fraction, average=auc_average
        )
    except ValueError as exc:
        # the flags are valid by now: a single-class split, an undefined
        # AUC or a holdout with an empty side depends on the data
        _data_error(str(exc))
    _emit(_comparison_report(result, format), output)


def _render_saved_report(path: str, data: dict, format: str) -> str:
    """Parse an `evaluate` JSON report or a `refine` model file, then
    render it like the command that wrote it; a document that does not
    parse is a usage error."""
    from .evaluation import ComparisonResult
    from .refine import models_from_json, models_to_json

    is_comparison = "with_car" in data and "without_car" in data
    kind = "evaluation" if is_comparison else "model"
    try:
        saved = ComparisonResult.from_json_dict(data) if is_comparison else models_from_json(data)
    except ValueError as exc:
        _usage_error(f"saved {kind} {path} is malformed: {exc}")
    if saved is None:
        _usage_error("unrecognized report JSON; expected an `evaluate --format json` report or a `refine` model file")
    if is_comparison:
        return _comparison_report(saved, format)
    if format == "json":
        return _json_text(models_to_json(saved))
    if format == "csv":
        return _models_csv(saved)
    return _models_text(saved)


@main.command()
@click.argument("input_json", type=click.Path())
@_config_option
@_format_option
@_output_option
def report(input_json: str, format: str, output: str | None) -> None:
    """Re-render an `evaluate --format json` report or a `refine` model
    file (its --model-out) without recomputing anything."""
    data = _read_json_object(input_json, input_json)
    _emit(_render_saved_report(input_json, data, format), output)


if __name__ == "__main__":
    main()
