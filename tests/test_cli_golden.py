"""Golden digests: the CLI's byte-for-byte determinism contract.

Every digest below is the SHA-256 of one command's stdout or of one file
it writes, for the seed-17, 60-student cohort (``GOLDEN``) and for a
dirty copy of it that runs every reject path of the readers
(``GOLDEN_DIRTY``).  A refactor that should be output-neutral must leave
all of them unchanged; a deliberate output change updates the digest it
moves and says why.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from markprep.cli import main

runner = CliRunner()

FORMATS = ("text", "json", "csv")

GOLDEN = {
    "cohort.csv": "21adc09d424c695d56995128ccc65c51623d2acf9f35bead7f9131c75cd17ece",
    "cohort.spec.json": "21c2e6b9b41bc7e4c57ae3fc68f6639169c788a342dd3fd04651a912425fd418",
    "evaluate.per_department.csv": "6947b3c4e3ad11b057674576448f83579cd6d3c875ac6e39f2cd4d8606057dbf",
    "evaluate.per_department.json": "147ca79a5fb341c5c42e2700679092c40e32c155cded3746cca1ff9686b7bc33",
    "evaluate.per_department.text": "252d90f9fe3423d664edab829e686e84bbc1f1bd77ca21b682e5d1e65cc27c53",
    "evaluate.pooled.csv": "6947b3c4e3ad11b057674576448f83579cd6d3c875ac6e39f2cd4d8606057dbf",
    "evaluate.pooled.json": "147ca79a5fb341c5c42e2700679092c40e32c155cded3746cca1ff9686b7bc33",
    "evaluate.pooled.text": "252d90f9fe3423d664edab829e686e84bbc1f1bd77ca21b682e5d1e65cc27c53",
    "generate": "7749b720ee24516cd760387e83d9482d1e14ebf36c878b0b1fbc88b0d1be3712",
    "per_department.model.json": "42dcd2cf6997e0bb468520b1c12464d3ec34a3ee868be5e3e0bf9c58d8233d65",
    "per_department.refined.csv": "1386fa77ba3b0f5764c9691cf31cc6d7d11fe4ae6a7b27111909a411531a59fd",
    "pooled.model.json": "3503dd730e9797337e3690faeee9749d05f09cb1e7d4bc377608a808445c872f",
    "pooled.refined.csv": "1386fa77ba3b0f5764c9691cf31cc6d7d11fe4ae6a7b27111909a411531a59fd",
    "refine.per_department.csv": "d20a75d394b3369637295e63647732878e76b15b36d05a6abee2ba1171fb0965",
    "refine.per_department.json": "26ca3f9cb21daa859bedf0b11e382f66e9b876393b76b93d5e161dbed12e9300",
    "refine.per_department.text": "6461550f8e00065c9762a4c4b54439e64fe501748f50481180134a8eae5eaf11",
    "refine.pooled.csv": "5d48af4b5c514242f85c5f181bfd8f3ff29bd1f273060e9f8aeb2a9a06867622",
    "refine.pooled.json": "bc036c78c0266c7bbe4fb972d4d39b7f2fb362521f4a4a50a2ea374049fee140",
    "refine.pooled.text": "468b342427cf267b657fa9a8f87db842b29ff969f65facb7c0a01a5d23b84d1e",
    "stats.csv": "24753983190b51af44ba527454e42b9186b9ea6f375bb4b6ef7f054b629c4b6a",
    "stats.json": "a1d923ccb1d560d2e88b462e467faffca996d9ae6080fefcebb12767307f4be0",
    "stats.text": "0515ab7785645a2dd6409cf00e0921eadefc2f77b619f09991018c98f5d7d55f",
    "validate.csv": "32967663fd4f7854bd247919d524434235d1047d50637dee9d10b84cc0131875",
    "validate.json": "09844823c0d618c282495b6a1a77200ed0b52405b746057b777135c652e3f180",
    "validate.text": "c85ea6a66a0e03bef679281bd03469cc6f198b2a578cfadeea381258e42cbbdc",
}

GOLDEN_DIRTY = {
    "evaluate.csv": "b83fb0c52172a644ba0ca1803d58b5d878b6198edce139f4b1d52ab37c0056ca",
    "evaluate.json": "8f0887280af5bca96cc6745f01276cbfa5f2cc0ea57ddfead2d28501763c4aa0",
    "evaluate.text": "947e7ae625a1220f36905d453287e66b0f21094114b7f34980f58b54f06822b0",
    "per_department.model.json": "1cb1e65fd8d78287007c14d23326d970594d1a26e1bf597c7a1838a70c25a1d5",
    "per_department.refined.csv": "fa6c7c4068ee4b47f2c1813f0c92679e9a13d026dc95c7eda8a0bbf69704e242",
    "pooled.model.json": "1b86cf1cea7c46700b9d3899af0806081858f7dd1b09370ff53f5ae6992f41a9",
    "pooled.refined.csv": "fa6c7c4068ee4b47f2c1813f0c92679e9a13d026dc95c7eda8a0bbf69704e242",
    "refine.per_department.csv": "76dacd2d485276deff60d266c310f4108aab090c523f25954a5ac86db710ed9b",
    "refine.per_department.json": "096d485b71dd2b2427f2491716608b134c2f74176af9c51e65610a35a0f7d3b0",
    "refine.per_department.text": "0bf4a7d979d96f49c69aef5bdb14bc6a1f5409931d0113ffceaa518f911e889e",
    "refine.pooled.csv": "a227a4bec901cb3eeefd4a7ce7ec28d2be8219ef4ffc5294ffee7efa78d15d3f",
    "refine.pooled.json": "9795a7f96891ed2f90cf2a6645377625d55ce5a296e00e8d95e1eeac46f2ac42",
    "refine.pooled.text": "d0833a07b5044e44ca0628e293884976ae66182d1d6a6f019b9f3b9d211ac1fd",
    "stats.csv": "a3c307d3a81cb02a2dec7e753fa5972c2a5df85d96e310f362ce857d72858170",
    "stats.json": "adca84684f966fff43a98f91ae583be77619f98a5cd79be1e2a2b2c4faef32da",
    "stats.text": "8327cc7642197b9da1f593ec3c7b3e7e500cc9618602d28a47a19eaaea7b1d55",
    # the deduplicate and missing_policy stages name CSV data rows, not
    # positions among the rows the parse accepted
    "validate.csv": "6d2b03f379a08912908cf5fc030272cbe374f1660909cb27e76587b9cec881aa",
    "validate.json": "efb64c1878929fe7142e3bd9d1fbc2dbed394b96d7b347709e0709a1c3cf12a4",
    "validate.text": "0f72e7a4080c7d2243c1531d5d5d792a54421fc92557390d4742a081105869f7",
}


def run(*args: str, expect: int = 0) -> str:
    result = runner.invoke(main, list(args))
    assert result.exit_code == expect, result.output
    return result.stdout


def collect_outputs() -> dict[str, bytes]:
    """Run the round trip in the current directory; name -> output bytes."""
    outputs = {"generate": run("generate", "--seed", "17", "--students", "60").encode()}
    outputs["cohort.csv"] = Path("cohort.csv").read_bytes()
    outputs["cohort.spec.json"] = Path("cohort.spec.json").read_bytes()
    for fmt in FORMATS:
        outputs[f"validate.{fmt}"] = run("validate", "cohort.csv", "--format", fmt).encode()
        outputs[f"stats.{fmt}"] = run("stats", "cohort.csv", "--format", fmt).encode()
    for scope, flags in (("pooled", ()), ("per_department", ("--per-department",))):
        refined, model = f"{scope}.refined.csv", f"{scope}.model.json"
        for fmt in FORMATS:
            outputs[f"refine.{scope}.{fmt}"] = run(
                "refine", "cohort.csv", *flags, "--format", fmt,
                "--out", refined, "--model-out", model,
            ).encode()
        outputs[refined] = Path(refined).read_bytes()
        outputs[model] = Path(model).read_bytes()
        for fmt in FORMATS:
            outputs[f"evaluate.{scope}.{fmt}"] = run(
                "evaluate", refined, "--trees", "15", "--format", fmt
            ).encode()
    return outputs


def write_dirty_copy(cohort: Path) -> None:
    """``dirty.csv`` beside the cohort: the cohort with an out-of-range
    mark, an exact and a conflicting duplicate, a blank weighted component
    and a short row."""
    header, *lines = cohort.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[4][4] = "150"  # module_mark
    blank = next(i for i, row in enumerate(rows) if i >= 30 and "" not in row)
    rows[blank][5] = ""  # exam_mark, weighted since no cell was blank
    rows[40] = rows[40][:8]
    rows += [rows[10], [*rows[20][:4], "1.5", *rows[20][5:]]]
    cohort.with_name("dirty.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")


def collect_dirty_outputs() -> dict[str, bytes]:
    """The read paths on ``dirty.csv``; ``dirty.refined.csv`` also carries a
    non-numeric refined mark."""
    run("generate", "--seed", "17", "--students", "60")
    write_dirty_copy(Path("cohort.csv"))
    outputs = {}
    for fmt in FORMATS:
        outputs[f"validate.{fmt}"] = run("validate", "dirty.csv", "--format", fmt, expect=1).encode()
        outputs[f"stats.{fmt}"] = run("stats", "dirty.csv", "--format", fmt).encode()
    for scope, flags in (("pooled", ()), ("per_department", ("--per-department",))):
        refined, model = f"{scope}.refined.csv", f"{scope}.model.json"
        for fmt in FORMATS:
            outputs[f"refine.{scope}.{fmt}"] = run(
                "refine", "dirty.csv", *flags, "--format", fmt,
                "--out", refined, "--model-out", model,
            ).encode()
        outputs[refined] = Path(refined).read_bytes()
        outputs[model] = Path(model).read_bytes()
    header, *lines = Path("pooled.refined.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[7][-1] = "n/a"  # refined_module_mark
    Path("dirty.refined.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    for fmt in FORMATS:
        outputs[f"evaluate.{fmt}"] = run(
            "evaluate", "dirty.refined.csv", "--trees", "15", "--format", fmt
        ).encode()
    return outputs


def test_cli_outputs_match_golden_digests(tmp_path: Path) -> None:
    with runner.isolated_filesystem(temp_dir=tmp_path):
        outputs = collect_outputs()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN


def test_dirty_cli_outputs_match_golden_digests(tmp_path: Path) -> None:
    with runner.isolated_filesystem(temp_dir=tmp_path):
        outputs = collect_dirty_outputs()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_DIRTY


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_renders_saved_evaluation_like_evaluate(tmp_path: Path, fmt: str) -> None:
    with runner.isolated_filesystem(temp_dir=tmp_path):
        run("generate", "--seed", "17", "--students", "60")
        run("refine", "cohort.csv")
        evaluate = ("evaluate", "cohort.refined.csv", "--trees", "15")
        run(*evaluate, "--format", "json", "--output", "eval.json")
        assert run("report", "eval.json", "--format", fmt) == run(*evaluate, "--format", fmt)


def collect_row_order_outputs(dirty: bool, shuffle: bool) -> dict[str, bytes]:
    """The seed-3, 406-student round trip on ``in.csv``, dirty or clean,
    with its data rows shuffled or as generated.  The refined CSV keeps the
    input's row order, so its lines are compared sorted."""
    run("generate", "--seed", "3", "--students", "406")
    if dirty:
        write_dirty_copy(Path("cohort.csv"))
    header, *lines = Path("dirty.csv" if dirty else "cohort.csv").read_text().splitlines()
    if shuffle:
        random.Random(3).shuffle(lines)
    Path("in.csv").write_text("\n".join([header, *lines]) + "\n")
    outputs = {}
    if not dirty:  # a dirty file's issues name their rows
        outputs["validate"] = run("validate", "in.csv", "--format", "json").encode()
    outputs["stats"] = run("stats", "in.csv", "--format", "json").encode()
    outputs["refine"] = run("refine", "in.csv", "--format", "json").encode()
    outputs["in.model.json"] = Path("in.model.json").read_bytes()
    outputs["in.refined.csv"] = b"\n".join(sorted(Path("in.refined.csv").read_bytes().splitlines()))
    outputs["evaluate"] = run("evaluate", "in.refined.csv", "--format", "json").encode()
    return outputs


@pytest.mark.parametrize("variant", ["clean", "dirty"])
def test_outputs_do_not_depend_on_the_row_order(tmp_path: Path, variant: str) -> None:
    runs = []
    for shuffle in (False, True):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            runs.append(collect_row_order_outputs(variant == "dirty", shuffle))
    assert runs[0] == runs[1]
