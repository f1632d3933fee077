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
from pathlib import Path

import pytest
from click.testing import CliRunner

from markprep.cli import main

runner = CliRunner()

FORMATS = ("text", "json", "csv")

GOLDEN = {
    "cohort.csv": "7a66c7b360d2816b539290cd9c17baf10df6ff2ef3366557dd6b60b82e24f274",
    "cohort.spec.json": "21c2e6b9b41bc7e4c57ae3fc68f6639169c788a342dd3fd04651a912425fd418",
    "evaluate.per_department.csv": "137516ed82070cc78d564fca06217d5e898bdf7dce1c35fbc01b9bbef5575c3e",
    "evaluate.per_department.json": "440621f7441123ac68a5f70019d208b7e768a95657ada07fdeb6f47b1effe324",
    "evaluate.per_department.text": "3eef88e234316cd0e182c86c2781cc1de022551756768a5a8b06194d23432140",
    "evaluate.pooled.csv": "137516ed82070cc78d564fca06217d5e898bdf7dce1c35fbc01b9bbef5575c3e",
    "evaluate.pooled.json": "440621f7441123ac68a5f70019d208b7e768a95657ada07fdeb6f47b1effe324",
    "evaluate.pooled.text": "3eef88e234316cd0e182c86c2781cc1de022551756768a5a8b06194d23432140",
    "generate": "7749b720ee24516cd760387e83d9482d1e14ebf36c878b0b1fbc88b0d1be3712",
    "per_department.model.json": "979c3b0c33c57f0df48f76a423440580c05d196fb930bbb3c1b1521ca72f96ea",
    "per_department.refined.csv": "343c7b966cc75522419dc0a2b4312edef8e2730da74623563cb93db3c8d32a32",
    "pooled.model.json": "974ca9b0f6cdca765552628af43c37a22e648722865223ad92ec5ad927557e20",
    "pooled.refined.csv": "343c7b966cc75522419dc0a2b4312edef8e2730da74623563cb93db3c8d32a32",
    "refine.per_department.csv": "df8cf06f9b69fc27337ce13e2e1689de5974a9a4691792fcd2e84af2c26d380a",
    "refine.per_department.json": "1d713f1799245e52fe28b4f048ab0ef9bb7358f4615c8a1f7b8a5d341785533c",
    "refine.per_department.text": "ad935816ee58ea5c66cdddaa3fe021bdb88009000b676212fd5d786c1e89929f",
    "refine.pooled.csv": "08a13f8fc6ba2a3914648310fd091025c40263baa45f6b413014578927e2dd6b",
    "refine.pooled.json": "5df25fc0c310624c538e5df5de32cbad5198af2db8d4b023cab748cd8464148b",
    "refine.pooled.text": "5bf0bd455f765f926298384e7f0ea13d40ef35b083c5a323b178228c616aec94",
    "stats.csv": "273522b14d0b86b3cb781c355306f08e92366d3c478b53478868c449d57c541e",
    "stats.json": "9b3411dc272af1e9a44d92884d5b5304734a3a4768d0fa5eb37a34a27c65d532",
    "stats.text": "12feb50848392366632a025808638a6aa549c58a26d74a3838775318fb9ef26c",
    "validate.csv": "32967663fd4f7854bd247919d524434235d1047d50637dee9d10b84cc0131875",
    "validate.json": "09844823c0d618c282495b6a1a77200ed0b52405b746057b777135c652e3f180",
    "validate.text": "c85ea6a66a0e03bef679281bd03469cc6f198b2a578cfadeea381258e42cbbdc",
}

GOLDEN_DIRTY = {
    "evaluate.csv": "62b3e2f7eeee9aba2f8492fdf3ba0a89093eaffc8b8bba267fb4596d9cc9acc7",
    "evaluate.json": "38f6c0c8004ef697a789410b2996d1949516b2e7d5140317a80f4b1eb428508f",
    "evaluate.text": "308b21124509e7699a3c5e067373f9c2a8c40c6e90d4633749d90ae18fd925c8",
    "per_department.model.json": "bbc88a44dc5654592abfe47d4c5f63c059c7cd2a7c36b076df819c0ef1993045",
    "per_department.refined.csv": "b0162794478e7d44a4091fbd12b1a2c996f179e8486665528d42fb171be65a35",
    "pooled.model.json": "b4fab20e51c361584aaa0b2c248c7b3b7a9e5418914c93ecdb57879004eef71d",
    "pooled.refined.csv": "b0162794478e7d44a4091fbd12b1a2c996f179e8486665528d42fb171be65a35",
    "refine.per_department.csv": "225023df8def5e757869c27b8c8b749f47f109edc42d364aa174b84d814f12a4",
    "refine.per_department.json": "a6e1c173556975a7b04839b84e0103b75823f42086b335c859b56c9c8c4d5629",
    "refine.per_department.text": "8b657072f60cee9331203a364b2926fb13a338728a0bf46e5357cd031cc3ef3b",
    "refine.pooled.csv": "f53658b9cceac4e1ecf91f9006f68d304fe8653332d21565719acfaad476c417",
    "refine.pooled.json": "ac80a69d0845363af4fa8ea159ee4c7c402b6e8e34931f7ffa2e4915d9ffaaea",
    "refine.pooled.text": "c4235d117a2be64300983dd2a08d2549981cc7d996232792565ec02312c4b048",
    "stats.csv": "5b8005a4d1b2fa4f45a45326201b5f11a9168107f518e2c0e64a3374a5d55d76",
    "stats.json": "b05c8dd1ddb071e22e59d4a82f2b2c2915d81f39dcf46b722ca5620386ea5eca",
    "stats.text": "66fde8c835c7017f62836fbdde42fa7dacfa9b490757878346c35f243bb64318",
    # the deduplicate and missing_policy stages name CSV data rows, not
    # positions among the rows the parse accepted
    "validate.csv": "04ed1b20b937d5ead4cb409d4b71c2f4bbff256824cd539e819754b16283523a",
    "validate.json": "8e78cc9f1722a589c5d8cb4261ea1656d2e4b93e1829bdb1153667ce24c67d78",
    "validate.text": "e5e51a4eb2b7f52f85f62f0936b85d1ddd5aceca38e0e3cd0b794df2ac0aff92",
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
    """``dirty.csv``: the cohort with an out-of-range mark, an exact and a
    conflicting duplicate, a blank weighted component and a short row."""
    header, *lines = cohort.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[4][4] = "150"  # module_mark
    blank = next(i for i, row in enumerate(rows) if i >= 30 and "" not in row)
    rows[blank][5] = ""  # exam_mark, weighted since no cell was blank
    rows[40] = rows[40][:8]
    rows += [rows[10], [*rows[20][:4], "1.5", *rows[20][5:]]]
    Path("dirty.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")


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
