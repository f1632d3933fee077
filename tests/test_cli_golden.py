"""Golden digests: the CLI's byte-for-byte determinism contract.

Every digest below is the SHA-256 of one command's stdout or of one file
it writes, for the seed-17, 60-student cohort.  A refactor that should be
output-neutral must leave all of them unchanged; a deliberate output
change updates the digest it moves and says why.
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


def run(*args: str) -> str:
    result = runner.invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result.output


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


def test_cli_outputs_match_golden_digests(tmp_path: Path) -> None:
    with runner.isolated_filesystem(temp_dir=tmp_path):
        outputs = collect_outputs()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_renders_saved_evaluation_like_evaluate(tmp_path: Path, fmt: str) -> None:
    with runner.isolated_filesystem(temp_dir=tmp_path):
        run("generate", "--seed", "17", "--students", "60")
        run("refine", "cohort.csv")
        evaluate = ("evaluate", "cohort.refined.csv", "--trees", "15")
        run(*evaluate, "--format", "json", "--output", "eval.json")
        assert run("report", "eval.json", "--format", fmt) == run(*evaluate, "--format", fmt)
