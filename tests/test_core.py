"""Domain types: records, ratios, banding."""
from __future__ import annotations

import pickle

import pytest

from markprep import (
    DEFAULT_BANDING,
    BandingScheme,
    DegreeBand,
    StudentModuleOutcome,
)


def make_outcome(
    mark: float = 60.0,
    cswk_weight: int = 50,
    exam_mark: float | None = 58.0,
    cswk_mark: float | None = 62.0,
    year_level: int = 1,
    student_id: str = "S1",
    module_code: str = "M1",
    department: str = "CS",
) -> StudentModuleOutcome:
    return StudentModuleOutcome(
        student_id=student_id,
        department=department,
        year_level=year_level,
        module_code=module_code,
        module_mark=mark,
        exam_mark=exam_mark,
        cswk_mark=cswk_mark,
        cswk_weight=cswk_weight,
    )


def test_band_order_runs_worst_to_best() -> None:
    assert list(DegreeBand) == [
        DegreeBand.FAIL,
        DegreeBand.PASS,
        DegreeBand.THIRD,
        DegreeBand.LOWER_SECOND,
        DegreeBand.UPPER_SECOND,
        DegreeBand.FIRST,
    ]
    assert DegreeBand.FAIL < DegreeBand.PASS < DegreeBand.FIRST


def test_band_labels_round_trip() -> None:
    for band in DegreeBand:
        assert DegreeBand.from_label(band.label) is band
        assert DegreeBand.from_label(band.name) is band
    assert DegreeBand.LOWER_SECOND.label == "Lower second"
    with pytest.raises(ValueError):
        DegreeBand.from_label("Ordinary")


def test_cswk_weight_is_an_integer_percentage() -> None:
    assert make_outcome(cswk_weight=0, cswk_mark=None).cswk_weight == 0
    assert make_outcome(cswk_weight=100, exam_mark=None).cswk_weight == 100
    for weight in (True, 50.0, -10, 110):
        with pytest.raises(ValueError, match="cswk_weight must be an integer in \\[0, 100\\]"):
            make_outcome(cswk_weight=weight)  # type: ignore[arg-type]


def test_outcome_allows_missing_weighted_component_mark() -> None:
    outcome = make_outcome(exam_mark=None)
    assert outcome.missing_component_fields == ("exam_mark",)
    both = make_outcome(exam_mark=None, cswk_mark=None)
    assert both.missing_component_fields == ("exam_mark", "cswk_mark")
    assert make_outcome().missing_component_fields == ()


def test_outcome_forbids_mark_on_zero_weight_component() -> None:
    # a recorded mark for an unweighted component cannot be a real measurement
    make_outcome(cswk_weight=100, exam_mark=None, cswk_mark=61.0)
    with pytest.raises(ValueError):
        make_outcome(cswk_weight=100, exam_mark=55.0, cswk_mark=61.0)
    with pytest.raises(ValueError):
        make_outcome(cswk_weight=0, exam_mark=55.0, cswk_mark=61.0)


def test_outcome_range_checks() -> None:
    with pytest.raises(ValueError):
        make_outcome(mark=100.5)
    with pytest.raises(ValueError):
        make_outcome(exam_mark=-0.1)
    with pytest.raises(ValueError):
        make_outcome(year_level=-1)
    make_outcome(year_level=0)  # preparatory year is legitimate
    # what the parser rejects as an empty cell, or would read back changed
    with pytest.raises(ValueError, match="department must be non-empty"):
        make_outcome(department="")
    for field in ("mark", "exam_mark", "cswk_mark"):
        with pytest.raises(ValueError, match="must lie in"):
            make_outcome(**{field: True})


def test_outcome_is_a_checked_named_tuple() -> None:
    positional = StudentModuleOutcome("S1", "CS", 1, "M1", 60.0, 58.0, 62.0, 50)
    keyword = make_outcome()
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert repr(positional) == repr(keyword) == (
        "StudentModuleOutcome(student_id='S1', department='CS', year_level=1, module_code='M1', "
        "module_mark=60.0, exam_mark=58.0, cswk_mark=62.0, "
        "cswk_weight=50)"
    )
    assert StudentModuleOutcome._fields == (
        "student_id", "department", "year_level", "module_code",
        "module_mark", "exam_mark", "cswk_mark", "cswk_weight",
    )
    assert tuple(positional) == ("S1", "CS", 1, "M1", 60.0, 58.0, 62.0, 50)
    with pytest.raises(AttributeError):
        positional.module_mark = 70.0  # type: ignore[misc]
    with pytest.raises(AttributeError):
        positional.note = "x"  # type: ignore[attr-defined]
    replaced = positional._replace(module_mark=61.0)
    assert type(replaced) is StudentModuleOutcome and replaced.module_mark == 61.0
    # every public way to build a record checks it
    with pytest.raises(ValueError, match="module_mark must lie in"):
        positional._replace(module_mark=101)
    with pytest.raises(ValueError, match="cswk_mark must be absent"):
        positional._replace(cswk_weight=0)
    with pytest.raises(ValueError, match="exam_mark must be absent"):
        positional._replace(cswk_weight=100)
    with pytest.raises(ValueError, match="cswk_weight must be an integer"):
        positional._replace(cswk_weight=101)
    with pytest.raises(ValueError, match="department must be non-empty"):
        StudentModuleOutcome._make(["S1", "", 1, "M1", 60.0, 58.0, 62.0, 50])
    with pytest.raises(ValueError, match="year_level must be an integer"):
        make_outcome(year_level=True)  # type: ignore[arg-type]
    assert pickle.loads(pickle.dumps(positional)) == positional


def test_compute_car_is_coursework_share() -> None:
    # the ratio is the coursework weight over 100, exact at both ends
    assert make_outcome(cswk_weight=30).car == pytest.approx(0.3)
    assert make_outcome(cswk_weight=0, cswk_mark=None).car == 0.0
    assert make_outcome(cswk_weight=100, exam_mark=None).car == 1.0


def test_outcome_car_property() -> None:
    # the coursework weight as a share, a plain float
    assert type(make_outcome(cswk_weight=30).car) is float
    assert make_outcome(cswk_weight=70).car == pytest.approx(0.7)


def test_default_banding_boundaries() -> None:
    cases = [
        (0.0, DegreeBand.FAIL),
        (34.999, DegreeBand.FAIL),
        (35.0, DegreeBand.PASS),
        (39.999, DegreeBand.PASS),
        (40.0, DegreeBand.THIRD),
        (50.0, DegreeBand.LOWER_SECOND),
        (59.999, DegreeBand.LOWER_SECOND),
        (60.0, DegreeBand.UPPER_SECOND),
        (70.0, DegreeBand.FIRST),
        (100.0, DegreeBand.FIRST),
    ]
    for mark, expected in cases:
        assert DEFAULT_BANDING.classify(mark) is expected, mark


def test_classify_rejects_out_of_range_average() -> None:
    with pytest.raises(ValueError):
        DEFAULT_BANDING.classify(-0.001)
    with pytest.raises(ValueError):
        DEFAULT_BANDING.classify(100.001)


def test_banding_scheme_validation() -> None:
    with pytest.raises(ValueError):
        BandingScheme(())
    with pytest.raises(ValueError):
        BandingScheme(((5.0, DegreeBand.FAIL), (40.0, DegreeBand.PASS)))
    with pytest.raises(ValueError):
        BandingScheme(((0.0, DegreeBand.FAIL), (40.0, DegreeBand.PASS), (40.0, DegreeBand.THIRD)))
    with pytest.raises(ValueError):
        BandingScheme(((0.0, DegreeBand.FAIL), (101.0, DegreeBand.PASS)))
    with pytest.raises(ValueError):
        # higher marks must never map to a worse band
        BandingScheme(((0.0, DegreeBand.PASS), (40.0, DegreeBand.FAIL)))
    with pytest.raises(ValueError, match="finite"):
        # a NaN bound passes every comparison with its neighbours
        BandingScheme(((0.0, DegreeBand.FAIL), (float("nan"), DegreeBand.FIRST)))


def test_custom_scheme_single_band() -> None:
    scheme = BandingScheme(((0.0, DegreeBand.PASS),))
    assert scheme.classify(0.0) is DegreeBand.PASS
    assert scheme.classify(100.0) is DegreeBand.PASS
