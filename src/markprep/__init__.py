"""Transcript preparation toolkit.

Derives coursework assessment ratios from module weightings, removes the
fitted ratio effect from module marks, and measures how much the ratio
attribute helps a from-scratch random forest predict final degree bands.
Everything downstream of a seed is deterministic.

A public name loads its submodule on first use, so ``import markprep``
by itself loads none of the submodules.
"""
import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_BANDING": "core",
    "DEFAULT_TEST_FRACTION": "core",
    "BandingScheme": "core",
    "DegreeBand": "core",
    "StudentModuleOutcome": "core",
    "render_confusion_text": "core",
    "CAR_COLUMN": "evaluation",
    "ComparisonResult": "evaluation",
    "ConfusionMatrix": "evaluation",
    "EvaluationReport": "evaluation",
    "UndefinedAucError": "evaluation",
    "auc_binary": "evaluation",
    "auc_multiclass": "evaluation",
    "build_feature_table": "evaluation",
    "compare_with_without_car": "evaluation",
    "confusion_matrix": "evaluation",
    "evaluate_forest": "evaluation",
    "render_report_text": "evaluation",
    "FeatureRow": "forest",
    "FeatureTable": "forest",
    "ForestModel": "forest",
    "ForestParams": "forest",
    "SingleClassError": "forest",
    "TreeNode": "forest",
    "gini_impurity": "forest",
    "holdout_split": "forest",
    "proba_matrix": "forest",
    "train_forest": "forest",
    "RECOMBINATION_TOLERANCE": "ingest",
    "REFINED_MARK_COLUMN": "ingest",
    "TRANSCRIPT_COLUMNS": "ingest",
    "IngestReport": "ingest",
    "IssueCategory": "ingest",
    "MissingPolicy": "ingest",
    "Severity": "ingest",
    "TranscriptSchemaError": "ingest",
    "ValidationIssue": "ingest",
    "apply_missing_policy": "ingest",
    "deduplicate": "ingest",
    "parse_refined_transcript_csv": "ingest",
    "parse_transcript_csv": "ingest",
    "write_transcript_csv": "ingest",
    "REFERENCE_LINEAR_COEFFICIENT": "refine",
    "REFERENCE_QUADRATIC_COEFFICIENT": "refine",
    "ModelKind": "refine",
    "RefinementModel": "refine",
    "RefinementResult": "refine",
    "SingularFitError": "refine",
    "choose_model_kind": "refine",
    "fit_polynomial": "refine",
    "reference_model": "refine",
    "refine_mark": "refine",
    "run_refinement_pipeline": "refine",
    "AssessmentMethodClass": "stats",
    "DegenerateSampleError": "stats",
    "GroupSummary": "stats",
    "TTestResult": "stats",
    "TTestVariant": "stats",
    "classify_method": "stats",
    "group_mean_table": "stats",
    "regularized_incomplete_beta": "stats",
    "student_t_cdf": "stats",
    "two_sample_t": "stats",
    "Stream": "streams",
    "normal_deviate": "streams",
    "DEFAULT_WEIGHT_CLASSES": "synthgen",
    "CohortSpec": "synthgen",
    "CohortSpecError": "synthgen",
    "DepartmentProfile": "synthgen",
    "default_cohort_spec": "synthgen",
    "generate_cohort": "synthgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value here,
    so later lookups skip this function (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
