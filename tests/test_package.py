"""Package surface: the public export list."""
from __future__ import annotations

import markprep


def test_all_names_resolve_and_are_sorted() -> None:
    missing = [name for name in markprep.__all__ if not hasattr(markprep, name)]
    assert missing == []
    assert markprep.__all__ == sorted(set(markprep.__all__))
