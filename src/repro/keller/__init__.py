"""Keller's relational-view update framework: the paper's baseline.

Flat select-project-join views, the five validity criteria, candidate
enumeration, and a configured flat translator — the approach the
view-object algorithms of Section 5 extend.
"""

from repro.keller.criteria import satisfies_all
from repro.keller.enumeration import (
    contributing_rows,
    enumerate_deletions,
    valid_translations,
)
from repro.keller.translator import KellerTranslator
from repro.keller.views import JoinEdge, RelationalView

__all__ = [
    "RelationalView",
    "JoinEdge",
    "KellerTranslator",
    "contributing_rows",
    "enumerate_deletions",
    "valid_translations",
    "satisfies_all",
]
