"""Shared infrastructure used across every Raqlet subsystem.

The :mod:`repro.common` package holds the small building blocks that all
frontends, IRs, analyses and backends rely on:

* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.location` -- source locations and spans for diagnostics.
* :mod:`repro.common.names` -- deterministic fresh-name generation.
* :mod:`repro.common.semantics` -- the one definition of arithmetic,
  comparison and aggregate semantics every in-repo evaluator shares.
* :mod:`repro.common.text` -- small text-formatting helpers for unparsers.
"""

from repro.common.errors import (
    AnalysisError,
    ExecutionError,
    ParseError,
    RaqletError,
    SchemaError,
    TranslationError,
    UnsupportedFeatureError,
)
from repro.common.location import SourceLocation, Span
from repro.common.names import NameGenerator
from repro.common.text import indent_block, sql_quote_string, strip_margin

__all__ = [
    "RaqletError",
    "ParseError",
    "SchemaError",
    "TranslationError",
    "AnalysisError",
    "ExecutionError",
    "UnsupportedFeatureError",
    "SourceLocation",
    "Span",
    "NameGenerator",
    "indent_block",
    "sql_quote_string",
    "strip_margin",
]
