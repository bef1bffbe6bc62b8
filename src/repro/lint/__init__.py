"""repro-lint: AST-based static enforcement of the repo's invariants.

The rules codify the contracts the hypothesis suites defend
dynamically -- digest determinism (RL001), atomic tmp+os.replace
commits (RL002), spawn-safe picklability (RL003), memmap copy hygiene
(RL004), explicit SoA dtypes (RL005), and no scalar per-request loops
in batched modules (RL006).  See docs/INVARIANTS.md for the catalogue
and ``python -m repro.lint --list-rules`` for the live rule set.
"""

from __future__ import annotations

import pathlib

from .core import (
    FileContext,
    Insertion,
    LintConfig,
    LintReport,
    Linter,
    PARSE_ERROR,
    Rule,
    SUPPRESSION_DISCIPLINE,
    Suppression,
    Violation,
    apply_fixes,
    iter_python_files,
    report_json,
)
from .rules import default_config, make_rules


def run_paths(
    paths: list[pathlib.Path] | None = None,
    root: pathlib.Path | None = None,
) -> LintReport:
    """Lint ``paths`` (default: ``root``/src + ``root``/tools) with the
    shipped rule set; the programmatic twin of ``python -m repro.lint``
    that the meta-tests use."""
    root = (root or pathlib.Path.cwd()).resolve()
    if paths is None:
        paths = [p for p in (root / "src", root / "tools") if p.exists()]
    linter = Linter(make_rules(), default_config())
    return linter.run(iter_python_files(paths, root))


__all__ = [
    "FileContext",
    "Insertion",
    "LintConfig",
    "LintReport",
    "Linter",
    "PARSE_ERROR",
    "Rule",
    "SUPPRESSION_DISCIPLINE",
    "Suppression",
    "Violation",
    "apply_fixes",
    "default_config",
    "iter_python_files",
    "make_rules",
    "report_json",
    "run_paths",
]
