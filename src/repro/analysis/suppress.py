"""Suppression comments: ``# detlint: disable=CODE -- justification``.

Suppressing a determinism finding is an engineering decision, so the
justification text is *mandatory* and must *name every code it covers*:
a suppression without a justification — or whose justification does not
mention the suppressed code — does not suppress anything and instead
produces a ``LINT000`` finding of its own.

Forms::

    x = time.time()  # detlint: disable=DET002 -- DET002: user-facing clock
    # detlint: disable-next-line=DET003,DET004 -- DET003+DET004: seeded fixture
    # detlint: disable-file=SIM001 -- SIM001: this whole module is an I/O shim

``disable`` applies to its own line, ``disable-next-line`` to the line
below, ``disable-file`` to the entire file.  Codes are comma-separated.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Finding

#: the pseudo-rule code for malformed/unjustified suppressions
LINT000 = "LINT000"

_COMMENT_RE = re.compile(
    r"#\s*detlint:\s*(?P<kind>disable(?:-next-line|-file)?)"
    r"\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)
_CODE_RE = re.compile(r"^[A-Z]+[0-9]+$")


@dataclass
class Suppressions:
    """Parsed suppression directives for one file."""

    path: str
    #: file-wide: code -> justification
    file_level: Dict[str, str] = field(default_factory=dict)
    #: per line number: code -> justification
    by_line: Dict[int, Dict[str, str]] = field(default_factory=dict)
    #: malformed directives, reported as findings
    problems: List[Finding] = field(default_factory=list)
    #: (line, code) pairs that matched at least one finding
    used: Set[object] = field(default_factory=set)

    def matches(self, finding: Finding) -> bool:
        """Whether ``finding`` is suppressed (and mark the directive used)."""
        why = self.by_line.get(finding.line, {})
        if finding.code in why:
            self.used.add((finding.line, finding.code))
            return True
        if finding.code in self.file_level:
            self.used.add(("file", finding.code))
            return True
        return False

    def unused(self) -> List[str]:
        """Directives that suppressed nothing (candidates for removal)."""
        out = []
        for code in sorted(self.file_level):
            if ("file", code) not in self.used:
                out.append(f"{self.path}: file-level suppression of {code} "
                           f"matched no finding")
        for line in sorted(self.by_line):
            for code in sorted(self.by_line[line]):
                if (line, code) not in self.used:
                    out.append(f"{self.path}:{line}: suppression of {code} "
                               f"matched no finding")
        return out


def _problem(path: str, lineno: int, text: str, message: str) -> Finding:
    return Finding(code=LINT000, severity="error", path=path, line=lineno,
                   col=0, message=message, line_text=text)


def _comments(source: str) -> Iterator[Tuple[int, str]]:
    """(lineno, comment_text) for every real comment token in ``source``.

    Tokenizing (rather than scanning lines) keeps directive examples inside
    docstrings and other string literals from being parsed as directives.
    """
    readline = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        # The AST layer reports unparsable files; nothing to do here.
        return


def parse_suppressions(path: str, source: str) -> Suppressions:
    """Scan ``source`` for detlint directives (in real comments only)."""
    sup = Suppressions(path=path)
    for lineno, text in _comments(source):
        if "detlint:" not in text:
            continue
        match = _COMMENT_RE.search(text)
        if match is None:
            sup.problems.append(_problem(
                path, lineno, text,
                "malformed detlint directive (expected "
                "'# detlint: disable=CODE -- justification')"))
            continue
        why = (match.group("why") or "").strip()
        codes = [c.strip() for c in match.group("codes").split(",") if c.strip()]
        bad = [c for c in codes if not _CODE_RE.match(c)]
        if bad or not codes:
            sup.problems.append(_problem(
                path, lineno, text,
                f"invalid rule code(s) in suppression: {', '.join(bad) or '(none)'}"))
            continue
        if not why:
            sup.problems.append(_problem(
                path, lineno, text,
                "suppression requires a justification: append "
                "'-- <why this is safe>'"))
            continue
        # The justification must name what it is justifying: a directive
        # like "-- legacy" says nothing a reviewer can audit, and when
        # codes are added to an existing directive the old justification
        # silently covers the new code too.
        unnamed = sorted(c for c in codes if c not in why)
        if unnamed:
            sup.problems.append(_problem(
                path, lineno, text,
                f"suppression justification must name the rule code(s) it "
                f"covers (missing: {', '.join(unnamed)}); write e.g. "
                f"'-- {unnamed[0]}: <why this is safe>'"))
            continue
        kind = match.group("kind")
        if kind == "disable-file":
            for code in codes:
                sup.file_level[code] = why
        else:
            target = lineno + 1 if kind == "disable-next-line" else lineno
            slot = sup.by_line.setdefault(target, {})
            for code in codes:
                slot[code] = why
    return sup
