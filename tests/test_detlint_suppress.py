"""Suppression-comment parsing and enforcement of justifications."""

import repro.analysis.runner  # noqa: F401  (registers the rules)
from repro.analysis import lint_paths
from repro.analysis.suppress import parse_suppressions

PATH = "src/repro/sim/fixture.py"


def lint_source(tmp_path, source, rel="src/repro/sim/fixture.py"):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([target.parent], root=tmp_path)


def test_same_line_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # detlint: disable=DET002 -- DET002: boot banner\n",
    )
    assert report.findings == []
    assert report.suppressed == 1


def test_next_line_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        "import time\n"
        "# detlint: disable-next-line=DET002 -- DET002: boot banner only\n"
        "t = time.time()\n",
    )
    assert report.findings == []
    assert report.suppressed == 1


def test_file_level_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        "# detlint: disable-file=DET002 -- DET002: shim brokers real time\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n",
    )
    assert report.findings == []
    assert report.suppressed == 2


def test_multiple_codes_one_directive(tmp_path):
    report = lint_source(
        tmp_path,
        "import time, os\n"
        "# detlint: disable-next-line=DET002,DET005 -- DET002+DET005: "
        "probe helper\n"
        "x = (time.time(), os.getenv('X'))\n",
    )
    assert report.findings == []
    assert report.suppressed == 2


def test_suppression_without_justification_is_a_finding(tmp_path):
    report = lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # detlint: disable=DET002\n",
    )
    codes = sorted(f.code for f in report.findings)
    # the DET002 finding survives AND the bare directive is flagged
    assert codes == ["DET002", "LINT000"]
    assert any("justification" in f.message for f in report.findings)


def test_justification_must_name_the_suppressed_code(tmp_path):
    """A why-text that does not mention the code is not a justification."""
    report = lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # detlint: disable=DET002 -- boot banner only\n",
    )
    codes = sorted(f.code for f in report.findings)
    assert codes == ["DET002", "LINT000"]
    assert any("must name the rule code" in f.message
               for f in report.findings)


def test_justification_must_name_every_code(tmp_path):
    """Naming one code of a multi-code directive is not enough."""
    report = lint_source(
        tmp_path,
        "import time, os\n"
        "# detlint: disable-next-line=DET002,DET005 -- DET002: probe\n"
        "x = (time.time(), os.getenv('X'))\n",
    )
    lint000 = [f for f in report.findings if f.code == "LINT000"]
    assert len(lint000) == 1
    assert "DET005" in lint000[0].message
    # and neither code is suppressed by the invalid directive
    assert sorted(f.code for f in report.findings
                  if f.code != "LINT000") == ["DET002", "DET005"]


def test_invalid_code_is_a_finding(tmp_path):
    report = lint_source(
        tmp_path,
        "x = 1  # detlint: disable=det-2 -- lowercase is not a code\n",
    )
    assert [f.code for f in report.findings] == ["LINT000"]


def test_malformed_directive_is_a_finding(tmp_path):
    report = lint_source(
        tmp_path,
        "x = 1  # detlint: plz-ignore\n",
    )
    assert [f.code for f in report.findings] == ["LINT000"]


def test_suppressing_a_different_code_does_not_hide_finding(tmp_path):
    report = lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # detlint: disable=DET001 -- DET001: wrong code\n",
    )
    assert [f.code for f in report.findings] == ["DET002"]


def test_unused_suppression_is_noted(tmp_path):
    report = lint_source(
        tmp_path,
        "x = 1  # detlint: disable=DET002 -- DET002: nothing triggers it\n",
    )
    assert report.findings == []
    assert len(report.notes) == 1
    assert "matched no finding" in report.notes[0]


def test_directives_inside_strings_are_ignored():
    source = (
        'DOC = """\n'
        "    x = 1  # detlint: disable=DET002 -- just documentation\n"
        '"""\n'
    )
    sup = parse_suppressions(PATH, source)
    assert not sup.by_line
    assert not sup.file_level
    assert not sup.problems


def test_plain_detlint_mention_in_comment_is_not_a_directive():
    sup = parse_suppressions(PATH, "# this module feeds detlint fixtures\n")
    assert not sup.problems
    assert not sup.by_line


def test_parse_forms_directly():
    source = (
        "# detlint: disable-file=SIM001 -- SIM001: io shim\n"
        "x = 1  # detlint: disable=DET001, DET004 -- DET001/DET004: fixture\n"
        "# detlint: disable-next-line=DET002 -- DET002: banner\n"
        "y = 2\n"
    )
    sup = parse_suppressions(PATH, source)
    assert sup.file_level == {"SIM001": "SIM001: io shim"}
    assert sup.by_line[2] == {"DET001": "DET001/DET004: fixture",
                              "DET004": "DET001/DET004: fixture"}
    assert sup.by_line[4] == {"DET002": "DET002: banner"}
    assert sup.problems == []
