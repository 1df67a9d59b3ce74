"""Every documented ``python -m repro …`` command parses with the real CLI.

Scans the user-facing docs for command lines and feeds each one to
``build_parser().parse_args``, so a renamed or removed flag cannot
linger in the documentation.  Only parsing is checked; nothing runs.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

# The command runs to the end of the line or to a closing backtick.
COMMAND = re.compile(r"python -m repro\b([^`\n]*)")
COMMENT = re.compile(r"\s+#.*$")
PLACEHOLDERS = ("<", "...", "…", "NAME")


def documented_commands():
    found = []
    for path in DOC_FILES:
        if not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            for match in COMMAND.finditer(line):
                args = COMMENT.sub("", match.group(1)).strip()
                if any(mark in args for mark in PLACEHOLDERS):
                    continue
                where = f"{path.relative_to(ROOT)}:{lineno}"
                found.append(pytest.param(args, id=where))
    return found


COMMANDS = documented_commands()


def test_docs_mention_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("args", COMMANDS)
def test_documented_command_parses(args, capsys):
    try:
        build_parser().parse_args(shlex.split(args))
    except SystemExit as exc:
        # ``--help`` exits 0; a parse error exits 2 with the reason.
        assert exc.code == 0, capsys.readouterr().err
