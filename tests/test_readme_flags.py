"""Every --flag README names must exist on some fairline command's parser.

README names flags in its prose and in its bash blocks, and nobody runs
them, so a deleted or renamed flag would otherwise linger there. The
commands of other tools are left out: a line or a `code span` that starts
with pip or python holds that tool's flags. This is the CLI counterpart of
test_api_uses.py.
"""

import re
from pathlib import Path

from fairline import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
OTHER_TOOL_LINE = re.compile(r"\s*(pip|python)\b")
OTHER_TOOL_SPAN = re.compile(r"`\s*(pip|python)\b[^`]*`")


def _fairline_flags() -> set[str]:
    parser, commands = cli.build_parser()
    return {f"--{name}" for p in (parser, *commands.values()) for name in p.flags}


def _mentions(text: str) -> list[str]:
    """Each --flag text names outside another tool's command, in order; a
    shell line continued with a backslash counts as one line."""
    lines = text.replace("\\\n", " ").splitlines()
    return [flag for line in lines if not OTHER_TOOL_LINE.match(line)
            for flag in FLAG.findall(OTHER_TOOL_SPAN.sub("", line))]


def test_the_scan_sees_prose_and_bash_blocks():
    found = set(_mentions(README))
    assert {"--positive-sensitive", "--test-out", "--jobs"} <= found
    assert "--no-build-isolation" not in found  # pip's, in a bash block
    assert "--label" not in found  # scripts/bench_ingest.py's, in a code span


def test_a_deleted_flag_is_reported():
    text = ("Pin it with `fairline train --fixed-alpha 0.5`, or:\n"
            "```bash\nfairline train --seed 1\n```\n")
    assert [f for f in _mentions(text) if f not in _fairline_flags()] == ["--fixed-alpha"]


def test_every_flag_readme_names_exists():
    flags = _fairline_flags()
    assert sorted({f for f in _mentions(README) if f not in flags}) == []
