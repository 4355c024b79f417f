"""Every report of every command on every benchmark corpus problem, pinned.

Each problem file is run through ``cli.main`` with every command of
``cli.COMMANDS``, in JSON and in text, ``blowup`` charted at the problem's
first variable.  The exit code, stdout and stderr of all those runs give one
sha256 per problem, kept in ``pinned_reports.json`` next to this file.  A
changed report, message or exit code fails the test and names its problem.

A deliberate report change regenerates the file with

    PYTHONPATH=src python tests/test_pinned_reports.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from hironaka import cli

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "bench" / "corpus"
PINNED = HERE / "pinned_reports.json"


def _run_main(text: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    """``cli.main(argv)`` with the problem on stdin: its exit code, stdout
    and stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdin = io.StringIO(text)
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    try:
        code = cli.main(["-", *argv])
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def problem_digest(text: str) -> str:
    """One sha256 over every command of ``cli.COMMANDS``, in JSON and text,
    on the problem ``text``."""
    first = json.loads(text)["variables"][0]
    digest = hashlib.sha256()
    for command in cli.COMMANDS:
        chart = ["--chart", first] if command == "blowup" else []
        for fmt in ("json", "text"):
            code, out, err = _run_main(text, [command, "--format", fmt, *chart])
            for part in (f"{command} {fmt} {code}".encode(), out, err):
                digest.update(len(part).to_bytes(8, "big"))
                digest.update(part)
    return digest.hexdigest()


def corpus_digests() -> dict[str, str]:
    """``problem_digest`` of every corpus problem, keyed by
    ``<workload>/<id>``."""
    return {f"{path.parent.parent.name}/{path.stem}":
            problem_digest(path.read_text(encoding="utf-8"))
            for path in sorted(CORPUS.glob("*/problems/*.json"))}


def test_every_corpus_report_is_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = corpus_digests()
    assert sorted(got) == sorted(pinned)
    changed = [key for key in pinned if got[key] != pinned[key]]
    assert not changed, f"reports changed on {', '.join(changed)}"


if __name__ == "__main__":
    PINNED.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
