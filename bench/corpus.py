"""Workload table, corpus files, and how one CLI invocation is made and judged.

Shared by the generator (``gen_corpus.py``) and the runner (``run.py``).
The corpus of a workload lives in ``corpus/<workload>/``:

- ``problems/<id>.json``: problem files, as the ``hironaka`` CLI reads them;
- ``expected.json``: one entry per (problem, command) with the expected
  outcome, ``ok`` with its report, ``reject`` (exit 2) or ``error`` (a
  known bug: InternalError or another exception at generation time);
- ``manifest.json``: generator seed and settings, candidates tried, and how
  many were excluded and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS_DIR = BENCH_DIR / "corpus"

# seed: generator seed; size: problems in the corpus.  Sizes keep one pass
# near or within a 25 s run on a 2-vCPU VM (lsb-hypersurface 7-12 s,
# pairs-local 1-2 s, contact-reject 14-27 s, depending on host load).
WORKLOADS = {
    "lsb-hypersurface": {
        "seed": 1101,
        "size": 12,
        "commands": ("run-lsb", "hs", "invariant"),
    },
    "pairs-local": {
        "seed": 2202,
        "size": 60,
        "commands": ("directrix", "char-poly", "hs", "invariant"),
    },
    "contact-reject": {
        "seed": 3303,
        "size": 10,
        "commands": ("invariant",),
    },
}


def import_cli():
    """Import ``hironaka.cli`` from the checkout's ``src/``, never from
    anywhere else on the path."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "hironaka").is_dir():
        raise ImportError(f"no hironaka package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    from hironaka import cli

    return cli


def invoke(cli, text: str, command: str) -> bytes:
    """One CLI invocation: parse -> run -> render as JSON."""
    return cli.render(cli.run(cli.parse_problem(text), command), "json")


def attempt(call, *args):
    """Run one invocation ``call(*args)`` and classify it as ("ok", report
    bytes), ("reject", message) for a PreconditionError, or ("error",
    message)."""
    from hironaka.errors import PreconditionError

    try:
        out = call(*args)
    except PreconditionError as exc:
        return "reject", str(exc)
    except Exception as exc:  # InternalError, AssertionError, any other bug
        return "error", f"{type(exc).__name__}: {exc}"
    return "ok", out


def judge(expect: dict, status: str, payload) -> tuple[str, bool]:
    """Verdict of one invocation against its expected entry.

    Returns (verdict, consistent).  The verdict is ``ok``, ``reject``,
    ``fail`` or ``unchecked`` (an answer where none was recorded, so only
    its recorded Hilbert-Samuel part can be checked).  ``consistent`` is
    false when the outcome contradicts a checkable expectation: a wrong
    report, a lost answer, a rejection for another reason than the recorded
    one, or a rejection turned into an error.  A known bug (expected
    ``error``) may end any way.
    """
    kind = expect["expect"]
    if status == "error":
        return "fail", kind == "error"
    if status == "reject":
        if kind == "reject":
            return ("reject", True) if payload == expect["message"] else ("fail", False)
        return ("fail", False) if kind == "ok" else ("unchecked", True)
    report = json.loads(payload)
    if kind == "ok":
        if report == expect["report"]:
            return "ok", True
        return "fail", False
    dims = expect.get("nu1_dims")
    if dims is not None and report.get("invariant", {}).get("nu1", {}).get("dims") != dims:
        return "fail", False
    return "unchecked", True


def workload_dir(name: str) -> Path:
    return CORPUS_DIR / name


def load(name: str) -> list[dict]:
    """The invocations of a workload: problem text, command, expectation."""
    base = workload_dir(name)
    expected = json.loads((base / "expected.json").read_text(encoding="utf-8"))
    texts: dict[str, str] = {}
    items = []
    for entry in expected:
        pid = entry["problem"]
        if pid not in texts:
            texts[pid] = (base / "problems" / f"{pid}.json").read_text(encoding="utf-8")
        items.append({"text": texts[pid], "command": entry["command"], "expect": entry})
    if not items:
        raise ValueError(f"workload {name!r} has an empty corpus")
    return items


def dump_json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
