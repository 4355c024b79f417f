"""Problem-file ingestion, subcommand dispatch, and rendering as text or
JSON.

One self-describing JSON schema covers problems, traces and reports; exact
rationals always travel as strings like "4/3".  Exit codes: 0 success,
2 precondition failure, 3 parse error, 4 internal assertion.  A number
with more digits than the interpreter converts between int and str is a
parse error where it is read and a precondition failure where a report
would print it.

The subcommands are the keys of ``HANDLERS``: order, poly, newton,
char-poly, delta, d-i, nu, directrix, hs, coeff, blowup, run-lsb and
invariant.  ``run(..., fast=True)`` computes the invariant by
``projected_invariant``, the paper's polyhedral route, as a reference; the
keyword keeps the name the benchmark generator passes.  Options come from
the problem file only:
its ``options`` keys are fields of ``invariant.Options``, nothing else.
Every other object of a problem file has a fixed set of keys too, and an
unknown key is a parse error naming the object.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii

from .coeff import coefficient_pair, delta_invariant, prepare_vertices
from .cone import directrix, hilbert_samuel_truncated, initial_ideal
from .errors import DirectrixNotSpanned, InternalError, PreconditionError, ProblemParseError
from .frames import Frame
from .history import (
    ExcDivisor,
    ExceptionalData,
    PairWithHistory,
    Trace,
    blowup_chart,
    exceptional_nu,
    run_lsb,
)
from .invariant import (
    InvariantVector,
    Options,
    compute_invariant,
    projected_invariant,
)
from .pairs import Component, Pair, pair_order
from .poly import (
    INF,
    _NAME,
    format_polynomial,
    format_rational,
    parse_polynomial,
)
from .polyhedra import OrthantPolyhedron, newton_polyhedron, pair_minima, polyhedron_of_pair
from .record import Record


class Problem(Record):
    state: PairWithHistory
    script: tuple = ()
    options: Options = Options()

    @property
    def frame(self) -> Frame:
        return self.state.frame

    @property
    def pair(self) -> Pair:
        return self.state.pair


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(value, where: str) -> int | Fraction:
    """A JSON integer, or a string of the form [+-]digits[/digits], as an
    int when it is integral and a Fraction otherwise; a digit string never
    makes a Fraction."""
    if type(value) is int:
        return value
    if type(value) is str and _RATIONAL.fullmatch(value):
        try:
            q = Fraction(value) if "/" in value else int(value)
        except (ValueError, ZeroDivisionError):  # too many digits, or n/0
            pass
        else:
            return q.numerator if q.denominator == 1 else q
    raise ProblemParseError(f"{where}: bad rational {value!r}")


_JSON_NOUNS = {int: "integer", bool: "boolean", str: "string", dict: "object", list: "list"}


def _typed(value, kind: type, where: str, item: type | None = None):
    """``value`` unchanged when its type is exactly ``kind`` (a JSON boolean
    is not an integer) and, for a list with ``item`` given, so is the type
    of each of its items; else ProblemParseError naming ``where``."""
    if type(value) is not kind or (item is not None and any(type(v) is not item for v in value)):
        noun = _JSON_NOUNS[kind] if item is None else f"list of {_JSON_NOUNS[item]}s"
        shown = repr(value)
        shown = shown if len(shown) <= 40 else shown[:37] + "..."
        raise ProblemParseError(f"{where}: expected a JSON {noun}, got {shown}")
    return value


def _known(obj: dict, allowed: frozenset, where: str) -> dict:
    """``obj`` unchanged when each of its keys is in ``allowed``; else
    ProblemParseError naming ``where`` and the first unknown key."""
    if not allowed.issuperset(obj):
        raise ProblemParseError(f"{where}: unknown field {min(set(obj) - allowed)!r}")
    return obj


# the keys of each object of a problem file
_PROBLEM_KEYS = frozenset("variables u y exceptional pair script options".split())
_DIVISOR_KEYS = frozenset("id d birth variable".split())
_PAIR_KEYS = frozenset(("components",))
_COMPONENT_KEYS = frozenset(("b", "gens"))
_SCRIPT_KEYS = frozenset(("steps",))
_STEP_KEYS = frozenset(("center", "chart"))


def parse_problem(source) -> Problem:
    """Parse a problem from a path, a file object, or a JSON string."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemParseError(f"cannot read the problem: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal past the digit limit
        raise ProblemParseError(f"problem file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProblemParseError("problem file is nested too deeply") from None
    return problem_from_data(data)


def problem_from_data(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ProblemParseError("problem must be a JSON object")
    _known(data, _PROBLEM_KEYS, "problem")
    if "variables" not in data:
        raise ProblemParseError("missing field 'variables'")
    variables = tuple(_typed(data["variables"], list, "variables", str))
    for name in variables:
        if not _NAME.fullmatch(name):
            raise ProblemParseError(f"variables: no polynomial can use the name {name!r}")
    # every name is one identifier, so this is also the parser's map
    index = {name: i for i, name in enumerate(variables)}
    if len(index) != len(variables):
        raise ProblemParseError("duplicate variable names")

    def look(name, where):
        if name not in index:
            raise ProblemParseError(f"{where}: undeclared variable {name!r}")
        return index[name]

    u_names = data.get("u")
    y_names = _typed(data.get("y", []), list, "y", str)
    if u_names is None:
        u_names = [v for v in variables if v not in set(y_names)]
    _typed(u_names, list, "u", str)
    u_idx = tuple(look(n, "u") for n in u_names)
    y_idx = tuple(look(n, "y") for n in y_names)

    marks = []
    entries = []
    for k, item in enumerate(_typed(data.get("exceptional", []), list, "exceptional", dict)):
        div_id = _typed(item.get("id"), str, f"exceptional {k}: id")
        _known(item, _DIVISOR_KEYS, f"exceptional {div_id}")
        d = _parse_rational(item.get("d", 0), f"exceptional {div_id}: d")
        birth = _typed(item.get("birth", 0), int, f"exceptional {div_id}: birth")
        try:
            entries.append(ExcDivisor(div_id, d, birth))
        except PreconditionError as exc:
            raise ProblemParseError(f"exceptional {div_id}: d: {exc}") from None
        if item.get("variable") is not None:
            var = _typed(item["variable"], str, f"exceptional {div_id}: variable")
            marks.append((div_id, look(var, f"exceptional {div_id}")))
    try:
        frame = Frame(variables, u_idx, y_idx, tuple(marks))
    except PreconditionError as exc:
        raise ProblemParseError(str(exc)) from None

    fractional_ok = frame.marked_indices()
    pair_data = data.get("pair")
    if not isinstance(pair_data, dict) or "components" not in pair_data:
        raise ProblemParseError("missing field 'pair.components'")
    _known(pair_data, _PAIR_KEYS, "pair")
    comps = []
    for k, comp in enumerate(_typed(pair_data["components"], list, "pair.components", dict)):
        _known(comp, _COMPONENT_KEYS, f"component {k}")
        gens_text = _typed(comp.get("gens", []), list, f"component {k}: gens", str)
        if not gens_text:
            raise ProblemParseError(f"component {k}: empty generator list")
        gens = tuple(parse_polynomial(g, variables, fractional_ok, index) for g in gens_text)
        if any(g.is_zero() for g in gens):
            raise ProblemParseError(f"component {k}: zero generator")
        b = _parse_rational(comp.get("b"), f"component {k}: b")
        if b <= 0:
            raise ProblemParseError(f"component {k}: weight must be positive")
        comps.append(Component._make((gens, b)))
    pair = Pair._make((tuple(comps),))

    script = []
    script_data = _known(_typed(data.get("script", {}), dict, "script"), _SCRIPT_KEYS, "script")
    steps = script_data.get("steps", [])
    for k, step in enumerate(_typed(steps, list, "script.steps", dict)):
        _known(step, _STEP_KEYS, f"script step {k}")
        center = _typed(step.get("center", []), list, f"script step {k}: center", str)
        chart = step.get("chart")
        if not center or chart is None:
            raise ProblemParseError(f"script step {k}: needs 'center' and 'chart'")
        _typed(chart, str, f"script step {k}: chart")
        for n in center + [chart]:
            look(n, f"script step {k}")
        script.append((center, chart))

    odata = _typed(data.get("options", {}), dict, "options")
    kinds = {name: type(default) for name, default in Options._field_defaults.items()}
    for key in odata:
        if key not in kinds:
            raise ProblemParseError(f"options: unknown option {key!r}")
    options = Options(**{k: _typed(v, kinds[k], f"option {k!r}") for k, v in odata.items()})
    if options.hs_cutoff < 1:
        raise ProblemParseError("option 'hs_cutoff': must be at least 1")
    try:
        state = PairWithHistory(pair, frame, ExceptionalData(tuple(entries)))
    except PreconditionError as exc:
        raise ProblemParseError(str(exc)) from None
    return Problem(state, tuple(script), options)


# ---------------------------------------------------------------------------
# Reports


def _poly_str(p, frame: Frame) -> str:
    return format_polynomial(p, list(frame.variables))


def _vertices_data(P: OrthantPolyhedron):
    return [[format_rational(c) for c in v] for v in P.vertices]


def _pair_data(pair: Pair, frame: Frame):
    return {
        "components": [
            {
                "gens": [_poly_str(g, frame) for g in comp.gens],
                "b": format_rational(comp.weight),
            }
            for comp in pair.components
        ]
    }


def _frame_data(frame: Frame):
    return {
        "variables": list(frame.variables),
        "u": list(frame.u_names()),
        "y": list(frame.y_names()),
        "exceptional": [
            {"id": d, "variable": frame.variables[i]} for d, i in frame.exceptional
        ],
    }


def _invariant_data(vec: InvariantVector):
    return {
        "nu1": {"dims": list(vec.nu1.dims), "cutoff": vec.nu1.cutoff},
        "s1": vec.s1,
        "entries": [{"nu": format_rational(e.nu), "s": e.s} for e in vec.entries],
        "terminal": None if vec.terminal is None else ("inf" if vec.terminal == INF else "0"),
        "center": None if vec.center is None else list(vec.center),
        "monomial": vec.monomial,
    }


# ---------------------------------------------------------------------------
# Subcommands: handler(problem, chart) -> report without "command"


def _order(problem: Problem, chart):
    pair = problem.pair
    return {
        "pair_order": format_rational(pair_order(pair)),
        "component_orders": [format_rational(c.ideal_order()) for c in pair.components],
    }


def _poly(problem: Problem, chart):
    P = polyhedron_of_pair(problem.pair, problem.frame)
    return {"u": list(problem.frame.u_names()), "vertices": _vertices_data(P)}


def _newton(problem: Problem, chart):
    frame = problem.frame
    P = newton_polyhedron(problem.pair, frame)
    return {
        "coordinates": list(frame.u_names()) + list(frame.y_names()),
        "vertices": _vertices_data(P),
    }


def _char_poly(problem: Problem, chart):
    frame = problem.frame
    res = prepare_vertices(problem.pair, frame)
    return {
        "u": list(frame.u_names()),
        "vertices": _vertices_data(res.polyhedron),
        "prepared": res.prepared,
        "iterations": len(res.translations),
        "pair": _pair_data(res.pair, frame),
    }


def _delta(problem: Problem, chart):
    try:
        value = delta_invariant(problem.pair, problem.frame)
    except DirectrixNotSpanned as exc:
        return {"error": str(exc), "forced_delta": "1"}
    return {"delta": format_rational(value)}


def _d_i(problem: Problem, chart):
    frame = problem.frame
    ds = pair_minima(problem.pair, frame.y_indices, [(i,) for i in frame.u_indices])
    return {"d": {frame.variables[i]: None if d == INF else format_rational(d)
                  for i, d in zip(frame.u_indices, ds)}}


def _nu(problem: Problem, chart):
    state = problem.state
    value = exceptional_nu(state.pair, state.frame, state.exdata)
    return {"nu": format_rational(value)}


def _directrix(problem: Problem, chart):
    basis = directrix(initial_ideal(problem.pair))
    return {"forms": [_poly_str(f, problem.frame) for f in basis.forms], "dim": basis.dim}


def _hs(problem: Problem, chart):
    cutoff = problem.options.hs_cutoff
    dims = hilbert_samuel_truncated(list(problem.pair.all_generators()), cutoff)
    return {"dims": dims, "cutoff": cutoff}


def _coeff(problem: Problem, chart):
    frame = problem.frame
    C = coefficient_pair(problem.pair, frame)
    return {"z": list(frame.y_names()), "pair": _pair_data(C, frame)}


def _blowup(problem: Problem, chart):
    state, frame = problem.state, problem.frame
    if problem.script:
        center_names, chart_name = problem.script[0]
    else:
        center_names = list(frame.variables)
        chart_name = chart
    if chart is not None:
        chart_name = chart
    if chart_name is None:
        raise PreconditionError("blowup needs a chart variable (--chart)")
    report = blowup_chart(
        state, [frame.index_of(n) for n in center_names], frame.index_of(chart_name)
    )
    return {
        "center": center_names,
        "chart": chart_name,
        "delta_center": format_rational(report.delta_center_value),
        "new_divisor": report.new_divisor,
        "d_from_center": format_rational(report.d_from_center),
        "d_from_polyhedron": format_rational(report.d_from_polyhedron),
        "pair": _pair_data(report.state.pair, report.state.frame),
        "frame": _frame_data(report.state.frame),
    }


def _run_lsb(problem: Problem, chart):
    return {"trace": _trace_data(run_lsb(problem.state, problem.script))}


def _invariant(problem: Problem, chart, compute=compute_invariant):
    trace = run_lsb(problem.state, problem.script) if problem.script else None
    subject = trace.final if trace else problem.state
    return {"invariant": _invariant_data(compute(subject, trace, problem.options))}


HANDLERS = {
    "order": _order, "poly": _poly, "newton": _newton, "char-poly": _char_poly,
    "delta": _delta, "d-i": _d_i, "nu": _nu, "directrix": _directrix, "hs": _hs,
    "coeff": _coeff, "blowup": _blowup, "run-lsb": _run_lsb, "invariant": _invariant,
}
COMMANDS = tuple(HANDLERS)


def run(problem: Problem, command: str, chart: str | None = None, fast: bool = False):
    """Execute one subcommand; returns a JSON-ready report dict.  ``fast``
    computes ``invariant`` by ``projected_invariant``."""
    handler = HANDLERS.get(command)
    if handler is None:
        raise PreconditionError(f"unknown command {command!r}")
    if fast and command == "invariant":
        handler = partial(_invariant, compute=projected_invariant)
    return {"command": command, **handler(problem, chart)}


def _trace_data(trace: Trace):
    years = []
    for rec in trace.years:
        frame = rec.state.frame
        placed = {div_id: frame.variables[i] for div_id, i in frame.exceptional}
        entry = {
            "year": rec.year,
            "pair": _pair_data(rec.state.pair, frame),
            "frame": _frame_data(frame),
            "exceptional": [
                {
                    "id": e.divisor_id,
                    "variable": placed.get(e.divisor_id),
                    "d": format_rational(e.d),
                    "birth": e.birth_year,
                }
                for e in rec.state.exdata.entries
            ],
        }
        if rec.step is not None:
            entry["step"] = {
                "center": [frame.variables[i] for i in rec.step.center],
                "chart": frame.variables[rec.step.chart],
                "delta_center": format_rational(rec.step.delta_center_value),
                "d_from_center": format_rational(rec.step.d_from_center),
                "d_from_polyhedron": format_rational(rec.step.d_from_polyhedron),
            }
        years.append(entry)
    return {"years": years}


# ---------------------------------------------------------------------------
# Rendering


def render(report: dict, format: str = "text") -> bytes:
    """The report as text, or as JSON: exactly the bytes of
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, written by
    ``_write_json``.  A JSON report holds dicts with str keys, lists,
    tuples, strs, ints, bools and None only; any other value, such as a
    float or a Fraction, is a TypeError, since an exact report never holds
    one."""
    if format == "json":
        out: list[str] = []
        _write_json(report, out, "\n")
        out.append("\n")
        return "".join(out).encode()
    if format == "text":
        return _render_text(report).encode()
    raise PreconditionError(f"unknown format {format!r}")


def _write_json(value, out: list[str], newline: str) -> None:
    """Append the JSON of ``value`` to ``out``, as ``json.dumps`` lays it
    out with an indent of 2 and sorted keys; ``newline`` is the line break
    and indentation of the line ``value`` starts on."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):  # a key that is no str is a TypeError here
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(repr(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"a JSON report holds no {kind.__name__}: {value!r}")


def _render_text(report: dict, indent: int = 0) -> str:
    lines: list[str] = []

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in value:
                emit(k, value[k], depth + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                emit(f"[{i}]", item, depth + 1)
        else:
            if isinstance(value, list):
                value = " ".join(str(v) for v in value) if value else "(none)"
            lines.append(f"{pad}{key}: {value}")

    for k in report:
        emit(k, report[k], indent)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hironaka",
        description="exact polyhedral invariants of weighted ideals at a point",
    )
    parser.add_argument("problem", help="problem JSON file, or - for stdin")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--chart", default=None)
    args = parser.parse_args(argv)

    try:
        if args.problem == "-":
            problem = parse_problem(sys.stdin)
        else:
            problem = parse_problem(args.problem)
        report = run(problem, args.command, chart=args.chart)
        sys.stdout.buffer.write(render(report, args.format))
        return 0
    except ProblemParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
