"""The contract of the package's records (``hironaka.record.Record``): each
behaves as a frozen dataclass of its fields would, and each validator
raises the error it always raised."""

import types
from fractions import Fraction

import pytest

import hironaka
from hironaka import cli
from hironaka.coeff import find_maximal_contact, prepare_vertices
from hironaka.cone import HomIdeal, directrix, initial_ideal
from hironaka.errors import PreconditionError
from hironaka.frames import Frame
from hironaka.history import ExcDivisor, ExceptionalData, PairWithHistory
from hironaka.invariant import PipelineState, compute_invariant, invariant_step
from hironaka.pairs import Component, Pair
from hironaka.poly import INF, Polynomial, format_rational, parse_polynomial
from hironaka.record import Record

NAMES = ["x", "y", "z"]


def poly(text):
    return parse_polynomial(text, NAMES)


X = poly("x")


def samples():
    """One record of every record class, most of them from a real run."""
    problem = cli.problem_from_data({
        "variables": NAMES, "u": ["x", "y"], "y": ["z"],
        "exceptional": [{"id": "E1", "d": "1/2", "birth": 0, "variable": "x"}],
        "pair": {"components": [{"b": "2", "gens": ["z^2 + x^3*y^2"]}]},
        "script": {"steps": [{"center": ["x", "y", "z"], "chart": "y"}]}})
    state = problem.state
    trace = hironaka.run_lsb(state, problem.script)
    vector = compute_invariant(trace.final, trace, problem.options)
    pair, frame = state.pair, state.frame
    all_u = Frame(tuple(NAMES), (0, 1, 2), (), frame.exceptional)
    step = invariant_step(PipelineState(pair, all_u, (0,)))  # E1 tracked, on x
    ideal = initial_ideal(pair)
    return [problem, state, frame, pair, pair.components[0], state.exdata,
            state.exdata.entries[0], trace, trace.years[1], trace.years[1].step,
            vector, vector.nu1, vector.entries[0], problem.options,
            find_maximal_contact(pair, all_u), prepare_vertices(pair, frame),
            hironaka.newton_polyhedron(pair, frame), ideal, directrix(ideal), step,
            step.state]


SAMPLES = samples()


def record_classes(cls=Record):
    """The package's record classes, not the ones these tests build."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hironaka."):
            yield sub
            yield from record_classes(sub)


def test_every_record_class_has_a_sample():
    sampled = {type(r) for r in SAMPLES}
    assert sampled == set(record_classes()) and len(SAMPLES) == len(sampled) == 21
    exported = {getattr(hironaka, name) for name in hironaka.__all__}
    assert {Frame, Pair, HomIdeal, hironaka.Options} <= exported & sampled


def test_the_package_exports_names_not_submodules():
    exported = {name: getattr(hironaka, name) for name in hironaka.__all__}
    assert [name for name, value in exported.items() if isinstance(value, types.ModuleType)] == []
    namespace = {}
    exec("from hironaka import *", namespace)
    assert namespace.keys() - {"__builtins__"} == exported.keys()


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_contract(rec):
    cls = type(rec)
    copy = cls(*rec)
    assert copy == rec and not copy != rec and copy is not rec
    assert cls(**rec._asdict()) == rec and rec._replace() == rec
    # never the bare field tuple, from either side
    fields = tuple(rec)
    assert rec != fields and fields != rec and not rec == fields and not fields == rec
    twin = types.new_class(cls.__name__, (Record,), exec_body=lambda ns: ns.update(
        __module__=__name__, __annotations__=dict.fromkeys(rec._fields, "object")))
    assert twin(*rec) != rec and rec != twin(*rec)
    try:
        hash(fields)
    except TypeError:
        pass
    else:
        assert hash(copy) == hash(rec)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(rec, name)!r}" for name in rec._fields) + ")"


def test_the_contact_change_is_neither_compared_nor_hashed():
    contact = next(r for r in SAMPLES if type(r) is hironaka.MaximalContact)
    assert contact._replace(change={0: X}) == contact
    assert contact._replace(contact_index=1) != contact
    # hashable stand-ins for the pair and the frame
    bare = hironaka.MaximalContact("E", "frame", 2, (0, 0, 1))
    assert hash(bare._replace(change={0: X})) == hash(bare)
    assert bare.change == {} and bare.change is not hironaka.MaximalContact(*bare[:-1]).change


def test_defaults_and_normalizations():
    assert Frame(("x",), (0,), ()).exceptional == ()
    assert ExceptionalData().entries == ()
    assert cli.Problem(SAMPLES[1]).options == hironaka.Options() == hironaka.Options(12)
    assert hironaka.Options._field_defaults == {"hs_cutoff": 12}
    comp = Component([poly("x")], Fraction(4, 2))
    assert comp.gens == (poly("x"),) and type(comp.weight) is int
    assert Pair([comp]).components == (comp,)
    assert type(ExcDivisor("E", 1, 0).d) is int
    assert type(ExcDivisor("E", Fraction(4, 2), 0).d) is int


VALIDATORS = [
    (lambda: Component((X,), 0), PreconditionError, "component weight must be positive"),
    (lambda: Component((), 1), PreconditionError, "every component needs at least one"),
    (lambda: Component((Polynomial.zero(3),), 1), PreconditionError, "every component needs"),
    (lambda: Component((X,), 0.5), TypeError, "weight 0.5 is not an int or a Fraction"),
    (lambda: Pair((Component((X,), 1), Component((Polynomial.variable(2, 0),), 1))),
     PreconditionError, "components must share one variable list"),
    (lambda: Frame(("x", "x"), (0,), (1,)), PreconditionError, "duplicate variable names"),
    (lambda: Frame(("x", "y"), (0,), (0,)), PreconditionError, "u and y must partition"),
    (lambda: Frame(("x",), (0,), (), (("E", 1),)), PreconditionError,
     "exceptional mark 'E' on unknown variable"),
    (lambda: Frame(("x", "y"), (0, 1), (), (("E", 0), ("F", 0))), PreconditionError,
     "exceptional markings must be pairwise distinct"),
    (lambda: ExcDivisor("E", -1, 0), PreconditionError, "assigned numbers are nonnegative"),
    (lambda: ExcDivisor("E", 0.1, 0), TypeError, "assigned number 0.1 is not an int or a "),
    (lambda: ExcDivisor("E", True, 0), TypeError, "assigned number True is not an int or a "),
    (lambda: ExceptionalData((ExcDivisor("E", 0, 0), ExcDivisor("E", 1, 0))),
     PreconditionError, "divisor ids must be distinct"),
    (lambda: PairWithHistory(Pair.single([X], 1), Frame(tuple(NAMES), (0, 1, 2), ()),
                             ExceptionalData((ExcDivisor("E", 1, 0),))),
     PreconditionError, "absent divisors carry assigned number 0"),
    (lambda: HomIdeal(3, (Polynomial.zero(3),)), PreconditionError,
     "homogeneous generators must be nonzero"),
    (lambda: HomIdeal(3, (poly("x + y^2"),)), PreconditionError,
     "generators must be homogeneous"),
    (lambda: HomIdeal(1, (parse_polynomial("x^(1/2)", ["x"], fractional_ok=[0]),)),
     PreconditionError, "homogeneous ideals use integer exponents"),
]


@pytest.mark.parametrize("build, error, message", VALIDATORS, ids=lambda v: (
    v if isinstance(v, str) else None))
def test_each_validator_raises_its_error(build, error, message):
    with pytest.raises(error, match="^" + message):
        build()


@pytest.mark.parametrize("q, text", [
    (0, "0"), (Fraction(0), "0"), (-5, "-5"), (Fraction(7, 3), "7/3"),
    (Fraction(-6, 3), "-2"), (INF, "inf"), (True, "1"), (0.5, "1/2")])
def test_format_rational(q, text):
    assert format_rational(q) == text
