"""Immutable records: the package's value classes, as named tuples.

A record class lists its fields as annotations, with optional trailing
defaults, as a frozen dataclass would::

    class Entry(Record):
        nu: Fraction
        s: int = 0

A class that checks or normalizes its fields does so in ``__new__``, which
takes the fields (with their defaults) and ends in ``super().__new__``.
A record behaves as a frozen dataclass: the constructor takes the fields
positionally or by keyword, the repr is ``Entry(nu=..., s=...)``, any
assignment raises AttributeError, and a record equals, and hashes like,
only a record of its own type with equal fields, never the bare tuple of
its fields.  Unlike a dataclass it is a tuple: it unpacks, indexes and
copies with changed fields by ``_replace``.  ``_make`` and ``_replace``
skip ``__new__``: use them only on fields built from checked parts, with
any new number in ``poly._coeff``'s normal form.  The public constructors
keep every check.

Why not ``dataclasses``: every command starts a fresh interpreter that
imports ``hironaka.cli``, and ``dataclasses`` was most of that import.  It
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
``@dataclass`` execs code it generates.  With the 22 value classes as
dataclasses, ``python -X importtime`` put ``import hironaka.cli`` at about
42 ms with bytecode cached; as records it is about 12 ms.  A fresh
interpreter that imports ``hironaka.cli`` took 75.0 -> 53.4 ms with
bytecode cached and 104.5 -> 81.2 ms without (medians of 60 and 50
alternating runs; CPython 3.11.7, 2-vCPU Intel Xeon VM).  ``collections``
is loaded at start-up anyway, while ``typing.NamedTuple`` would add the
import of ``typing``.
"""

from collections import namedtuple


class _RecordType(type):
    """Builds each subclass of ``Record`` on a namedtuple of its annotated
    fields, with no instance ``__dict__``."""

    def __new__(mcls, name, bases, ns):
        if bases != (tuple,):  # a record class, not ``Record`` itself
            fields = ns.get("__annotations__", {})
            defaults = [ns.pop(f) for f in fields if f in ns]
            base = namedtuple(name, fields, defaults=defaults, module=ns["__module__"])
            bases = (base, *bases)
        ns["__slots__"] = ()
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # not NotImplemented for a tuple: it would then compare elementwise
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of ``__eq__``, not tuple's
    __hash__ = tuple.__hash__
