"""Variable frames: an ordered variable list with a (u | y) split and
exceptional markings (divisor id <-> variable index).  The base point is
always the origin of the frame's coordinates.

The markings are the only record of where a divisor sits: a divisor passes
through the base point exactly when the frame marks it, and the derived
frames below carry the marks along.  None of them adds or removes a
variable: a year has one coordinate system, and the invariant's descent
works in it, moving each consumed contact from u to the end of y.
"""

from __future__ import annotations

from .errors import PreconditionError
from .record import Record


class Frame(Record):
    variables: tuple[str, ...]
    u_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    exceptional: tuple[tuple[str, int], ...]

    def __new__(cls, variables, u_indices, y_indices, exceptional=()):
        n = len(variables)
        if len(set(variables)) != n:
            raise PreconditionError("duplicate variable names")
        split = sorted(u_indices) + sorted(y_indices)
        if sorted(split) != list(range(n)) or len(split) != n:
            raise PreconditionError("u and y must partition the variables")
        seen_vars: set[int] = set()
        seen_ids: set[str] = set()
        for div_id, idx in exceptional:
            if idx < 0 or idx >= n:
                raise PreconditionError(f"exceptional mark {div_id!r} on unknown variable")
            if idx in seen_vars or div_id in seen_ids:
                raise PreconditionError("exceptional markings must be pairwise distinct")
            seen_vars.add(idx)
            seen_ids.add(div_id)
        return super().__new__(cls, variables, u_indices, y_indices, exceptional)

    # -- queries -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PreconditionError(f"undeclared variable {name!r}") from None

    def u_names(self) -> tuple[str, ...]:
        return tuple(self.variables[i] for i in self.u_indices)

    def y_names(self) -> tuple[str, ...]:
        return tuple(self.variables[i] for i in self.y_indices)

    def marked_indices(self) -> frozenset[int]:
        return frozenset(idx for _, idx in self.exceptional)

    def variable_of(self, div_id: str) -> int | None:
        for d, idx in self.exceptional:
            if d == div_id:
                return idx
        return None

    # -- derived frames ----------------------------------------------------

    def move_to_y(self, index: int) -> "Frame":
        if index in self.y_indices:
            return self
        if index not in self.u_indices:
            raise PreconditionError("u and y must partition the variables")
        u = tuple(i for i in self.u_indices if i != index)
        return Frame._make((self.variables, u, (*self.y_indices, index), self.exceptional))

    def move_to_u(self, index: int) -> "Frame":
        if index in self.u_indices:
            return self
        if index not in self.y_indices:
            raise PreconditionError("u and y must partition the variables")
        y = tuple(i for i in self.y_indices if i != index)
        return Frame._make((self.variables, (*self.u_indices, index), y, self.exceptional))

    def with_mark(self, div_id: str, index: int) -> "Frame":
        if index < 0 or index >= self.nvars:
            raise PreconditionError(f"exceptional mark {div_id!r} on unknown variable")
        marks = tuple(m for m in self.exceptional if m[0] != div_id and m[1] != index)
        return Frame._make((self.variables, self.u_indices, self.y_indices, marks + ((div_id, index),)))
