"""Lex-leader symmetry breaking for the finite-model search.

A renaming of a sort's carrier elements maps the models of a formula
set to models when nothing in the formulas can tell the elements apart:
quantifiers range over the whole carrier, `=` compares values, and
tables are read at whatever keys the values make.  An ordering
comparison (`<`, `<=`, ...) can tell them apart, and so can the order in
which a formula that may raise meets its error; so can a sort whose
carrier is fixed, as rule names are.  Every other sort's renamings are
symmetries, and of each orbit of models the search need only keep its
least member in search order (Crawford, Ginsberg, Luks & Roy, KR 1996).

The generators are the adjacent transpositions of each such sort's
elements.  A generator σ maps each search position (a symbol and one of
its cells) to the cell with the two elements swapped, and a value of the
sort to the other element.  The search compares the partial model A with
σ(A), position by position in search order, and prunes once the cells
set so far decide σ(A) < A.  Position p of σ(A) holds σ of A's value at
σ(p), so it is known once both p and σ(p) are set.  A position whose
image comes before it is skipped: the two agree once the image's own
comparison found them equal.  The first model a search in declared
order finds is the least of all models, so it is the least of its
orbit, and no generator prunes it.  The rows that compare a position are
built when the search first reaches it, so a search that stops early
builds none for the positions beyond.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, Sequence

from .syntax import ClassT, LType, uncurry

# The comparison of a generator is decided: A < σ(A).
_DONE = sys.maxsize


def lex_leader_checks(
    free: Sequence[tuple[str, tuple, tuple]],
    tables: dict[str, dict],
    types: dict[str, LType],
    carriers: dict[str, tuple[str, ...]],
    compared: Iterable[Optional[frozenset]],
) -> Optional[LexLeader]:
    """The lex-leader checks of a search over `free`, its free symbols in
    search order as (name, cells, values), or None if no sort may be
    renamed.  `tables` and `types` give each free symbol's table and
    declared type, `carriers` the sorts that may be renamed, and
    `compared` the values each ordering comparison may read (None if not
    known), so that a sort whose elements one may read is left alone."""
    sorts = dict(carriers)
    for values in compared:
        if values is None:
            return None
        sorts = {s: es for s, es in sorts.items() if values.isdisjoint(es)}
        if not sorts:
            return None
    return LexLeader(free, tables, types, sorts)


class LexLeader:
    """The lex-leader checks of one search, built as the search first
    reaches each search position.  `next` is the next position that a
    renaming may map elsewhere, -1 after the last: when the search first
    gets there, `reach(next)` builds its rows and returns the check to
    ask after each assignment there (None if none is due there), and
    moves `next` on.  A check returns True to prune."""

    def __init__(
        self,
        free: Sequence[tuple[str, tuple, tuple]],
        tables: dict[str, dict],
        types: dict[str, LType],
        sorts: dict[str, tuple[str, ...]],
    ) -> None:
        # Each generator's rows, in search order of the positions they
        # compare, and the trail of where its comparison stands after
        # each position it is asked at: the check at a position reads
        # the slot of the one asked before it (`_read`), so backtracking
        # restores it.
        size = sum(len(cells) for _, cells, _ in free)
        self._generators = [
            (sort, {a: b, b: a}, [], [0] * (size + 1))
            for sort, elements in sorts.items()
            for a, b in zip(elements, elements[1:])
        ]
        self._read = [0] * len(self._generators)
        # (first position, cells, values, table, argument sorts,
        # codomain sort) of each free symbol that reads or returns an
        # element of a renamed sort, last in search order first
        self._symbols = []
        first = 0
        for name, cells, values in free:
            args, cod = uncurry(types[name])
            arg_sorts = tuple(t.name if type(t) is ClassT else None for t in args)
            cod_sort = cod.name if type(cod) is ClassT else None
            if cod_sort in sorts or not sorts.keys().isdisjoint(arg_sorts):
                self._symbols.append((first, cells, values, tables[name], arg_sorts, cod_sort))
            first += len(cells)
        self._symbols.reverse()
        self.next = self._symbols[-1][0] if self._symbols else -1
        # what `reach` reads of the symbol it is in, made at its first cell
        self._symbol: tuple = ({}, {}, [])

    def reach(self, depth: int) -> Optional[Callable[[], bool]]:
        """Add the rows of position `depth`, which is `next`, to each
        generator that maps it, move `next` on, and return the check due
        after its assignment: it goes on with the comparison of each
        generator that reaches position `depth` there."""
        first, cells, values, table, arg_sorts, cod_sort = self._symbols[-1]
        i = depth - first
        if i == 0:
            # the symbol's cell and value ranks, and each generator that
            # maps it, with the image of the value ranks under it
            index = {cell: k for k, cell in enumerate(cells)}
            rank = {v: k for k, v in enumerate(values)}
            mapping = []
            for g, (sort, swap, rows, trail) in enumerate(self._generators):
                if cod_sort == sort:
                    image = {v: rank[swap.get(v, v)] for v in rank}
                    mapping.append((g, sort, swap, rows, trail, True, image))
                elif sort in arg_sorts:
                    mapping.append((g, sort, swap, rows, trail, False, rank))
            self._symbol = index, rank, mapping
        index, rank, generators = self._symbol
        if i + 1 < len(cells):
            self.next = depth + 1
        else:
            self._symbols.pop()
            self.next = self._symbols[-1][0] if self._symbols else -1

        cell = cells[i]
        due = []
        for g, sort, swap, rows, trail, mapped, image in generators:
            if arg_sorts == (sort,):
                swapped = (swap.get(cell[0], cell[0]),)
            else:
                swapped = tuple([swap.get(x, x) if s == sort else x for x, s in zip(cell, arg_sorts)])
            # Position i of σ(A) holds σ of A's value at σ(i) = j, so it
            # is known once both are set: the row of i is due at j if j
            # comes after it, and the row of j at i if j comes before.
            j = index[swapped]
            if j > i or j == i and mapped:
                rows.append((first + j, table, cell, swapped, rank, image))
            if j < i or j == i and mapped:
                due.append((trail, self._read[g], rows))
                self._read[g] = depth + 1
        return _check(depth, due) if due else None


def _check(depth: int, generators: list[tuple]) -> Callable[[], bool]:
    slot = depth + 1

    def check() -> bool:
        for trail, read, rows in generators:
            k = trail[read]
            end = len(rows)
            while k < end:
                due, table, cell, swapped, rank, image = rows[k]
                if due > depth:
                    break
                a, b = rank[table[cell]], image[table[swapped]]
                if a != b:
                    if b < a:
                        return True
                    k = _DONE  # A < σ(A): nothing more to compare
                    break
                k += 1
            trail[slot] = k
        return False

    return check
