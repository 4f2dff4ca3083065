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
orbit, and no generator prunes it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .syntax import ClassT, LType, uncurry


def lex_leader_checks(
    free: Sequence[tuple[str, tuple, tuple]],
    tables: dict[str, dict],
    types: dict[str, LType],
    carriers: dict[str, tuple[str, ...]],
    compared: Iterable[Optional[frozenset]],
) -> dict[int, Callable[[], bool]]:
    """The lex-leader checks of a search over `free`, its free symbols in
    search order as (name, cells, values), by the search position after
    whose assignment each is asked; a check returns True to prune.
    `tables` and `types` give each free symbol's table and declared type,
    `carriers` the sorts that may be renamed, and `compared` the values
    each ordering comparison may read (None if not known), so that a
    sort whose elements one may read is left alone."""
    sorts = dict(carriers)
    for values in compared:
        if values is None:
            return {}
        sorts = {s: es for s, es in sorts.items() if values.isdisjoint(es)}
        if not sorts:
            return {}

    # (first search position, cells, position of each cell, table,
    # value ranks, argument sorts, codomain sort) of each free symbol
    # that reads or returns an element of a renamed sort
    symbols = []
    size = 0
    for name, cells, values in free:
        args, cod = uncurry(types[name])
        arg_sorts = tuple(t.name if type(t) is ClassT else None for t in args)
        cod_sort = cod.name if type(cod) is ClassT else None
        if cod_sort in sorts or not sorts.keys().isdisjoint(arg_sorts):
            index = {cell: i for i, cell in enumerate(cells)}
            rank = {v: i for i, v in enumerate(values)}
            symbols.append((size, cells, index, tables[name], rank, arg_sorts, cod_sort))
        size += len(cells)

    rows_of: list[list[tuple]] = []
    for sort, elements in sorts.items():
        for a, b in zip(elements, elements[1:]):
            swap = {a: b, b: a}
            rows = []
            for first, cells, index, table, rank, arg_sorts, cod_sort in symbols:
                mapped = cod_sort == sort
                if not mapped and sort not in arg_sorts:
                    continue
                image = {v: rank[swap.get(v, v)] for v in rank} if mapped else rank
                for p, cell in enumerate(cells):
                    swapped = tuple([swap.get(x, x) if s == sort else x for x, s in zip(cell, arg_sorts)])
                    q = index[swapped]
                    if q > p or q == p and mapped:
                        rows.append((first + q, table, cell, swapped, rank, image))
            if rows:
                rows_of.append(rows)

    # Each generator keeps a trail of where its comparison stands after
    # each search position it is asked at; the check at a position reads
    # the slot of the one asked before it, so backtracking restores it.
    by_depth: dict[int, list[tuple]] = {}
    for rows in rows_of:
        trail = [0] * (size + 1)
        read = 0
        for depth in sorted({row[0] for row in rows}):
            by_depth.setdefault(depth, []).append((trail, read, rows, len(rows)))
            read = depth + 1
    return {depth: _check(depth, generators) for depth, generators in by_depth.items()}


def _check(depth: int, generators: list[tuple]) -> Callable[[], bool]:
    slot = depth + 1

    def check() -> bool:
        for trail, read, rows, end in generators:
            k = trail[read]
            while k < end:
                due, table, cell, swapped, rank, image = rows[k]
                if due > depth:
                    break
                a, b = rank[table[cell]], image[table[swapped]]
                if a != b:
                    if b < a:
                        return True
                    k = end  # A < σ(A): nothing more to compare
                    break
                k += 1
            trail[slot] = k
        return False

    return check
