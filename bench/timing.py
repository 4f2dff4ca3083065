"""The benchmark's clock: thread CPU time, scaled by a reference.

On a shared virtual machine the speed of the host drifts from run to
run, and CPU time drifts with it: neighbours' load, frequency changes
and cache pressure all slow the same instructions down.  A fixed
pure-Python computation run right after every query slows down by the
same factor, so each query's CPU time is divided by the CPU time of
the references on both sides of it and multiplied by the reference's
nominal time.  The result is in seconds: the query's CPU time on a host
where the reference takes exactly REF_SECONDS.

The reference uses no `normlog` code, so a change to the program
cannot change the yardstick.
"""

from __future__ import annotations

import random
import time

clock = time.thread_time

# CPU time of one `reference()` call on an idle 2-vCPU VM with
# Python 3.11.  Only fixes the unit; any constant would keep ratios.
REF_SECONDS = 0.0024


class _Leaf:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Not:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _build(rng: random.Random, depth: int):
    if depth == 0:
        return _Leaf(f"x{rng.randrange(6)}") if rng.random() < 0.7 else _Const(rng.random() < 0.5)
    if rng.random() < 0.2:
        return _Not(_build(rng, depth - 1))
    return _Bin(rng.choice("&|>"), _build(rng, depth - 1), _build(rng, depth - 1))


def _ev(e, env):
    if isinstance(e, _Leaf):
        return env[e.name]
    if isinstance(e, _Const):
        return e.value
    if isinstance(e, _Not):
        return not _ev(e.arg, env)
    left, right = _ev(e.left, env), _ev(e.right, env)
    if e.op == "&":
        return left and right
    if e.op == "|":
        return left or right
    return (not left) or right


# A tree walk with isinstance dispatch, dict lookups and calls: the
# same kind of work as the program's evaluators and rewriters.
_TREE = _build(random.Random(20220515), 8)
_ENVS = [{f"x{i}": bool(m >> i & 1) for i in range(6)} for m in range(64)]


def reference() -> int:
    return sum(_ev(_TREE, env) for env in _ENVS)


def measure_reference() -> float:
    c0 = clock()
    reference()
    return clock() - c0


def scale(before: float, after: float) -> float:
    """Factor from CPU seconds to reference seconds, given the CPU time
    of the references run just before and just after the measurement."""
    return REF_SECONDS * 2 / (before + after)

