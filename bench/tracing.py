"""Spans around the calls into each layer, recorded from outside.

`install` replaces the library functions named in TARGETS, at the
module attributes through which the program itself calls them, with
wrappers that record one span per call: name, start, end and parent.
A generator (`enumerate_models`) gets one span per `next()`, so time
the consumer spends between models is not counted as search.  Spans
stay in memory; a layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

from collections import defaultdict

from timing import clock

# (module, attribute, layer).  A function imported by name into another
# module is listed at both places, since that is where it is looked up.
TARGETS = [
    ("parser", "parse_module", "parser.self_s"),
    ("typecheck", "elaborate", "typecheck.self_s"),
    ("typecheck", "typecheck_module", "typecheck.self_s"),
    ("correspond", "elaborate", "typecheck.self_s"),
    ("correspond", "typecheck_module", "typecheck.self_s"),
    ("transform", "transform_module", "transform.self_s"),
    ("correspond", "transform_module", "transform.self_s"),
    ("transform", "simplify", "transform.self_s"),
    ("models", "inversion_formula", "inversion.self_s"),
    ("models", "rules_to_formulas", "models.translate_s"),
    ("correspond", "rules_to_formulas", "models.translate_s"),
    ("models", "enumerate_models", "models.search_s"),
    ("correspond", "enumerate_models", "models.search_s"),
    ("smtlib", "emit_smtlib", "smtlib.emit_s"),
    ("smtlib", "read_script", "smtlib.read_s"),
    ("correspond", "check_model_correspondence", "correspond.transfer_s"),
    ("asp", "parse_config", "asp.parse_s"),
    ("asp", "emit_asp", "asp.emit_s"),
    ("asp", "_ground_program", "asp.grounding_s"),
    ("asp", "answer_sets", "asp.guess_s"),
    ("asp", "legal_models", "asp.legal_s"),
    ("asp", "axiom_violations", "asp.axioms_s"),
]
GENERATORS = {"enumerate_models"}

LAYER_TIMES = sorted({layer for _, _, layer in TARGETS})
COUNTS = [
    "transform.out_nodes",
    "models.formula_nodes",
    "models.models",
    "asp.ground_rules",
    "asp.candidates",
]
RATIOS = ["asp.legal_yield"]
TOTALS = ["trace.total_s", "trace.untraced_s"]
PER_LAYER = LAYER_TIMES + COUNTS + RATIOS + TOTALS


class Tracer:
    def __init__(self, count_nodes):
        self.active = False
        self.count_nodes = count_nodes
        self.layer_of: dict[str, str] = {}
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stash: list[tuple[str, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = clock()
        self.stack.pop()

    def parent_name(self) -> str:
        return self.names[self.stack[-1]] if self.stack else ""

    def take_query(self, first: int, factor: float) -> dict[str, float]:
        """Per-layer self times (scaled by `factor`) and counts of the
        spans from index `first` on, which belong to one query."""
        out: dict[str, float] = defaultdict(float)
        child = defaultdict(float)
        for i in range(first, len(self.names)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(first, len(self.names)):
            out[self.layer_of[self.names[i]]] += (self.end[i] - self.start[i] - child[i]) * factor
        for kind, obj in self.stash:
            if kind == "transform":
                out["transform.out_nodes"] += sum(
                    self.count_nodes(r.precond) + self.count_nodes(r.postcond)
                    for r in obj.module.rules
                )
            else:
                out["models.formula_nodes"] += sum(self.count_nodes(f) for _, f in obj.formulas)
        for k, v in self.counts.items():
            out[k] += v
        self.stash.clear()
        self.counts.clear()
        return out

    def drop(self, first: int) -> None:
        for xs in (self.names, self.start, self.end, self.parent):
            del xs[first:]

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]


def _wrap(tracer: Tracer, fn, name: str):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if name == "asp.axiom_violations" and tracer.parent_name() == "asp.legal_models":
            tracer.counts["asp.candidates"] += 1
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if name == "transform.transform_module":
            tracer.stash.append(("transform", out))
        elif name == "models.rules_to_formulas":
            tracer.stash.append(("formulas", out))
        elif name == "asp._ground_program":
            tracer.counts["asp.ground_rules"] += len(out)
        elif name == "asp.legal_models":
            tracer.counts["asp.legal_found"] += len(out)
        return out

    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    def run(it):
        try:
            while True:
                i = tracer.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.finish(i)
                tracer.counts["models.models"] += 1
                yield item
        finally:
            it.close()

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        return run(it) if tracer.active else it

    return traced


def install(lib, tracer: Tracer) -> None:
    """Wrap every target function of `lib`, a namespace of normlog modules."""
    for mod, attr, layer in TARGETS:
        module = getattr(lib, mod)
        fn = getattr(module, attr)
        span = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
        tracer.layer_of[span] = layer
        wrap = _wrap_generator if attr in GENERATORS else _wrap
        setattr(module, attr, wrap(tracer, fn, span))
