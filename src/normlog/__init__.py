"""A compiler and reasoner for rule modules with defeasibility
modifiers, plus an answer-set view of defeasible configurations."""

from .syntax import (
    NormlogError,
    RuleModule,
    Rule,
    Assertion,
    ClassDecl,
    FunDecl,
    check_well_formed,
    print_module,
    print_expr,
)
from .parser import LParseError, parse_expr, parse_module, parse_type
from .typecheck import Env, LTypeError, elaborate, typecheck_module
from .transform import (
    CycleError,
    TransformError,
    Variant,
    despite_elim,
    eval_derived,
    lift_predicates,
    rule_order,
    simplify,
    subject_to_elim,
    transform_module,
)
from .inversion import (
    InversionError,
    check_syntactic_monotonicity,
    inversion_formula,
    inversion_targets,
    normalize_rule,
)
from .models import (
    CheckOutcome,
    FormulaSet,
    Interpretation,
    ModelError,
    ModelProblem,
    ResourceCapError,
    check_assertion,
    enumerate_models,
    rules_to_formulas,
)
from .smtlib import SmtError, emit_smtlib, read_script
from .correspond import check_model_correspondence

__version__ = "0.1.0"
