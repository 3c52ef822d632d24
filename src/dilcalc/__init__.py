"""Symbolic kernel for coded dilators, ordinal functors, and collapse orders."""

from types import ModuleType as _ModuleType

from .analysis import (
    classify,
    components,
    decompose,
    important_index,
    ll_relation,
    otp_symbolic,
    sep,
    sep_signed,
    sep_signed_iter,
)
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    DilcalcError,
    GuardViolation,
    MalformedElement,
    NoUniqueIndex,
    NotConnected,
    NotTypeOmega,
    OutOfNotation,
    ParseError,
    UnsupportedDecomposition,
    UnsupportedLimit,
    UnsupportedOtp,
)
from .expr import Dil, parse_dil, to_str
from .jfunctor import JResult, j_eval, j_guard_report, jplus_eval, jprime_eval
from .ordinal import (
    LimitPattern,
    Ord,
    detect_limit_pattern,
    ord_add,
    ord_cmp,
    ord_is_principal,
    ord_mul_nat,
    ord_mul_omega,
    ord_omega_pow,
    ord_str,
    ord_sup_solve,
    parse_ord,
)
from .psi import (
    PsiOrder,
    chain_search,
    psi_clause_otp,
    psi_enum,
)
from .semantics import (
    EnumBudget,
    ambient_stream,
    compare_elements,
    enum_elements,
    prefix_elements,
    support_of,
)

# the imported names; the submodules, which the imports above bind as
# attributes of the package, are not part of the public surface
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
