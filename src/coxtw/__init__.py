"""Twisted weak orders on finite and affine Weyl groups, in exact arithmetic.

The pieces compose in layers: `system` builds root systems from Cartan
data, `elements` realizes group elements as packed simple-root images, `biclosed`
provides membership oracles for biclosed subsets of the positive roots,
`infwords` classifies them as inversion sets, and `order` carries the
twisted length, comparisons, meets, joins and Hasse diagrams.  `oracle`
recomputes the same answers by brute force for cross-checking, and `cli`
exposes everything as the `coxtw` command.
"""

from .biclosed import (BiclosedOracle, BiclosedReport, ClosureReport,
                       Complement, Explicit, HatForm, Twisted,
                       act_on_biclosed, biclosed_check, classify_finite_biclosed,
                       closure_check, enumerate_biclosed)
from .elements import (GroupElement, ball, from_word, identity, simple,
                       translation)
from .errors import (ClassificationError, CoxtwError, DomainError, ExprError,
                     JoinSearchError, NotReducedError, OrderError,
                     ResourceError, UnsupportedOracleError, ValidationError)
from .exprs import parse_biclosed
from .figures import FIGURES, emit_figure
from .infwords import (Classification, PeriodicWord, WordInvSet, classify,
                       limit_set, t_gamma_infinity, validate_periodic)
from .oracle import (longest_finite, oracle_le, oracle_meet, oracle_tlen,
                     run_selftest, standard_battery)
from .order import (CheckResult, HasseGraph, chain, check_meet_semilattice,
                    cover_neighbors, hasse, interval, is_up_cover, join, le,
                    lower_bound, meet, twisted_length)
from .system import (CoxeterSystem, Root, build_system, parse_cartan_file,
                     parse_root)

__version__ = "0.1.0"

__all__ = [
    "BiclosedOracle", "BiclosedReport", "Classification", "ClassificationError",
    "CheckResult", "ClosureReport", "Complement", "CoxeterSystem", "CoxtwError",
    "DomainError", "Explicit", "ExprError", "FIGURES", "GroupElement",
    "HasseGraph", "HatForm", "JoinSearchError", "NotReducedError", "OrderError",
    "PeriodicWord", "ResourceError", "Root", "Twisted", "UnsupportedOracleError",
    "ValidationError", "WordInvSet", "act_on_biclosed", "ball", "biclosed_check",
    "build_system", "chain", "check_meet_semilattice", "classify",
    "classify_finite_biclosed", "closure_check", "cover_neighbors",
    "emit_figure", "enumerate_biclosed", "from_word", "hasse",
    "identity", "interval", "is_up_cover", "join", "le",
    "limit_set", "longest_finite", "lower_bound", "meet", "oracle_le",
    "oracle_meet", "oracle_tlen", "parse_biclosed",
    "parse_cartan_file", "parse_root", "run_selftest", "simple",
    "standard_battery", "t_gamma_infinity", "translation",
    "twisted_length", "validate_periodic",
]
