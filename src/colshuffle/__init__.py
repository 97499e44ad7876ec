"""Exact closed forms for Hadamard products of rational generating
functions attached to labelled coloured configurations.

The package models coloured permutations and their descent statistics,
configurations (multisets of coloured permutations) with signed-monomial
labels on colours, and the rational generating functions these data define.
Hadamard products of such functions are computed in closed form by one
series kernel (``ratfun.hadamard``), whose denominator, degree bound and
digit width come from the shuffle theorem; shuffled configurations are built
only where a caller asks for one, or to check the theorem.  The products
are instantiated on a catalog of zeta functions of modules, groups and graphs.
"""

from .errors import (BadParameters, ColshuffleError, DeltaMismatch,
                     NotCoherent, OrderMismatch, ParseError, SymbolOverlap,
                     UnknownFamily, UnknownSuite, ZeroSubstitution)
from .permutations import (ColouredInteger, ColouredPermutation, StatTriple,
                           all_coloured_permutations, descent_data,
                           descent_set, parse_permutation, s_des, shuffles,
                           stat_triple)
from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, SignedMonomial,
                             canonicalize, check_coherence, config_shuffle,
                             evaluate_label, make_strongly_disjoint,
                             merge_labels, parse_labelled_configuration)
from .ratfun import (DEFAULT_ORDER, LaurentPoly, RationalGF, SeriesY, equal,
                     expand, scale_y, substitute, w_of)
from .shuffle_algebra import (STATISTICS, CompatReport,
                              check_shuffle_compatibility, hadamard_general,
                              hadamard_identity, hadamard_iterated,
                              hadamard_via_theorem)
from .qsym import psi_closed_form_check, verify_product_rule
from .zeta import (FAMILY_PARAMS, DirectFormula, ZetaEntry,
                   ZetaHadamardResult, build_entry, hadamard_entries,
                   hadamard_f2d, hadamard_mde, hadamard_ud, pi_of, underline)

__version__ = "0.1.0"
