"""Optimal multi-level supersaturated designs over Galois fields.

Construction by polynomial column labels evaluated at field points, exact
rational aliasing criteria, sharp lower bounds with achievement certificates,
a verified catalog of three-, four- and five-level designs, and brute-force
oracles for desk-scale confirmation.
"""

from .bounds import (BoundReport, certify, lb_es2, lb_lemma2, lb_theorem1,
                     lb_theorem10)
from .criteria import (CriteriaReport, aggregate_stats, round_half_away,
                       strength)
from .constructions import (Recipe, build_recipe, catalog, catalog_verify,
                            construct_example3, construct_thm4,
                            construct_thm5, construct_thm6, construct_thm7,
                            construct_thm8, construct_thm9, load_appendix,
                            verify_appendix)
from .design_core import (Design, PairClass, branch_fraction, classify_pair,
                          column_juxtapose, design_from_text, design_sums,
                          design_to_text, fully_aliased_pairs, level_sorted,
                          read_design, realize, remove_fully_aliased,
                          replace_column, select_columns, write_design)
from .gf import Field, default_field, enumerate_points
from .poly_labels import (LinearForm, QuadraticLabel, h_set, label_str,
                          parse_label, q1, q1_star, qh, qh_substitution,
                          qh_star)

__version__ = "1.0.0"
