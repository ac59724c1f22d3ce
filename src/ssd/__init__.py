"""Optimal multi-level supersaturated designs over Galois fields.

Construction by polynomial column labels evaluated at field points, exact
rational aliasing criteria, sharp lower bounds with achievement certificates,
a verified catalog of three-, four- and five-level designs, and brute-force
oracles for desk-scale confirmation.
"""

from .bounds import (BoundReport, certify, coincidence_spread, lb_es2,
                     lb_lemma2, lb_theorem1, lb_theorem10)
from .criteria import (CriteriaReport, a2_overall, a2_overall_from_pairs,
                       aggregate_stats, char_a2_matrix, dependency_summary,
                       e_s2, gwlp, pair_dependency_stats, power_moment,
                       projected_a2, projected_a2_char, projected_a2_histogram,
                       round_half_away)
from .constructions import (Recipe, build_recipe, catalog, catalog_verify,
                            construct_example3, construct_thm4,
                            construct_thm5, construct_thm6, construct_thm7,
                            construct_thm8, construct_thm9, corollary2_check,
                            dealias_check, load_appendix, verify_appendix)
from .design_core import (Design, PairClass, branch_fraction, cell_table,
                          classify_pair, coincidence_counts, coincidences,
                          column_juxtapose, design_from_text, design_to_text,
                          fully_aliased_pairs, is_oa, pair_gram_sums,
                          read_design, realize, remove_fully_aliased,
                          replace_column, row_juxtapose, select_columns,
                          strength, write_design)
from .gf import Field, default_field, enumerate_points, field_new
from .poly_labels import (LinearForm, QuadraticLabel, eval_label, h_set,
                          label_str, parse_label, q1, q1_star, qh,
                          qh_substitution, qh_star)

__version__ = "1.0.0"
