"""Optimal multi-level supersaturated designs over Galois fields.

Construction by polynomial column labels evaluated at field points, exact
rational aliasing criteria, sharp lower bounds with achievement certificates,
a verified catalog of three-, four- and five-level designs, and brute-force
oracles for desk-scale confirmation.
"""

from .bounds import certify, lb_theorem10
from .criteria import aggregate_stats, strength
from .constructions import (catalog, construct_example3, construct_thm4,
                            construct_thm6, construct_thm8, construct_thm9,
                            load_appendix, verify_appendix, verify_design)
from .design_core import (Design, read_design, realize, replace_column,
                          select_columns, write_design)
from .gf import default_field, enumerate_points
from .poly_labels import h_set, label_str, q1

__version__ = "1.0.0"
