"""Optimal multi-level supersaturated designs over Galois fields.

Construction by polynomial column labels evaluated at field points, exact
rational aliasing criteria, sharp lower bounds with achievement certificates,
a verified catalog of three-, four- and five-level designs, and brute-force
oracles for desk-scale confirmation.

The submodules, and the names exported from them here, are imported on first
use (PEP 562), so each `ssd` command loads only the modules it runs.
"""

__version__ = "1.0.0"

_SUBMODULES = frozenset({"bounds", "cli", "constructions", "criteria",
                         "design_core", "gf", "oracle", "poly_labels",
                         "report"})
# each exported name, by the submodule that defines it
_EXPORTS = {
    "bounds": ("certify", "lb_theorem10"),
    "criteria": ("aggregate_stats", "strength"),
    "constructions": ("catalog", "construct_example3", "construct_thm4",
                      "construct_thm6", "construct_thm8", "construct_thm9",
                      "load_appendix", "verify_appendix", "verify_design"),
    "design_core": ("Design", "read_design", "realize", "replace_column",
                    "select_columns", "write_design"),
    "gf": ("default_field", "enumerate_points"),
    "poly_labels": ("h_set", "label_str", "q1"),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items()
               for name in names}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name):
    module = name if name in _SUBMODULES else _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which binds the submodule here and
    # which -X importtime reports (importlib.import_module is neither seen
    # by it nor any faster)
    __import__(f"{__name__}.{module}")
    found = globals()[module]
    return found if module == name else getattr(found, name)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_DEFINED_IN})
