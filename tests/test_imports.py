"""Each command loads only the modules it runs: the package imports its
submodules, and the names it exports from them, on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssd
from ssd.constructions import construct_thm4
from ssd.design_core import write_design
from ssd.gf import default_field

# every name `from ssd import ...` gives, by the module that defines it
EXPORTS = {
    "certify": "bounds", "lb_theorem10": "bounds",
    "aggregate_stats": "criteria", "strength": "criteria",
    "catalog": "constructions", "construct_example3": "constructions",
    "construct_thm4": "constructions", "construct_thm6": "constructions",
    "construct_thm8": "constructions", "construct_thm9": "constructions",
    "load_appendix": "constructions", "verify_appendix": "constructions",
    "verify_design": "constructions",
    "Design": "design_core", "read_design": "design_core",
    "realize": "design_core", "replace_column": "design_core",
    "select_columns": "design_core", "write_design": "design_core",
    "default_field": "gf", "enumerate_points": "gf",
    "h_set": "poly_labels", "label_str": "poly_labels", "q1": "poly_labels",
}
SUBMODULES = ("bounds", "cli", "constructions", "criteria", "design_core",
              "gf", "oracle", "poly_labels", "report")

# runs one command in a fresh interpreter, then prints the ssd modules loaded
LOADED_AFTER = """
import sys
import ssd.cli
code = ssd.cli.run(sys.argv[1:])
print()
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "ssd"))
"""


def fresh_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(ssd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.splitlines()[-1].split()


def loaded_after(argv, cwd):
    code, *modules = fresh_python(LOADED_AFTER, *argv, cwd=cwd)
    assert code == "0"
    return set(modules)


def test_evaluate_loads_no_field_labels_catalog_or_oracle(tmp_path):
    write_design(construct_thm4(default_field(3), 2), tmp_path / "d.ssd")
    assert loaded_after(["evaluate", "d.ssd"], tmp_path) == {
        "ssd", "ssd.cli", "ssd.design_core", "ssd.report", "ssd.criteria",
        "ssd.bounds"}


def test_construct_loads_no_evaluation_or_oracle(tmp_path):
    argv = ["construct", "--theorem", "4", "--s", "3", "--n", "2",
            "--out", "d.ssd"]
    assert loaded_after(argv, tmp_path) == {
        "ssd", "ssd.cli", "ssd.design_core", "ssd.constructions", "ssd.gf",
        "ssd.poly_labels"}


def test_import_ssd_loads_no_submodule():
    assert fresh_python("import sys, ssd; print(*sorted(m for m in "
                        "sys.modules if m.startswith('ssd')))") == ["ssd"]


def test_every_submodule_is_an_attribute_of_a_fresh_package():
    names = fresh_python("import sys, ssd; print(*(getattr(ssd, m).__name__ "
                         "for m in sys.argv[1:]))", *SUBMODULES)
    assert names == [f"ssd.{m}" for m in SUBMODULES]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exported_name_is_the_defining_modules_object(name):
    namespace = {}
    exec(f"from ssd import {name}", namespace)
    module = sys.modules[f"ssd.{EXPORTS[name]}"]
    assert namespace[name] is getattr(module, name)


def test_package_exports_exactly_these_names():
    assert sorted(ssd.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(ssd))
    assert not hasattr(ssd, "no_such_name")
