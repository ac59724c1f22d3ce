import ast
import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from ssd.bounds import lb_theorem1
from ssd.cli import run
from ssd.constructions import construct_thm4, construct_thm8
from ssd.criteria import aggregate_stats
from ssd.design_core import (MAX_COLUMNS, Design, _gram_tiles, cells_sparse,
                             design_sums, level_groups, realize)
from ssd.gf import default_field
from ssd import oracle
from ssd.oracle import (DEFAULT_BUDGET, MAX_CANDIDATES, SearchResult,
                        _agreement_table, _balanced_columns, exhaustive_min_a2,
                        gwlp_bruteforce, pair_table, pair_a2_from_table,
                        periodicity_spot_check)
from ssd.poly_labels import h_set

# Results of the per-candidate Fraction search this integer search replaced,
# recorded from it: the new search visits the same tree in the same order, so
# every field must match exactly.  A null budget means DEFAULT_BUDGET.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "oracle_pinned.json").read_text())


def _case_id(c):
    return (f"N{c['N']}-s{c['s']}-m{c['m']}-b{c['budget']}-"
            + ("stop" if c["stop_at_bound"] else "full"))


def test_pair_table_patterns(gf3):
    D = construct_thm4(gf3, 2)
    tab = pair_table(D, 0, 1)                      # orthogonal pair
    assert all(v == 1 for row in tab for v in row)
    semi = pair_table(D, 1, 4)                     # X2 against X1^2+X2
    counts = sorted(v for row in semi for v in row)
    assert counts == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    dup = Design(np.hstack([D.matrix, D.matrix[:, :1]]), D.levels + D.levels[:1])
    tab2 = pair_table(dup, 0, 7)
    assert sorted(v for row in tab2 for v in row) == [0] * 6 + [3] * 3


def test_pair_table_margins(catalog_rows):
    recipe, D = catalog_rows[0]
    tab = pair_table(D, 0, 1)
    assert sum(map(sum, tab)) == D.N
    assert [sum(r) for r in tab] == [D.N // D.levels[0]] * D.levels[0]


def test_pair_routes_agree_everywhere(catalog_rows):
    # the row-iteration route must equal the pair kernel on every pair of
    # every shipped design (two independent implementations), and the
    # catalog takes both routes of the kernel
    routes = set()
    for recipe, D in catalog_rows:
        routes.add(cells_sparse(D, _gram_tiles(level_groups(D), D.N)))
        P = design_sums(D)[0]
        s = D.levels[0]
        pairs = itertools.combinations(range(D.m), 2)
        for (i, j), p in zip(pairs, P.tolist(), strict=True):
            assert pair_a2_from_table(pair_table(D, i, j), D.N) \
                == F(s * s * p - D.N**2, D.N**2)
    assert routes == {True, False}


def test_exhaustive_min_632():
    res = exhaustive_min_a2(6, 3, 2, stop_at_bound=False)
    assert res.exhaustive and res.best_a2 == F(1, 2)
    assert res.best_a2 == lb_theorem1(6, 2, 3)
    assert res.design.N == 6 and res.design.m == 2


def test_exhaustive_min_633():
    res = exhaustive_min_a2(6, 3, 3, stop_at_bound=False)
    assert res.exhaustive and res.best_a2 == F(3, 2)
    assert res.best_a2 == lb_theorem1(6, 3, 3)


def test_min_423():
    res = exhaustive_min_a2(4, 2, 3, stop_at_bound=False)
    assert res.exhaustive and res.best_a2 == 0   # three orthogonal columns fit


def test_certified_stop_and_budget():
    res = exhaustive_min_a2(9, 3, 5)
    assert res.certified and res.best_a2 == 2
    tiny = exhaustive_min_a2(6, 3, 3, budget=50, stop_at_bound=False)
    assert not tiny.exhaustive and tiny.evaluations <= 51
    with pytest.raises(ValueError, match="too many"):
        exhaustive_min_a2(16, 4, 2)
    with pytest.raises(ValueError, match="divisible"):
        exhaustive_min_a2(7, 3, 2)


def _no_table(rows):
    raise AssertionError("the agreement table was built")


def test_budget_below_the_first_node_builds_no_table(monkeypatch, capsys):
    """The root's children cost one evaluation per candidate, so a budget
    below the candidate count is refused before the candidates and their
    agreement table (677 MB at N = 22, s = 2) are built."""
    monkeypatch.setattr(oracle, "_agreement_table", _no_table)
    count = math.factorial(22) // math.factorial(11) ** 2
    for budget in (1000, count - 1):
        assert exhaustive_min_a2(22, 2, 2, budget) == SearchResult(
            best_a2=None, design=None, exhaustive=False, certified=False,
            evaluations=budget + 1, budget=budget)
    assert run(["oracle", "min-a2", "--N", "22", "--s", "2", "--m", "2",
                "--budget", "1000"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: no complete design within the budget of "
                       "1000 evaluations\n")


@pytest.mark.parametrize("N,s", [(22, 2), (6, 3), (8, 4)])
def test_one_column_search_builds_no_table(monkeypatch, N, s):
    """One column has no pair to score: the first balanced column is a best
    design, with no evaluation and no table, whatever the budget."""
    first = _balanced_columns(N, s)[0] if N < 22 else [0] * 11 + [1] * 11
    monkeypatch.setattr(oracle, "_agreement_table", _no_table)
    for budget in (0, 1000):
        res = exhaustive_min_a2(N, s, 1, budget)
        assert (res.best_a2, res.exhaustive, res.certified, res.evaluations,
                res.budget) == (0, True, True, 0, budget)
        assert (res.design.N, res.design.m, res.design.levels) == (N, 1, (s,))
        assert res.design.matrix[:, 0].tolist() == list(first)


def test_min_never_beats_bound(catalog_rows):
    for N, s, m in ((6, 3, 2), (6, 3, 3), (4, 2, 2), (4, 2, 3), (8, 2, 2)):
        res = exhaustive_min_a2(N, s, m, stop_at_bound=False)
        assert res.best_a2 >= max(lb_theorem1(N, m, s), F(0))


def test_periodicity_spot_check():
    rows = periodicity_spot_check(9, 3, 4, [1, 2])
    for row in rows:
        assert row["values_known"]
        assert row["holds"] is True
    rows2 = periodicity_spot_check(4, 2, 3, [1])
    assert rows2[0]["a2_m"] == 0 and rows2[0]["a2_m_plus_t"] == 1
    assert rows2[0]["holds"]


def test_gwlp_bruteforce_matches_character_route(gf3):
    for D in (construct_thm8(gf3, 2, 2), construct_thm4(gf3, 2)):
        pattern = aggregate_stats(D).gwlp
        for j in (1, 2, 3):
            assert gwlp_bruteforce(D, j) == pattern[j - 1]


def test_gwlp_bruteforce_mixed_levels():
    from ssd.design_core import replace_column, realize as rz
    f4, f2 = default_field(4), default_field(2)
    D = rz(f4, 2, h_set(f4, 2)[:3])
    mixed = replace_column(D, 0, rz(f2, 2, h_set(f2, 2)).matrix)
    pattern = aggregate_stats(mixed, gwlp_jmax=2).gwlp
    assert gwlp_bruteforce(mixed, 2) == pattern[1]


def test_gwlp_bruteforce_limits(gf3):
    big = realize(gf3, 2, h_set(gf3, 2) + h_set(gf3, 2) + h_set(gf3, 2)[:1])
    with pytest.raises(ValueError, match="limited"):
        gwlp_bruteforce(big, 2)


@pytest.mark.parametrize("case", PINNED["cases"], ids=_case_id)
def test_search_matches_pinned_results(case):
    res = exhaustive_min_a2(case["N"], case["s"], case["m"],
                            case["budget"] or DEFAULT_BUDGET,
                            stop_at_bound=case["stop_at_bound"])
    best = None if res.best_a2 is None else str(res.best_a2)
    assert (best, res.evaluations, res.exhaustive, res.certified) == (
        case["best"], case["evaluations"], case["exhaustive"], case["certified"])
    if case["matrix"] is None:
        assert res.design is None
    else:
        assert res.design.matrix.tolist() == case["matrix"]
        # a single column has no pair, and the report needs two columns
        want = aggregate_stats(res.design).A2 if res.design.m > 1 else 0
        assert res.best_a2 == want


@pytest.mark.parametrize("case", [c for c in PINNED["cases"] if c["stdout"]],
                         ids=_case_id)
def test_oracle_cli_stdout_matches_pinned(case, capsys):
    argv = ["oracle", "min-a2", "--N", str(case["N"]), "--s", str(case["s"]),
            "--m", str(case["m"]), "--budget",
            str(case["budget"] or DEFAULT_BUDGET)]
    assert run(argv + ([] if case["stop_at_bound"] else ["--full"])) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_periodicity_matches_pinned():
    rows = periodicity_spot_check(9, 3, 4, [1, 2])
    assert [{k: str(v) for k, v in row.items()} for row in rows] \
        == PINNED["periodicity_9_3_4"]


def _brute_min_scaled(N, s, m):
    """N^2 * min A2 over every multiset of m balanced columns (library Gram sums)."""
    if m == 1:
        return 0
    cols = [c for c in itertools.product(range(s), repeat=N)
            if all(c.count(v) == N // s for v in range(s))]
    # the pair kernel's sums over the pairs of distinct candidates, and
    # N^2 / s for a balanced column against itself
    P = np.full((len(cols), len(cols)), N * N // s)
    P[np.triu_indices(len(cols), 1)] = design_sums(
        Design(np.array(cols).T, (s,) * len(cols)))[0]
    P = np.triu(P) + np.triu(P, 1).T
    pair = s * s * P - N * N
    combos = np.array(list(itertools.combinations_with_replacement(
        range(len(cols)), m)))
    totals = sum(pair[combos[:, i], combos[:, j]]
                 for i, j in itertools.combinations(range(m), 2))
    return int(np.min(totals))


SMALL_SHAPES = [
    (N, s, m) for N in (2, 4, 6, 8) for s in range(2, N + 1)
    if N % s == 0 and s ** N <= 100_000 for m in range(1, 6)
    if math.comb(math.factorial(N) // math.factorial(N // s) ** s + m - 1, m)
    <= 300_000]


@pytest.mark.parametrize("N,s,m", SMALL_SHAPES)
def test_exhaustive_minimum_equals_brute_force(N, s, m):
    res = exhaustive_min_a2(N, s, m, stop_at_bound=False)
    assert res.exhaustive
    assert res.best_a2 * N * N == _brute_min_scaled(N, s, m)


def test_rejects_degenerate_shapes():
    with pytest.raises(ValueError, match="level count s must be at least 2"):
        exhaustive_min_a2(6, -2, 2)
    with pytest.raises(ValueError, match="level count s must be at least 2"):
        exhaustive_min_a2(6, 1, 2)
    with pytest.raises(ValueError, match="at least the level count"):
        exhaustive_min_a2(2, 4, 2)


def _admitted_shapes():
    """Every (N, s), s | N, whose balanced columns the search enumerates.

    For each s the count N! / ((N/s)!)^s grows with N, and the smallest
    count, s! at N = s, grows with s, so both walks stop at the first shape
    over MAX_CANDIDATES; the search must refuse that shape."""
    shapes = []
    for s in itertools.count(2):
        for N in itertools.count(s, s):
            count = math.factorial(N) // math.factorial(N // s) ** s
            if count > MAX_CANDIDATES:
                with pytest.raises(ValueError, match="too many to enumerate"):
                    _balanced_columns(N, s)
                break
            shapes.append((N, s))
        if N == s:
            return shapes


def test_float32_scores_are_exact_for_every_admitted_shape():
    # a score sums N(N - 1)/2 products of a 0/1 entry with a count of at
    # most MAX_COLUMNS - 1 chosen columns; float32 adds integers exactly
    # while every partial sum stays below 2^24
    shapes = _admitted_shapes()
    assert max(N for N, _ in shapes) == 22 and (22, 2) in shapes
    for N, s in shapes:
        assert N * (N - 1) // 2 * (MAX_COLUMNS - 1) < 2**24, (N, s)


@pytest.mark.parametrize("N,s", [(2, 2), (4, 2), (6, 3), (8, 4), (9, 3)])
def test_agreement_table_is_the_row_pair_definition(N, s):
    cands = _balanced_columns(N, s)
    agree = _agreement_table(cands.T)
    assert agree.dtype == np.float32
    pairs = list(itertools.combinations(range(N), 2))
    assert agree.shape == (len(pairs), len(cands))
    for p, (a, b) in enumerate(pairs):
        assert np.array_equal(agree[p], cands[:, b] == cands[:, a])


# every module but the oracle itself and the command line, which runs it
PROGRAM_MODULES = ("gf", "poly_labels", "design_core", "criteria", "bounds",
                   "constructions", "report")


def _imports_oracle(node):
    """True when an import statement brings in ssd.oracle or a name of it."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["ssd", "oracle"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("oracle", "ssd.oracle"):
            return True
        return (module == "" or module == "ssd") and any(
            a.name == "oracle" for a in node.names)
    return False


def test_no_program_module_imports_the_oracle():
    """The references stay apart from the code they check: no module that
    builds, evaluates or bounds a design imports ssd.oracle."""
    import ssd
    root = Path(ssd.__file__).parent
    for name in PROGRAM_MODULES:
        tree = ast.parse((root / f"{name}.py").read_text())
        bad = [node.lineno for node in ast.walk(tree) if _imports_oracle(node)]
        assert not bad, f"ssd/{name}.py imports ssd.oracle on lines {bad}"
    # the check itself sees each spelling of the import
    for line in ("from .oracle import pair_table", "from . import oracle",
                 "from ssd.oracle import is_oa", "from ssd import oracle",
                 "import ssd.oracle", "import ssd.oracle as o"):
        assert _imports_oracle(ast.parse(line).body[0]), line
    for line in ("from . import criteria", "from .design_core import Design",
                 "import ssd"):
        assert not _imports_oracle(ast.parse(line).body[0]), line


def _names_read(tree):
    """The names a module's code reads, as a Name, an Attribute or an
    import; a top-level def or class reading its own name does not count."""
    read = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.split(".")[-1] for a in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def test_every_public_name_of_the_program_is_used():
    """A public function or class of a program module (any module but the
    oracle) is read by a program module or a demo: the package's own
    re-exports in __init__ do not count, and test-only code belongs in the
    tests or in ssd.oracle."""
    import ssd
    modules = [p for p in sorted(Path(ssd.__file__).parent.glob("*.py"))
               if p.stem not in ("__init__", "oracle")]
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    assert modules and demos
    read = set()
    for path in modules + demos:
        read |= _names_read(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{node.name}" for path in modules
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read]
    assert not unused, f"public names no program module or demo uses: {unused}"
