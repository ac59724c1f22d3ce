"""Small run sizes by branching: keep a few level-classes of one column.

Fixing a branching column and keeping k of its s level-classes yields an
SSD(k s^(n-1), s^m) after the branch column is dropped.  Branching the linear
family and the quadratic family gives structurally different 18-run designs;
branching different quadratic columns gives three distinct aliasing types,
of which type 2 has the fewest badly-aliased pairs.
"""

from ssd import (aggregate_stats, construct_example3, construct_thm8,
                 construct_thm9, default_field, label_str, q1)

f = default_field(3)

lin = construct_thm8(f, 3, 2)     # branch X1 in the linear family
quad = construct_thm9(f, 3, 2)    # branch X1^2+X2 in the quadratic family
# the report's histogram maps each projected A2 value, ascending, to its
# number of column pairs
lin_hist = aggregate_stats(lin, gwlp_jmax=1).histogram
quad_hist = aggregate_stats(quad, gwlp_jmax=1).histogram
print("18-run designs from the two families:")
print("  linear family  :", {str(v): c for v, c in lin_hist.items()})
print("  quadratic family:", {str(v): c for v, c in quad_hist.items()})
print("(different histograms -> the two saturated parents are structurally "
      "different at n = 3)\n")

print("branch-column choice within the quadratic family:")
seen = {}
for lab in q1(f, 3):
    D, typ = construct_example3(f, lab)
    hist = aggregate_stats(D, gwlp_jmax=1).histogram
    seen.setdefault(typ, []).append(label_str(f, lab))
    if len(seen[typ]) == 1:
        print(f"  type {typ}: histogram "
              f"{ {str(v): c for v, c in hist.items()} }")
for typ in sorted(seen):
    print(f"  type {typ} branches: {', '.join(seen[typ])}")
