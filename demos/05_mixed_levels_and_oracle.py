"""Mixed level profiles by replacement, and brute-force confirmation.

Replacing a 9-level column by the rows of a saturated 9-run 3-level array
turns an SSD(81, 9^100) into mixed-level designs whose overall A2 value is
untouched (the bound depends on the level profile only through
sum(levels) - m, which replacement preserves).  At desk scale, an
independent exhaustive search confirms the lower bound is attainable.
"""

from ssd import (aggregate_stats, certify, construct_thm6, default_field,
                 h_set, lb_theorem10, realize, replace_column)
from ssd.oracle import exhaustive_min_a2, periodicity_spot_check

f9, f3 = default_field(9), default_field(3)
D = construct_thm6(f9, 2, 10)
print(f"parent design: {D}, A2 = {aggregate_stats(D).A2}, "
      f"profile bound = {lb_theorem10(81, D.levels)}")

table = realize(f3, 2, h_set(f3, 2)).matrix
mixed = D
for k in range(3):
    mixed = replace_column(mixed, 4 * k, table)
rep = aggregate_stats(mixed)
cert = certify(rep)
print(f"after replacing 3 columns: {mixed}")
print(f"  A2 = {cert.a2}, profile bound = {cert.theorem10}, "
      f"achieved = {cert.achieved_theorem10}")
print(f"  worst projected A2 = {max(rep.histogram)}")

print("\nbrute force at desk scale:")
for N, s, m in ((6, 3, 2), (6, 3, 3)):
    res = exhaustive_min_a2(N, s, m, stop_at_bound=False)
    print(f"  min A2 over balanced {N}-run {s}-level {m}-column designs: "
          f"{res.best_a2} (exhaustive={res.exhaustive}, "
          f"{res.evaluations} evaluations)")

print("\nshift identity of the search minima at N = 9 (observational):")
for row in periodicity_spot_check(9, 3, 4, [1, 2]):
    print(f"  a2({row['m']}) = {row['a2_m']}, a2({row['m'] + 4}) = "
          f"{row['a2_m_plus_t']}, expected shift {row['expected_shift']}, "
          f"holds = {row['holds']}")
