"""The 9-run showcase: supersaturate a strength-2 array without full aliasing.

Juxtaposing the linear family H with the quadratic companions of X1 packs
7 three-level columns into 9 runs.  The price of supersaturation is exact
and provably minimal: overall A2 = 6 meets the coincidence-integrality lower
bound, so the design is optimal under generalized minimum aberration, and no
pair of columns is fully aliased.
"""

from ssd import (aggregate_stats, certify, construct_thm4, construct_thm6,
                 default_field, label_str, select_columns)
from ssd.oracle import classify_pair

f = default_field(3)
D = construct_thm4(f, 2)
print(f"built {D}:")
for i, lab in enumerate(D.labels):
    print(f"  column {i}: {label_str(f, lab)} -> {D.matrix[:, i].tolist()}")

rep = aggregate_stats(D)
print(f"\noverall A2 = {rep.A2}")
print("projected A2 histogram:",
      {str(v): c for v, c in rep.histogram.items()})
print("pair (X2, X1^2+X2) classifies as:", classify_pair(D, 1, 4))

cert = certify(rep)
print(f"\nlower bound = {cert.theorem1}, achieved = {cert.achieved_theorem1} "
      f"(coincidence spread {cert.coincidence_spread})")

# pushing further: four companion arrays side by side give 16 columns in
# 9 runs, and their 12 quadratic columns alone form the best 12-column design
D16 = construct_thm6(f, 2, 4)
rep16 = aggregate_stats(D16, gwlp_jmax=1)
print(f"\n{D16}: A2 = {rep16.A2}, histogram",
      {str(v): c for v, c in rep16.histogram.items()})
quad = select_columns(D16, [i for i in range(16) if i % 4 != 0])
quad_cert = certify(aggregate_stats(quad, gwlp_jmax=1))
print(f"quadratic 12-column subdesign: A2 = {quad_cert.a2}, bound "
      f"{quad_cert.theorem1}, achieved {quad_cert.achieved_theorem1}")
