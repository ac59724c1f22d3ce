"""Rebuild and verify the whole shipped catalog, then inspect one bundle.

Every row records the expected exact aliasing histogram; verification
recomputes each design from scratch and compares rationals, never floats.
The three bundled reference tables round-trip through the text format.
"""

import time

from ssd import catalog, load_appendix, verify_appendix, verify_design
from ssd.criteria import aggregate_stats

t0 = time.monotonic()
results = [verify_design(recipe, D) for recipe, D in catalog()]
dt = time.monotonic() - t0

width = max(len(r.row_id) for r in results)
for r in results:
    print(f"{'ok' if r.ok else 'FAIL':4s} {r.row_id:{width}s} {r.message}")
print(f"\n{sum(r.ok for r in results)}/{len(results)} rows verified "
      f"in {dt:.1f}s")

print("\nbundled reference tables:")
for which in (6, 7, 8):
    r = verify_appendix(which)
    print(f"{'ok' if r.ok else 'FAIL':4s} {r.row_id}: {r.message}")

D = load_appendix(7)
rep = aggregate_stats(D, gwlp_jmax=2)
print(f"\nthe 16-run 4-level table: A2 = {rep.A2}, ave(f) = {float(rep.ave_f):.2f}, "
      f"max(f) = {rep.max_f}, wordlength A2 = {rep.gwlp[1]}")
