"""
Infinite graphs through a neighbor oracle
=========================================

The two-sided integer line is handed to the library as a procedural source:
a function mapping a vertex to its finitely many neighbors.  Moments and
series propagator values only ever touch a finite ball, so they work without
materializing anything; balls can also be cut out explicitly.

Independent check: on the unit-weight line the heat matrix element is
e^{-2t} I_n(2t) with I_n the modified Bessel function (computed here from
its power series).
"""

import math

import graphheat as gh

line = gh.integer_line()

# balls materialize lazily explored neighborhoods into ordinary finite graphs
b = gh.ball(line, 0, 3)
print("ball of radius 3 around 0:", b.labels, f"({b.edge_count} edges)")

op = gh.LaplacianOperator(line)
print("\nmoments <1_0, L^n 1_k> on the line:")
for k in (0, 1, 2, 3):
    row = [gh.moment(op, 0, k, n) for n in range(5)]
    print(f"  k = {k}: {row}")
print("first nonzero order equals |k| (the hop distance)")


def bessel_i(n, z, terms=40):
    return math.fsum((z / 2.0) ** (n + 2 * k) / (math.factorial(k) * math.factorial(n + k))
                     for k in range(terms))


print("\nseries heat elements vs e^{-2t} I_n(2t):")
print(f"{'t':>6} {'n':>3}  {'series':>13}  {'bessel form':>13}  {'rel err':>9}")
for t in (0.05, 0.2):
    for n in (0, 1, 3):
        value = gh.heat_element(line, 0, n, t, method="series")
        closed = math.exp(-2.0 * t) * bessel_i(n, 2.0 * t)
        print(f"{t:6.2f} {n:3d}  {value:13.6e}  {closed:13.6e}  "
          f"{abs(value - closed) / closed:9.2e}")

# the exponent law holds on the infinite graph as well
fit = gh.leading_exponent_fit(line, 0, 4)
print(f"\nlog-log slope for pair (0, 4): {fit.slope:.5f}  (hop distance 4)")

# every reader's default takes the series, the line's only route, so the
# Varadhan contrast t log p_t -> 0 reads directly off the infinite graph
print("\nVaradhan sequence for pair (0, 5) on the line (default method):")
for t, value in gh.varadhan_diagnostic(line, 0, 5, [0.1, 0.01, 1e-3, 1e-4]):
    print(f"  t = {t:8.0e}   t log p_t = {value:12.6f}")
print("  -> magnitudes shrink to 0, as on finite graphs")
