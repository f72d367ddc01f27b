"""
The leading exponent and the failure of Gaussian scaling
========================================================

The log-log slope of the heat (or wave) matrix element against t recovers
the hop distance between the two vertices.  Consequently t * log p_t -> 0,
in contrast with the manifold law t * log p_t -> -rho^2 / 2: short-time
diffusion on a graph is polynomial in t, not Gaussian in the distance.
"""

import graphheat as gh

g = gh.random_connected_graph(12, 0.2, seed=8)

print("slope of log|element| vs log t, against the hop distance:")
print(f"{'pair':>8}  {'d':>2}  {'heat slope':>11}  {'wave slope':>11}")
for x, y in [(0, 1), (0, 5), (2, 9), (3, 11), (7, 7)]:
    d = gh.combinatorial_distance(g, x, y)
    heat = gh.leading_exponent_fit(g, x, y, group="heat")
    wave = gh.leading_exponent_fit(g, x, y, group="wave")
    print(f"  ({x:2d},{y:2d})  {d:2d}  {heat.slope:11.5f}  {wave.slope:11.5f}")

print("\nt * log p_t on the 6-path, pair (0, 5):")
for t, value in gh.varadhan_diagnostic(gh.path_graph(6), 0, 5,
                                       [10.0 ** (-k) for k in range(1, 7)]):
    print(f"  t = {t:8.0e}   t log p_t = {value:12.6f}")
print("  -> magnitudes shrink to 0; no -rho^2/2 limit")

# once every moment vanishes (separate components), decay beats every power
# (times stay below the series admission threshold t * lambda_max <= 2)
split = gh.WeightedGraph(6, [(0, 1, 1.0), (1, 2, 0.7), (3, 4, 1.2), (4, 5, 1.0)])
report = gh.vanishing_order_check(split, 0, 5, n=4, t_samples=[1e-3, 1e-2, 1e-1, 0.4])
print(f"\ncross-component pair (0, 5): |element| <= {report.constant:.4f} * t^5 "
      f"at every sample -> {report.passed}")
for heat, wave in zip(report.samples[::2], report.samples[1::2]):
    print(f"  t = {heat.t:6.0e}   |heat| = {heat.lhs}   |wave| = {wave.lhs}   "
          f"bound = {heat.rhs:.2e}")
