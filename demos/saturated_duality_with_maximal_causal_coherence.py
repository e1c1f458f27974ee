# Walkthrough of the headline construction: a two-path interferometer whose
# which-path marking is a controlled bit flip and whose interference operation
# is diagonal in the path basis.  The two operations commute, so putting their
# order in superposition costs nothing spatially: path distinguishability is
# perfect, reduced coherence is zero (the duality sum saturates at 1), and yet
# the order qubit keeps full coherence between the two causal orders.
#
# Consequence: no inequality  C + D + alpha * C_causal <= 1  can hold for any
# positive alpha, because this process sits at C + D = 1, C_causal = 1.

import numpy as np

from switchlab import (
    CausalOrder,
    explicit_realization,
    fixed_order_vector,
    order_marginal,
)
from switchlab.relations import nogo_counterexample, scenario_quantities

scenario = explicit_realization()  # balanced paths, V0 = I, V1 = X, p = 1/2

print("=== fixed-order branches ===")
for order in CausalOrder:
    amplitudes = fixed_order_vector(scenario, order).reshape(scenario.n, scenario.detector_dim)
    print(f"{order.value}: (path, detector) amplitudes")
    print(np.array_str(amplitudes, precision=4, suppress_small=True))

rho_o = order_marginal(scenario)  # K o G^T, from the two branches
print("\nreduced order qubit:")
print(np.array_str(rho_o, precision=4, suppress_small=True))

q = scenario_quantities(scenario)
print("\n=== complementarity measures ===")
for name in (
    "spatial_coherence",
    "distinguishability_bound",
    "causal_coherence",
    "causal_visibility",
    "order_entropy",
):
    print(f"{name:28s} {q[name]:+.12f}")

print("\nduality sum C_q + D_bound =", q["spatial_coherence"] + q["distinguishability_bound"])

print("\n=== linear tradeoff margins ===")
counterexample = nogo_counterexample(0.5)
for alpha in (0.01, 0.1, 0.5, 1.0):
    margin = counterexample.margin(alpha)
    print(f"alpha = {alpha:5.2f}:  C + D + alpha * C_causal - 1 = {margin:+.12f}")
print("\nevery margin is positive, so the weighted sum always exceeds 1")
