"""
Stepping matrices that keep the continuous-time system matrices
===============================================================

The bilinear map r = (2/Ts)(q - 1)/(q + 1) turns the shift operator q into
a variable that plays the role of the Laplace s. Realizing r^-1 as a
trapezoidal-integrator block and collapsing the resulting algebraic loop in
closed form yields one-step matrices in which A(p), B(p), C(p), D(p) appear
untouched, so scheduling the discrete system needs no re-discretization.
"""

import numpy as np

from lpvsim import (
    DiscretizationConfig,
    dt_step_matrices,
    load_fixture,
    tustin_frozen,
)

model = load_fixture("msd")
cfg = DiscretizationConfig(ts=0.1)
p = [2.0]

# the r^-1 block is parameter independent: pure integrator structure
print("r^-1 block [[I, 2I], [Ts/2 I, Ts/2 I]]:")
eye, half = np.eye(model.n_x), (cfg.ts / 2.0) * np.eye(model.n_x)
print(np.block([[eye, 2.0 * eye], [half, half]]))

# the loop-free subsystem for one scheduling point
m = dt_step_matrices(model, p, cfg)
print("Axi =")
print(m.Axi)
print("Bxi =")
print(m.Bxi)
print("Cxi =", m.Cxi)
print("Dxi =", m.Dxi)

# Xxi, Xu recover the physical state from the internal one at any step
print("Xxi =")
print(m.Xxi)

# Frozen p makes the scheme the classical Tustin discretization up to the
# similarity transform xi = (2/Ts) x. The four relations below are exact.
t = tustin_frozen(model, p, cfg)
print("max |Axi - Ad|            =", np.max(np.abs(m.Axi - t.Axi)))
print("max |Bxi - (2/Ts) Bd|     =",
      np.max(np.abs(m.Bxi - (2.0 / cfg.ts) * t.Bxi)))
print("max |Cxi - (Ts/2) Cd|     =",
      np.max(np.abs(m.Cxi - (cfg.ts / 2.0) * t.Cxi)))
print("max |Dxi - Dd|            =", np.max(np.abs(m.Dxi - t.Dxi)))

# scheduling point changes = new small solve, nothing else
for stiffness in (0.5, 1.0, 4.0):
    m = dt_step_matrices(model, [stiffness], cfg)
    eigs = np.linalg.eigvals(m.Axi)
    print(f"p = {stiffness}: |eig(Axi)| = {np.abs(eigs).round(6)}")
