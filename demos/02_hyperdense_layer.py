"""The hypercomplex dense layer next to a plain dense layer: identical
input/output widths, a quarter of the weights.

Run:  python demos/02_hyperdense_layer.py
"""

import numpy as np

from hyperts import Activation, AlgebraKind, Dense, HyperDense

rng = np.random.default_rng(0)

# 8 real inputs = 2 hypercomplex slots; 12 real outputs = 3 units
hyper = HyperDense(in_h=2, units=3, kind=AlgebraKind.QUATERNION,
                   activation=Activation.LINEAR, rng=rng)
dense = Dense(8, 12, activation=Activation.LINEAR, rng=rng)

print("real widths        : 8 -> 12 for both layers")
print("dense params       :", dense.param_count())   # 16mn + 4n = 108
print("hyperdense params  :", hyper.param_count())   # 4mn + 4n = 36

# a batch of one window of 5 time steps; weights are shared across time
x = rng.normal(size=(1, 5, 8))
y = hyper.forward(x)
print("\nsequence input", x.shape, "-> output", y.shape)

# the layer is linear in its input (linear activation), so doubling the
# input doubles the output even though the weight algebra is exotic
np.testing.assert_allclose(hyper.forward(2 * x), 2 * y, atol=1e-12)
print("linearity in x confirmed")

# gradients flow like any other layer
upstream = rng.normal(size=y.shape)
dx = hyper.backward(upstream)
print("backward gives dL/dx", dx.shape, "and per-parameter grads",
      [g.shape for g in hyper.grads()])

# parameter savings across the sizes used in the experiments
print("\nunits  in_h  hyper  dense(equal width)")
for units in (1, 2, 4, 8, 16, 32):
    h = HyperDense(1, units, AlgebraKind.QUATERNION, rng=rng).param_count()
    d = Dense(4, 4 * units, rng=rng).param_count()
    print(f"{units:5d} {1:5d} {h:6d} {d:7d}")
