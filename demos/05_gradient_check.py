"""
Checking the hand-written backward pass
=======================================

The backward pass is derived and coded by hand, so it is verified the
boring way: compare every analytic gradient entry against central finite
differences of the loss.  This script runs the built-in harness across
model variants, loss variants, prefix lengths, and padded batches of two
or three examples, then demonstrates on one instance what the comparison
actually does.
"""

import numpy as np

from casif import HyperParams, PrefixExample, backward_batch, finite_difference_grad, forward_batch, init_params
from casif.model import run_gradient_check

cases = run_gradient_check(num_cases=16, d=6, num_items=12)
print(f"{'variant':<10}{'loss':<12}{'steps':>6}{'batch':>6}{'len':>5}{'rel error':>14}")
for c in cases:
    print(f"{c.variant:<10}{c.loss_variant:<12}{c.gnn_steps:>6}{c.batch_size:>6}{c.prefix_len:>5}"
          f"{c.rel_error:>14.3e}")
worst = max(c.rel_error for c in cases)
print(f"\nworst relative error: {worst:.3e}  (threshold 1e-4)")
assert worst < 1e-4

# The same comparison by hand, for one tensor of one instance.  Central
# differences at step h cost two forward passes per parameter entry, which
# is why this is a test-time tool and not how training computes gradients.
hp = HyperParams(d=4)
params = init_params(10, hp, seed=1)
example = PrefixExample(prefix=[2, 7, 2], label=4)

analytic = backward_batch(forward_batch([example], params, hp), params, hp)
numeric = finite_difference_grad([example], params, hp, h=1e-5)

name = "att_score"
diff = np.abs(analytic[name] - numeric[name]).max()
print(f"\nfor {name}:")
print(f"  analytic {analytic[name]}")
print(f"  numeric  {numeric[name]}")
print(f"  largest entry difference: {diff:.3e}")
