"""
Anatomy of one forward pass
===========================

Runs a single prefix, as a batch of one, through a freshly initialized
model and prints the intermediate tensors the trace carries: node latents
after propagation, per-position latents, attention coefficients, the
blended scoring vector, and the resulting distribution over next items.
Every array of the trace has a leading batch axis; row 0 is the example.
"""

import numpy as np

from casif import HyperParams, PrefixExample, forward_batch, init_params

np.set_printoptions(precision=4, suppress=True)

NUM_ITEMS = 8
hp = HyperParams(d=6, gnn_steps=1)
params = init_params(NUM_ITEMS, hp, seed=42)

# Predict what follows [3, 1, 4, 1]; the true next click was item 5.
example = PrefixExample(prefix=[3, 1, 4, 1], label=5)
trace = forward_batch([example], params, hp)
probs = trace.probs[0]

print(f"prefix {example.prefix}, label {example.label}")
print(f"graph nodes {trace.graphs.nodes[0].tolist()}, alias {trace.graphs.alias[0].tolist()}")

# Propagation starts from each node's embedding row and exchanges messages
# along the session edges; one latent per distinct item comes out.
print(f"\nnode latents after {hp.gnn_steps} propagation step(s):")
print(trace.h_nodes[0])

# The alias map copies node latents back out to clicked positions, so the
# two clicks of item 1 share a latent.
print("\nper-position latents (rows 1 and 3 are the same item):")
print(trace.h_pos[0])
assert np.array_equal(trace.h_pos[0, 1], trace.h_pos[0, 3])

# Attention weighs each position against the last click and the session
# mean.  The coefficients are used as-is, without normalizing to sum to
# one, so their scale carries signal too.
print(f"\nattention coefficients: {trace.alpha[0]}")
print(f"attention context:      {trace.att_context[0]}")

# Two small tanh layers turn the context into a general-interest vector
# and the last click into a current-interest vector; their elementwise
# product is scored against every embedding row.
print(f"\nblend vector: {trace.blend[0]}")

print("\ndistribution over next items:")
order = np.argsort(-probs)
for idx in order:
    marker = " <- label" if idx == example.label else ""
    print(f"  item {idx}: {probs[idx]:.4f}{marker}")
print(f"\nloss at these (random) weights: {trace.losses[0]:.4f}")

# The simplified variant skips the conditioning: attention sees each
# position alone, and the context is scored directly with no interest
# layers on top.
hp_s = HyperParams(d=6, gnn_steps=1, variant="casif_s")
params_s = init_params(NUM_ITEMS, hp_s, seed=42)
trace_s = forward_batch([example], params_s, hp_s)
print(f"\nsimplified variant on the same prefix: loss {trace_s.losses[0]:.4f}")
print(f"its blend vector is the attention context itself: "
      f"{np.array_equal(trace_s.blend, trace_s.att_context)}")
