"""Mini-batch training with neighbourhood sampling.

The paper's comparator (Dist-DGL, Tables 7–9) and its stated future work
("we expect to demonstrate highly scalable DistGNN for mini-batch
training") both revolve around fan-out neighbourhood sampling.  This
package makes that pipeline executable on the same substrates:

- :mod:`repro.sampling.sampler` — fan-out neighbour sampling producing a
  stack of bipartite *message-flow blocks* (frontier -> frontier), the
  structure DGL calls MFGs.
- :mod:`repro.sampling.minibatch_trainer` — mini-batch GraphSAGE training
  over sampled blocks, with the paper's per-hop work accounting attached
  so measured runs can be compared against Table 7's model.
"""

from repro.sampling.sampler import MessageFlowBlock, NeighborSampler, SampledBatch
from repro.sampling.minibatch_trainer import MiniBatchTrainer
from repro.sampling.dist_minibatch import DistMiniBatchTrainer

#: Generation of the sampler's RNG stream (absent = 1, the per-vertex loop):
#: bumped when a seed stops producing the same batches (the fingerprint gate).
SAMPLER_EPOCH = 2

__all__ = [
    "NeighborSampler",
    "MessageFlowBlock",
    "SampledBatch",
    "MiniBatchTrainer",
    "DistMiniBatchTrainer",
    "SAMPLER_EPOCH",
]
