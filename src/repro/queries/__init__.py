"""Advanced reliability queries as clients of the batch engine (paper §2.9).

The paper notes that "many of the efficient sampling and indexing
strategies that we investigate in this work can also be employed to answer
such advanced queries".  This subpackage keeps no sampler of its own: every
number it returns is an integer hit count of the engine's world stream.

* :mod:`repro.queries.top_k` — one source, all targets: top-k most
  reliable targets (the problem BFS Sharing was designed for, paper
  §2.3), all targets above a threshold (Khan et al., EDBT'14), and the
  d-hop profile of one pair (Jin et al.'s original problem, which the
  paper generalises away from);
* :mod:`repro.queries.conditional` — reliability given observed edge/node
  states (Khan et al., TKDE'18): ordinary reliability on the conditioned
  graph.
"""

from repro.queries.conditional import (
    condition_graph,
    conditional_reliability,
    failure_impact,
)
from repro.queries.top_k import (
    all_reliabilities,
    distance_profile,
    reliable_set,
    top_k_reliable_targets,
)

__all__ = [
    "all_reliabilities",
    "condition_graph",
    "conditional_reliability",
    "distance_profile",
    "failure_impact",
    "reliable_set",
    "top_k_reliable_targets",
]
