"""Key predistribution substrate: pools, rings, intersection graphs, schemes."""

from repro.keygraphs.binomial_graph import (
    binomial_intersection_edges,
    coupled_ring_pair,
)
from repro.keygraphs.pool import KeyPool
from repro.keygraphs.rings import (
    rings_to_incidence,
    sample_binomial_rings,
    sample_class_labels,
    sample_class_rings,
    sample_uniform_rings,
)
from repro.keygraphs.schemes import (
    EschenauerGligorScheme,
    QCompositeScheme,
    shared_keys,
)
from repro.keygraphs.uniform_graph import (
    edges_from_rings,
    overlap_counts_from_rings,
    uniform_intersection_edges,
)

__all__ = [
    "binomial_intersection_edges",
    "coupled_ring_pair",
    "KeyPool",
    "rings_to_incidence",
    "sample_binomial_rings",
    "sample_class_labels",
    "sample_class_rings",
    "sample_uniform_rings",
    "EschenauerGligorScheme",
    "QCompositeScheme",
    "shared_keys",
    "edges_from_rings",
    "overlap_counts_from_rings",
    "uniform_intersection_edges",
]
