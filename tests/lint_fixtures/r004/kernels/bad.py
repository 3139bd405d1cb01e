"""R004 true positives: Graph objects crossing the kernel seam."""

from repro.graphs.graph import Graph
import numpy as np


def component_count(graph: Graph) -> np.int64:
    return np.int64(len(graph.nodes))
