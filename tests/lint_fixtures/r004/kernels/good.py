"""R004 non-findings: an array-first kernel."""

import numpy as np


def component_count(num_nodes: int, labels: np.ndarray) -> int:
    return int(np.unique(labels[:num_nodes]).size)
