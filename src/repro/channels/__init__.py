"""Channel models as parameter records and array masks.

Each kind is a frozen record of its parameters with its marginal
``edge_probability()`` and one array method, ``sample_mask``, that draws
the channel state of an ``(m, 2)`` array of candidate edges from a
generator: on/off (Erdős–Rényi) and disk (random geometric).
"""

from repro.channels.disk import DiskChannel
from repro.channels.onoff import OnOffChannel

__all__ = ["DiskChannel", "OnOffChannel"]
