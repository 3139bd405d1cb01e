"""repro — secure k-connectivity of WSNs under q-composite key predistribution
with on/off channels.

A faithful, laptop-scale reproduction of:

    Jun Zhao. "Secure connectivity of wireless sensor networks under key
    predistribution with on/off channels." ICDCS 2017.

The package layers:

* :mod:`repro.probability` — overlap distributions, limit laws, couplings;
* :mod:`repro.kernels` — the three pure-numpy hot-path kernels:
  min-label union, overlap counting, and the exact k-connectivity
  decision with its Nagamochi–Ibaraki sparse certificate;
* :mod:`repro.graphs` — from-scratch graph algorithms (union-find, Tarjan,
  Even-style ISAP k-connectivity) and the Erdős–Rényi generator;
* :mod:`repro.keygraphs` — key pools, rings, uniform/binomial
  q-intersection graphs, scheme objects;
* :mod:`repro.channels` — on/off and disk channels as parameter records
  and array masks;
* :mod:`repro.wsn` — deployed networks, routing, failures, capture attacks;
* :mod:`repro.core` — Theorem 1, Lemmas 1/7/8/9, design guidelines (Eq. 9);
* :mod:`repro.simulation` — the Monte Carlo execution substrate: warm
  pools, the fault-tolerant scheduler, estimators and result containers;
* :mod:`repro.study` — the declarative Scenario/Study layer and the one
  sampler of the model: every experiment as a frozen JSON config
  compiled onto shared-deployment sweeps;
* :mod:`repro.experiments` — every figure/table of the paper, declared
  as scenarios and runnable.

Quickstart::

    from repro import MetricSpec, QCompositeParams, Scenario, predict_k_connectivity
    from repro.study import run_scenario

    params = QCompositeParams(
        num_nodes=1000, key_ring_size=45, pool_size=10000,
        overlap=2, channel_prob=0.5,
    )
    print(predict_k_connectivity(params, k=1).probability)  # Theorem 1
    scenario = Scenario(
        name="quickstart", num_nodes=1000, pool_size=10000,
        ring_sizes=(45,), curves=((2, 0.5),),
        metrics=(MetricSpec("connectivity"),), trials=100,
    )
    print(run_scenario(scenario).bernoulli("connectivity").estimate)  # Monte Carlo
"""

from repro.exceptions import (
    DesignError,
    ExperimentError,
    GraphError,
    ParameterError,
    ReproError,
    SimulationError,
)
from repro.params import QCompositeParams
from repro.core.design import design_network, minimal_key_ring_size
from repro.core.theorem1 import (
    ConnectivityRegime,
    Theorem1Prediction,
    predict_k_connectivity,
)
from repro.keygraphs.schemes import EschenauerGligorScheme, QCompositeScheme
from repro.channels.onoff import OnOffChannel
from repro.channels.disk import DiskChannel
from repro.study import MetricSpec, Scenario, Study
from repro.wsn.network import SecureWSN

__version__ = "1.0.0"

__all__ = [
    "DesignError",
    "ExperimentError",
    "GraphError",
    "ParameterError",
    "ReproError",
    "SimulationError",
    "QCompositeParams",
    "design_network",
    "minimal_key_ring_size",
    "ConnectivityRegime",
    "Theorem1Prediction",
    "predict_k_connectivity",
    "EschenauerGligorScheme",
    "QCompositeScheme",
    "OnOffChannel",
    "DiskChannel",
    "MetricSpec",
    "Scenario",
    "Study",
    "SecureWSN",
    "__version__",
]
