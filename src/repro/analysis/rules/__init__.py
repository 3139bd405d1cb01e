"""Built-in lint rules.

:data:`RULES` is the whole catalog, in id order; ``repro lint`` runs
every rule in it (or the ``--select``ed ones).  One module per concern:

* :mod:`~repro.analysis.rules.meta` — R000 suppression hygiene;
* :mod:`~repro.analysis.rules.determinism` — R001 unseeded randomness,
  R002 wall-clock/entropy sources, R003 set/dict-order hazards,
  R008 float-reduction order in kernels;
* :mod:`~repro.analysis.rules.structure` — R004 array-first kernel
  seam, R005 worker-import hygiene;
* :mod:`~repro.analysis.rules.errors` — R006 typed exceptions on
  supervised paths;
* :mod:`~repro.analysis.rules.provenance` — R007 provenance
  completeness for result-altering CLI flags.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.analysis.registry import Rule
from repro.analysis.rules import determinism, errors, meta, provenance, structure

__all__ = ["RULES"]

RULES: Tuple[Type[Rule], ...] = (
    meta.SuppressionHygiene,
    determinism.UnseededRandomness,
    determinism.WallClockEntropy,
    determinism.UnorderedIteration,
    structure.KernelSeam,
    structure.WorkerImportHygiene,
    errors.TypedExceptions,
    provenance.ProvenanceCompleteness,
    determinism.FloatReductionOrder,
)
