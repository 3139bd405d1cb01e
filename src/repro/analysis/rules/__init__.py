"""Built-in lint rules.

Importing this package registers every rule with the registry in
:mod:`repro.analysis.registry`.  One module per concern:

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

from repro.analysis.rules import (  # noqa: F401  (import-for-registration)
    determinism,
    errors,
    meta,
    provenance,
    structure,
)
