"""Sweep thresholds and reproducibility knobs."""

import os
from dataclasses import dataclass

from .errors import ParseError

ENV_CAP = "INVGEOM_CAP_EXHAUSTIVE"


@dataclass(frozen=True)
class SweepConfig:
    """Caps above which exhaustive sweeps degrade to seeded sampling.

    Associativity is checked over all N^3 triples up to ``assoc_exhaustive_cap``
    elements; metric triple sweeps (right-subinvariance and friends) degrade
    above ``triple_exhaustive_cap``.  Sampling always uses ``seed``.
    """

    assoc_exhaustive_cap: int = 512
    assoc_samples: int = 100_000
    triple_exhaustive_cap: int = 250
    triple_samples: int = 1_000_000
    element_cap: int = 100_000
    seed: int = 0


def default_config(cap=None):
    """SweepConfig with both exhaustive caps set to one knob.

    The knob is ``cap`` when given, else the cap environment variable when
    set; with neither, the defaults stand.
    """
    if cap is None:
        cap = os.environ.get(ENV_CAP) or None
    if cap is None:
        return SweepConfig()
    try:
        cap = int(cap)
    except ValueError:
        raise ParseError(f"{ENV_CAP} expects an integer, got {cap!r}") from None
    if cap < 0:
        raise ParseError(f"{ENV_CAP} must be non-negative, got {cap}")
    return SweepConfig(assoc_exhaustive_cap=cap, triple_exhaustive_cap=cap)
