"""Embedded example data."""
from __future__ import annotations

import numpy as np

from .datamodel import Dataset

# Finney's vasoconstriction data: 39 observations of breath volume, rate of
# inhalation, and whether a vasoconstriction response occurred. One pair of
# rows shares identical covariates, (0.98, 1.28) at 0-based rows 27 and 36;
# that is how the data were recorded.
_FINNEY_ROWS = (
    (1.57, 0.92, 1), (1.54, 1.04, 1), (1.10, 1.40, 1), (0.88, 1.18, 1),
    (0.90, 1.51, 1), (0.85, 1.54, 1), (0.78, 0.88, 0), (1.04, 1.23, 0),
    (0.95, 0.88, 0), (0.95, 0.65, 0), (0.90, 0.76, 0), (0.74, 1.44, 0),
    (0.78, 1.48, 0), (1.15, 1.37, 1), (0.88, 1.57, 1), (1.36, 1.21, 1),
    (1.51, 1.20, 1), (0.93, 1.15, 1), (1.23, 1.03, 0), (1.26, 1.26, 1),
    (0.60, 1.30, 0), (0.98, 1.13, 0), (1.13, 1.13, 0), (1.18, 1.13, 0),
    (1.20, 1.25, 1), (0.78, 1.18, 0), (1.26, 1.18, 1), (0.98, 1.28, 0),
    (1.28, 0.98, 1), (1.20, 0.60, 0), (1.43, 0.88, 1), (1.37, 0.48, 0),
    (1.04, 1.26, 0), (1.04, 1.34, 1), (1.08, 1.30, 1), (0.90, 1.52, 1),
    (0.98, 1.28, 0), (0.88, 1.28, 0), (1.11, 1.21, 1),
)

FINNEY_DEPENDENT = "response"


def finney() -> Dataset:
    """The embedded vasoconstriction dataset (n=39, covariates volume, rate)."""
    arr = np.array(_FINNEY_ROWS, dtype=np.float64)
    return Dataset(y=arr[:, 2].astype(np.int64), x=arr[:, :2], names=("volume", "rate"))
