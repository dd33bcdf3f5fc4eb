"""Core domain types: datasets, model selections and orderings, plus the
group sizes of the grouped statistic.

Everything here is immutable after construction. Arrays are copied in and
marked read-only so instances can be shared freely across worker threads.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _int(v, what: str, must_be: str = "an integer", minimum: int | None = None) -> int:
    """v as an int; ConfigError, saying what must be, unless v is an
    integer of at least minimum (if given). A NumPy integer is one; a bool
    is not, as in config files."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ConfigError(f"{what} must be {must_be}, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{what} must be at least {minimum}")
    return int(v)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Binary outcomes plus a real covariate matrix with named columns.

    Construction checks every invariant and raises DataError on the first
    one broken: y one-dimensional with at least one row, x one row per
    outcome, one distinct name per column, y all 0 or 1, x all finite.

    y is stored as integers so the "0 or 1" invariant is exact and code that
    branches on y never has to reason about float equality.
    """

    y: np.ndarray
    x: np.ndarray
    names: tuple[str, ...]

    def __init__(self, y, x, names=None):
        # y passes through float so that a fraction is caught as non-binary
        # instead of being truncated to an integer
        yarr = np.array(y, dtype=np.float64)
        xarr = np.array(x, dtype=np.float64, ndmin=2, copy=True)
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(xarr.shape[1]))
        names = tuple(str(s) for s in names)
        _check_dataset(yarr, xarr, names)
        object.__setattr__(self, "y", _frozen(yarr.astype(np.int64)))
        object.__setattr__(self, "x", _frozen(xarr))
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    def column(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigError(f"unknown variable {name!r}; have {list(self.names)}") from None

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.x, other.x)
        )


def _check_binary(y: np.ndarray) -> None:
    """Raise DataError naming the first value of y that is not exactly 0 or 1."""
    bad = np.nonzero((y != 0) & (y != 1))[0]
    if bad.size:
        raise DataError(f"non-binary dependent value at row {int(bad[0]) + 1}")


def _check_dataset(y: np.ndarray, x: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise DataError naming the first Dataset invariant that y, x and
    names break. Names are counted before the cells are checked, so that a
    non-finite cell can always be named."""
    if y.ndim != 1:
        raise DataError(f"dependent variable must be one-dimensional, got shape {y.shape}")
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError(
            f"covariate matrix shape {x.shape} does not match {y.shape[0]} observations"
        )
    if y.shape[0] < 1:
        raise DataError("dataset has no observations")
    _check_binary(y)
    if len(names) != x.shape[1]:
        raise DataError(f"{len(names)} names for {x.shape[1]} covariate columns")
    nf = np.argwhere(~np.isfinite(x))
    if nf.size:
        i, j = nf[0]
        raise DataError(f"non-finite covariate at row {int(i) + 1}, column {names[int(j)]!r}")
    if len(set(names)) != len(names):
        dup = next(s for s in names if names.count(s) > 1)
        raise DataError(f"duplicate variable name {dup!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which covariate columns (by index) form a model. May be empty.

    The intercept is always fitted and is not part of the selection.
    """

    included: tuple[int, ...] = ()

    def __init__(self, included=()):
        inc = tuple(_int(j, "column indices", "integers") for j in included)
        if len(set(inc)) != len(inc):
            raise ConfigError(f"duplicate column index in model selection {inc}")
        object.__setattr__(self, "included", inc)

    @property
    def l(self) -> int:
        return len(self.included)

    def check_against(self, d: Dataset) -> None:
        for j in self.included:
            if not 0 <= j < d.m:
                raise ConfigError(f"column index {j} out of range for {d.m} covariates")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """A maximum-likelihood logistic fit: intercept, slope coefficients and
    the n fitted means, clamped strictly inside (0,1)."""

    intercept: float
    coefficients: np.ndarray
    mu: np.ndarray
    converged: bool
    iterations: int

    def __init__(self, intercept, coefficients, mu, converged, iterations):
        object.__setattr__(self, "intercept", float(intercept))
        object.__setattr__(self, "coefficients", _frozen(np.asarray(coefficients, dtype=np.float64).copy()))
        object.__setattr__(self, "mu", _frozen(np.asarray(mu, dtype=np.float64).copy()))
        object.__setattr__(self, "converged", bool(converged))
        object.__setattr__(self, "iterations", int(iterations))


class OrderingPolicy(enum.Enum):
    BY_FULL_MU = "mu-full"
    BY_TESTED_MU = "mu-tested"
    BY_RESIDUAL = "residual"
    GIVEN = "given"


@dataclass(frozen=True, eq=False)
class Ordering:
    """A permutation of observation indices, given as integers."""

    sigma: np.ndarray

    def __init__(self, sigma):
        sig = np.asarray(sigma)
        if not np.issubdtype(sig.dtype, np.integer):
            raise DataError(f"ordering entries must be integers, got dtype {sig.dtype}")
        sig = _frozen(sig.astype(np.int64))
        n = sig.shape[0]
        if not np.array_equal(np.sort(sig), np.arange(n)):
            raise DataError("ordering is not a permutation of 0..n-1")
        object.__setattr__(self, "sigma", sig)


def default_grouping(n: int, g: int) -> tuple[int, ...]:
    """The sizes of g consecutive groups over n observations: the first g-1
    of size ceil(n/g), the last takes the remainder. Errors when the
    remainder would be empty."""
    n, g = _int(n, "the observation count"), _int(g, "the group count")
    if g < 1 or g > n:
        raise ConfigError(f"cannot split {n} observations into {g} groups")
    head = math.ceil(n / g)
    last = n - (g - 1) * head
    if last < 1:
        raise ConfigError(
            f"{g} groups of {head} leave no observations for the last group (n={n})"
        )
    return (head,) * (g - 1) + (last,)
