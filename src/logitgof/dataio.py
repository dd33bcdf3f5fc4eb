"""CSV ingestion and export, plus injected uniform covariates.

The CSV dialect is deliberately rigid: UTF-8, comma separated, one header
row, '.' as the decimal separator, no locale handling. Exports write floats
with repr, whose shortest round-trip digits make load(export(d)) reproduce
d exactly.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .datamodel import Dataset, _int
from .errors import ConfigError, DataError


def load_csv(path, dependent_name: str) -> Dataset:
    """Read a dataset from CSV, taking covariates in header order.

    The dependent column may sit anywhere; remaining columns keep their
    header order. Parse failures name the offending data row and column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty, expected a header row") from None
    header = [h.strip() for h in header]
    if dependent_name not in header:
        raise DataError(
            f"dependent column {dependent_name!r} not in header {header}"
        )
    if header.count(dependent_name) > 1:
        raise DataError(f"header names the dependent column {dependent_name!r} twice")
    ycol = header.index(dependent_name)
    names = [h for j, h in enumerate(header) if j != ycol]
    yraw = []
    rows = []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {rownum} has {len(row)} fields, header has {len(header)}"
            )
        vals = []
        for j, cell in enumerate(row):
            if j == ycol:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"cannot parse {cell!r} at row {rownum}, column {header[j]!r}"
                ) from None
        ytxt = row[ycol].strip()
        if ytxt == "0":
            yraw.append(0)
        elif ytxt == "1":
            yraw.append(1)
        else:
            raise DataError(
                f"dependent value {ytxt!r} at row {rownum} is not 0 or 1"
            )
        rows.append(vals)
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    return Dataset(yraw, rows, names)


def export_csv(d: Dataset, dependent_name: str, path) -> None:
    """Write the dataset with the dependent column first."""
    if dependent_name in d.names:
        raise ConfigError(
            f"dependent name {dependent_name!r} collides with a covariate column"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([dependent_name, *d.names])
        for k in range(d.n):
            writer.writerow([int(d.y[k]), *(repr(float(v)) for v in d.x[k])])


def inject_uniform_covariates(d: Dataset, count: int, seed: int) -> Dataset:
    """Append count pseudo-random columns named u1, u2 and so on.

    Draws are uniform on the open interval (0,1): 53-bit integers shifted
    by half a step, so neither endpoint can occur. The same seed always
    yields the same columns.
    """
    count, seed = _int(count, "inject_uniform count", minimum=1), _int(seed, "inject_seed")
    if not 0 <= seed < 1 << 128:
        raise ConfigError("inject_seed must lie in [0, 2**128), the Philox key range")
    new_names = tuple(f"u{j + 1}" for j in range(count))
    clash = set(new_names) & set(d.names)
    if clash:
        raise ConfigError(
            f"injected name {sorted(clash)[0]!r} collides with an existing variable"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    cols = np.empty((d.n, count))
    for j in range(count):
        cols[:, j] = (rng.integers(0, 1 << 53, size=d.n) + 0.5) * 2.0**-53
    return Dataset(d.y, np.hstack([d.x, cols]), d.names + new_names)
