"""Planar path datasets: CSV ingestion, synthetic generators, Gaussian noise.

A dataset is an ordered list of (x, y) samples.  Order is significant and
the path is treated as closed: sample N wraps around to sample 0, which is
what makes the spectral reconstruction downstream 2*pi-periodic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PathDataError",
    "PathSamples",
    "NoiseSpec",
    "load_path",
    "synth_path",
    "add_noise",
    "write_table",
]

TWO_PI = 2.0 * math.pi
# largest magnitude of a coordinate, synthetic parameter or noise scale; NaN
# fails the <= tests against it.  A noisy sample (a normal deviate is below
# 100) then stays below 1e152, so every |a_k|^2 and, by Parseval's identity,
# every energy, tail and bound (2*pi times a mean square at most) stays below
# 1.3e305, and an FFT sum over up to 1e9 samples below 1e162: all finite.
_MAGNITUDE_LIMIT = 1e150
# most samples a synthetic path, or records a CSV file, may have: a sweep of
# 1e6 samples peaks near 360 MB resident, so this many stay near 3.6 GB
_SAMPLE_LIMIT = 10**7
# lines parsed, and table rows formatted, per block: the objects one block
# makes stay within a few hundred kB, so memory follows the data, not the
# file, and a command's peak resident memory stays where per-row code left it
_BLOCK_ROWS = 512


class PathDataError(ValueError):
    """Unusable path data: parse failure, too few points, non-finite values."""


@dataclass(frozen=True, eq=False)
class PathSamples:
    """Ordered planar samples, stored as a read-only (N, 2) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise PathDataError("points must form an (N, 2) array")
        if pts.shape[0] < 2:
            raise PathDataError("a path needs at least 2 sample points")
        if not np.all(np.isfinite(pts)):
            raise PathDataError("path coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian perturbation, one standard deviation per axis.

    Deviates come from numpy's PCG64 bit generator
    (``numpy.random.default_rng(seed)``): one block of N standard normals
    for x, then one block of N for y, in that order.  The same seed and
    input always reproduce the same output bit for bit.
    """

    sigma1: float
    sigma2: float
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if not 0.0 <= v <= _MAGNITUDE_LIMIT:
                raise PathDataError(f"{name} must be finite, >= 0 and at most "
                                    f"{_MAGNITUDE_LIMIT:g}, got {v!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise PathDataError("seed must fit in an unsigned 64-bit integer")


def load_path(source) -> PathSamples:
    """Parse an ordered point list from CSV: one ``x,y`` record per line.

    ``source`` is the path of a UTF-8 file; a leading byte order mark is
    dropped.  A single leading header line is skipped when its first field is
    not numeric.  Blank lines are ignored.
    Malformed records raise :class:`PathDataError` naming the offending line,
    and so does a file of more than ``_SAMPLE_LIMIT`` records.

    The file is read in blocks of ``_BLOCK_ROWS`` lines, each parsed with one
    ``float`` map and one magnitude check; only a block that fails them is
    rescanned line by line, to name its first bad line.
    """
    blocks, count, lineno = [], 0, 0
    header_open = True  # the first non-blank line may still be a header
    try:
        with open(source, encoding="utf-8-sig") as fh:
            # each block ends in a newline, so splitting a block's text splits
            # the file's at the same places
            while lines := "".join(itertools.islice(fh, _BLOCK_ROWS)).splitlines():
                records = list(filter(None, map(str.strip, lines)))
                header = header_open and bool(records) and not _is_number(
                    records[0].split(",", 1)[0].strip())
                block = _parse_block(records[header:])
                if block is None:
                    _raise_first_bad_line(lines, lineno, header_open)
                header_open = header_open and not records
                lineno += len(lines)
                count += len(block)
                if count > _SAMPLE_LIMIT:
                    raise PathDataError(f"the file has more than {_SAMPLE_LIMIT} records, "
                                        "the most a path may have")
                blocks.append(block)
    except UnicodeDecodeError:
        # the reader's decoder reports a position within its current chunk;
        # decoding the whole file reports it within the file
        Path(source).read_text(encoding="utf-8-sig")
        raise
    if count < 2:
        raise PathDataError("need at least 2 data points")
    return PathSamples(np.concatenate(blocks))


def write_table(fh, header: str, columns) -> None:
    """Write ``header`` and one CSV line per row of the 1-D ``columns``.

    Every value is printed as ``%.17g``, so a double reads back exactly and
    an integer below 2**53 prints without a decimal point; the bytes are
    those of ``np.savetxt(fh, table, fmt="%.17g", delimiter=",",
    header=header, comments="")``.  Rows are formatted ``_BLOCK_ROWS`` at a
    time, with one string operation per block.
    """
    table = np.column_stack(columns)
    if table.shape[1] != len(columns):
        raise ValueError("every table column must be 1-D")
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    fh.write(header + "\n")
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def synth_path(kind: str, n: int, params=()) -> PathSamples:
    """Uniformly sampled closed test curves; sample i sits at parameter
    2*pi*i/n.

    kinds and their parameter lists (missing entries take the defaults):

    * ``circle``:    [radius=1]
    * ``ellipse``:   [rx=2, ry=1]
    * ``lissajous``: [a=3, b=2, delta=0] giving x = cos(a*t + delta),
      y = sin(b*t); a and b must be positive integers so the curve closes.
    """
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= _SAMPLE_LIMIT:
        raise PathDataError(f"n must be an integer in 2..{_SAMPLE_LIMIT}, got {n!r}")
    t = TWO_PI * np.arange(n) / n
    if kind == "circle":
        (radius,) = _fill_params(params, (1.0,), "circle")
        if radius <= 0:
            raise PathDataError("circle radius must be > 0")
        x, y = radius * np.cos(t), radius * np.sin(t)
    elif kind == "ellipse":
        rx, ry = _fill_params(params, (2.0, 1.0), "ellipse")
        if rx <= 0 or ry <= 0:
            raise PathDataError("ellipse semi-axes must be > 0")
        x, y = rx * np.cos(t), ry * np.sin(t)
    elif kind == "lissajous":
        a, b, delta = _fill_params(params, (3.0, 2.0, 0.0), "lissajous")
        for name, v in (("a", a), ("b", b)):
            if v <= 0 or v != int(v):
                raise PathDataError(f"lissajous frequency {name} must be a positive integer")
        x, y = np.cos(a * t + delta), np.sin(b * t)
    else:
        raise PathDataError(f"unknown synthetic path kind: {kind!r}")
    return PathSamples(np.column_stack((x, y)))


def add_noise(clean: PathSamples, spec: NoiseSpec) -> PathSamples:
    """Perturb every sample with independent Gaussian noise per axis.

    x'[n] = x[n] + sigma1 * z1[n] and y'[n] = y[n] + sigma2 * z2[n], with
    z1 and z2 independent standard-normal streams drawn as documented on
    :class:`NoiseSpec`.  Deterministic per seed.
    """
    rng = np.random.default_rng(int(spec.seed))
    z1 = rng.standard_normal(clean.n_samples)
    z2 = rng.standard_normal(clean.n_samples)
    return PathSamples(
        np.column_stack((clean.x + spec.sigma1 * z1, clean.y + spec.sigma2 * z2))
    )


def _parse_block(records: list[str]) -> np.ndarray | None:
    """The (rows, 2) points of stripped non-blank records, or None if any is bad."""
    if not records:
        return np.empty((0, 2))
    if set(map(str.count, records, itertools.repeat(","))) != {1}:
        return None
    # float() ignores the whitespace str.strip() removes around a field, all
    # but U+001F (no line holds U+001C..U+001E, which end lines)
    fields = ",".join(records).replace("\x1f", " ").split(",")
    try:
        points = np.fromiter(map(float, fields), np.float64, len(fields)).reshape(-1, 2)
    except ValueError:
        return None
    return points if np.all(np.abs(points) <= _MAGNITUDE_LIMIT) else None


def _raise_first_bad_line(lines: list[str], lineno: int, header_open: bool) -> None:
    """Raise the error of the first bad record in a block that failed the bulk
    checks; ``lineno`` is the number of the line before the block."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if header_open:
            header_open = False
            if not _is_number(fields[0]):
                continue
        if len(fields) != 2:
            raise PathDataError(
                f"line {lineno}: expected 'x,y', got {len(fields)} field(s)"
            )
        try:
            px, py = float(fields[0]), float(fields[1])
        except ValueError:
            raise PathDataError(
                f"line {lineno}: could not parse {line!r} as two numbers"
            ) from None
        if not (abs(px) <= _MAGNITUDE_LIMIT and abs(py) <= _MAGNITUDE_LIMIT):
            raise PathDataError(f"line {lineno}: coordinates must be finite and at most "
                                f"{_MAGNITUDE_LIMIT:g} in magnitude, got {line!r}")
    raise AssertionError("the bulk checks refused a block with no bad line")


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _fill_params(params, defaults, kind):
    values = [float(v) for v in params]
    if len(values) > len(defaults):
        raise PathDataError(
            f"{kind} takes at most {len(defaults)} parameter(s), got {len(values)}"
        )
    values.extend(defaults[len(values) :])
    if not all(abs(v) <= _MAGNITUDE_LIMIT for v in values):
        raise PathDataError(f"{kind} parameters must be finite and at most "
                            f"{_MAGNITUDE_LIMIT:g} in magnitude")
    return values
