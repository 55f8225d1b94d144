"""Random scattering media and linear field propagation.

A medium is a dense complex matrix S mapping n_in controlled input modes
to m_out detected output modes, E_out = S @ E_in. Entries are drawn
i.i.d. circular-symmetric complex Gaussian with per-entry variance
transmission / n_in, so a unit-amplitude input of n_in modes carries an
expected total output power of m_out * transmission / n_in and every
output mode shows fully developed speckle (exponential intensity
statistics, unit contrast).

Matrix-sized work runs in blocks of ROW_BLOCK output rows on a thread
pool (``map_row_blocks``). The draw gives block b its own stream,
(MEDIUM, b) in ``rng``, so the matrix bytes do not depend on how many
workers run the blocks. ``propagate`` takes one dot product per output
row rather than a threaded BLAS mat-vec, whose worker threads keep
spinning after the call and would take cores from the pool.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, StatisticsError, require_finite
from . import rng

SMX_MAGIC = b"SMX1"
_SMX_HEADER = struct.Struct("<QQ")

# output rows per random stream; fixes the output bytes, so it is not a knob
ROW_BLOCK = 64


def map_row_blocks(fn: Callable[[int], object], n_rows: int) -> list:
    """Return [fn(block) for every block of ROW_BLOCK rows], run on a thread pool.

    The pool has one worker per usable core, and no more than there are
    blocks; the results keep block order. With one worker the blocks run
    in the calling thread.
    """
    blocks = range(-(-n_rows // ROW_BLOCK))
    workers = min(len(blocks), _cpu_count())
    if workers == 1:
        return [fn(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))


def row_block(array: np.ndarray, block: int) -> np.ndarray:
    """The rows of ``array`` that belong to ``block``."""
    return array[block * ROW_BLOCK:(block + 1) * ROW_BLOCK]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Dense (m_out, n_in) complex transfer matrix, immutable once built."""

    matrix: np.ndarray
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionError(f"scattering matrix must be 2-D and nonempty, got shape {np.shape(self.matrix)}")
        if not np.all(np.isfinite(m)):
            raise ConfigError("scattering matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def m_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class MediumConfig:
    n_in: int
    m_out: int
    transmission: float = 1.0
    seed: int = 0
    mean_free_path_note: Optional[str] = None  # descriptive only, never used numerically

    def __post_init__(self):
        if self.n_in < 1 or self.m_out < 1:
            raise ConfigError(f"mode counts must be >= 1, got n_in={self.n_in}, m_out={self.m_out}")
        require_finite(transmission=self.transmission)
        if not (0.0 < self.transmission <= 1.0):
            raise ConfigError(f"transmission must lie in (0, 1], got {self.transmission}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


def generate_medium(config: MediumConfig) -> ScatteringMatrix:
    """Draw a random medium; bit-identical for identical configs.

    Real and imaginary parts of each entry are independent N(0,
    transmission / (2 n_in)), giving E|S_mn|^2 = transmission / n_in.
    Block b of ROW_BLOCK rows draws its real parts, then its imaginary
    parts, from stream (MEDIUM, b) of the seed.
    """
    scale = np.sqrt(config.transmission / (2.0 * config.n_in))
    entries = np.empty((config.m_out, config.n_in), dtype=np.complex128)

    def draw(block: int) -> None:
        gen = rng.generator(config.seed, rng.MEDIUM, block)
        rows = row_block(entries, block)
        np.multiply(gen.standard_normal(rows.shape), scale, out=rows.real)
        np.multiply(gen.standard_normal(rows.shape), scale, out=rows.imag)

    map_row_blocks(draw, config.m_out)
    meta = {
        "ensemble": "iid circular complex Gaussian",
        "seed": str(config.seed),
        "transmission": repr(config.transmission),
    }
    if config.mean_free_path_note is not None:
        meta["mean_free_path_note"] = config.mean_free_path_note
    return ScatteringMatrix(entries, meta)


def propagate(sm: ScatteringMatrix, e_in: np.ndarray) -> np.ndarray:
    """Apply E_out = S @ E_in for a single input field, one dot product per row."""
    vec = np.asarray(e_in, dtype=np.complex128)
    if vec.ndim != 1 or vec.shape[0] != sm.n_in:
        raise DimensionError(f"input field length {vec.shape} does not match n_in={sm.n_in}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError("input field amplitudes must be finite")
    return np.vecdot(np.conj(vec), sm.matrix)


def speckle_contrast(intensities: np.ndarray) -> float:
    """Population standard deviation over mean of an intensity sample.

    Fully developed speckle has exponential intensity statistics, hence
    contrast 1; a uniform field has contrast 0.
    """
    arr = np.asarray(intensities, dtype=np.float64)
    if arr.size == 0:
        raise StatisticsError("speckle contrast of an empty sample is undefined")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise StatisticsError("intensities must be finite and nonnegative")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise StatisticsError("speckle contrast is undefined for zero mean intensity")
    return float(arr.std()) / mean


def save_smx(path, sm: ScatteringMatrix) -> None:
    """Write the bit-exact SMX1 container.

    Layout: magic b"SMX1", m_out and n_in as little-endian uint64, then
    row-major entries as (real, imag) little-endian float64 pairs.
    """
    payload = memoryview(np.ascontiguousarray(sm.matrix, dtype="<c16")).cast("B")
    with open(path, "wb") as fh:
        fh.write(SMX_MAGIC)
        fh.write(_SMX_HEADER.pack(sm.m_out, sm.n_in))
        fh.write(payload)


def load_smx(path) -> ScatteringMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    header_len = len(SMX_MAGIC) + _SMX_HEADER.size
    if len(blob) < header_len:
        raise FormatError(f"SMX1 file truncated: {len(blob)} bytes is shorter than the header")
    if blob[: len(SMX_MAGIC)] != SMX_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {SMX_MAGIC!r}")
    m_out, n_in = _SMX_HEADER.unpack_from(blob, len(SMX_MAGIC))
    if m_out < 1 or n_in < 1:
        raise FormatError(f"invalid dimensions {m_out}x{n_in} in SMX1 header")
    expected = header_len + 16 * m_out * n_in
    if len(blob) != expected:
        raise FormatError(f"SMX1 payload size mismatch: have {len(blob)} bytes, expected {expected}")
    entries = np.frombuffer(blob, dtype="<c16", offset=header_len).reshape(m_out, n_in)
    return ScatteringMatrix(entries.astype(np.complex128, copy=True))
