"""Random scattering media and linear field propagation.

A medium is a dense complex matrix S mapping n_in controlled input modes
to m_out detected output modes, E_out = S @ E_in. Entries are drawn
i.i.d. circular-symmetric complex Gaussian with per-entry variance
transmission / n_in, so a unit-amplitude input of n_in modes carries an
expected total output power of m_out * transmission / n_in and every
output mode shows fully developed speckle (exponential intensity
statistics, unit contrast).

Matrix-sized work runs in blocks of ROW_BLOCK output rows on a thread
pool (``map_row_blocks``). ``draw_block`` draws block b from its own
stream, (MEDIUM, b) in ``rng``, so the matrix bytes do not depend on how
many workers run the blocks, nor on whether the blocks are drawn into one
matrix (``generate_medium``) or one at a time by a caller that never holds
the whole matrix. ``propagate_rows`` takes one dot product per output row
rather than a threaded BLAS mat-vec, whose worker threads keep spinning
after the call and would take cores from the pool; an output mode's field
therefore depends only on its own row.

The SMX1 container is written the same way: ``create_smx`` writes the
header, and ``write_smx_rows`` writes any run of rows at its own offset
with ``os.pwrite``, so blocks may land in any order and from any thread.
``save_smx`` writes a whole matrix through them. ``create_smx`` overwrites
an existing file in place rather than truncating it on open: freeing a
large file's blocks can stall the run's next file opens behind the
filesystem's journal. A failure inside ``create_smx`` leaves the file
empty, never a full-size file with an earlier run's rows.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, DimensionError, FormatError, StatisticsError, as_array, require_all_finite, require_finite,
                     require_integer)
from . import rng

SMX_MAGIC = b"SMX1"
_SMX_HEADER = struct.Struct("<QQ")

# output rows per random stream; fixes the output bytes, so it is not a knob
ROW_BLOCK = 64


def map_row_blocks(fn: Callable[..., object], n_rows: int, per_worker: Optional[Callable[[], object]] = None) -> list:
    """Return [fn(block) for every block of ROW_BLOCK rows], run on a thread pool.

    The pool has one worker per usable core, and no more than there are
    blocks; the results keep block order. With one worker the blocks run
    in the calling thread.

    With ``per_worker``, the calling thread calls it once per worker before
    the pass, and each block runs as fn(block, state) with the state of the
    worker that runs it: a worker can reuse one set of buffers for all its
    blocks.
    """
    blocks = range(-(-n_rows // ROW_BLOCK))
    workers = min(len(blocks), _cpu_count())
    if per_worker is not None:
        states = [per_worker() for _ in range(workers)]
        local = threading.local()

        def task(block):
            if not hasattr(local, "state"):  # the worker's first block
                local.state = states.pop()
            return fn(block, local.state)
    else:
        task = fn
    if workers == 1:
        return [task(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, blocks))


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
    """Dense (m_out, n_in) complex transfer matrix, immutable once built.

    The constructor copies its argument into a new aligned C-ordered
    array, so the caller's array stays writable and later writes to it do
    not reach the matrix. Arrays the package has just made for the matrix
    alone are taken over without a copy (``_adopt``).

    ``tomography.scan_fringes`` memoises its expected counts per pair
    of matrix objects and relies on this immutability: a caller that
    re-enables writes on ``.matrix`` and then changes it breaks that
    contract, and later scans of the object may return stale counts.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self._freeze(as_array(self.matrix, np.complex128, "scattering matrix entries").copy())  # C-ordered

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "ScatteringMatrix":
        """Wrap a complex128 C-ordered array that nothing else will write; no copy."""
        sm = object.__new__(cls)
        sm._freeze(entries)
        return sm

    def _freeze(self, m: np.ndarray) -> None:
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionError(f"scattering matrix must be 2-D and nonempty, got shape {m.shape}")
        require_all_finite(m, "scattering matrix entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def m_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]

    def check_output_index(self, index: int) -> None:
        """Raise ConfigError unless ``index`` is an integer, DimensionError unless it names an output mode (row)."""
        _check_index(index, self.m_out)


def as_output_field(e_out, *targets: int) -> np.ndarray:
    """``e_out`` as a complex128 array (``as_array``); DimensionError unless it is 1-D and each target names one of its modes."""
    field = as_array(e_out, np.complex128, "output field amplitudes")
    if field.ndim != 1:
        raise DimensionError(f"output field must be 1-D, got shape {field.shape}")
    for target in targets:
        _check_index(target, field.shape[0])
    return field


def _check_index(index: int, m_out: int) -> None:
    require_integer(**{"target index": index})
    if not 0 <= index < m_out:
        raise DimensionError(f"target index {index} outside output range [0, {m_out})")


@dataclass(frozen=True)
class MediumConfig:
    n_in: int
    m_out: int
    transmission: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integer(1, n_in=self.n_in, m_out=self.m_out)
        require_integer(0, seed=self.seed)
        require_finite(transmission=self.transmission)
        if not (0.0 < self.transmission <= 1.0):
            raise ConfigError(f"transmission must lie in (0, 1], got {self.transmission}")


def generate_medium(config: MediumConfig) -> ScatteringMatrix:
    """Draw a random medium; bit-identical for identical configs.

    Real and imaginary parts of each entry are independent N(0,
    transmission / (2 n_in)), giving E|S_mn|^2 = transmission / n_in.
    Block b of ROW_BLOCK rows is ``draw_block(config, b, ...)``.
    """
    entries = np.empty((config.m_out, config.n_in), dtype=np.complex128)
    map_row_blocks(lambda block: draw_block(config, block, row_block(entries, block)), config.m_out)
    return ScatteringMatrix._adopt(entries)


def draw_block(config: MediumConfig, block: int, rows: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw the rows of ``block`` into ``rows`` and return it.

    ``rows`` is a complex128 array of the block's shape: ROW_BLOCK rows,
    fewer in a partial last block, by n_in. The block draws its real
    parts, then its imaginary parts, from stream (MEDIUM, block) of the seed.
    The normals land in ``scratch``, a C-ordered float64 array of that
    shape, or in a new array when it is None.
    """
    scale = np.sqrt(config.transmission / (2.0 * config.n_in))
    gen = rng.generator(config.seed, rng.MEDIUM, block)
    np.multiply(gen.standard_normal(rows.shape, out=scratch), scale, out=rows.real)
    np.multiply(gen.standard_normal(rows.shape, out=scratch), scale, out=rows.imag)
    return rows


def propagate(sm: ScatteringMatrix, e_in: np.ndarray) -> np.ndarray:
    """Apply E_out = S @ E_in for a single input field, one dot product per row."""
    vec = as_array(e_in, np.complex128, "input field amplitudes")
    if vec.ndim != 1 or vec.shape[0] != sm.n_in:
        raise DimensionError(f"input field length {vec.shape} does not match n_in={sm.n_in}")
    require_all_finite(vec, "input field amplitudes")
    return propagate_rows(sm.matrix, vec)


def propagate_rows(rows: np.ndarray, e_in: np.ndarray) -> np.ndarray:
    """The output field of ``rows`` of a matrix for the checked input field ``e_in``, one dot product per row."""
    return np.vecdot(np.conj(e_in), rows)


def speckle_contrast(intensities: np.ndarray) -> float:
    """Population standard deviation over mean of an intensity sample.

    Fully developed speckle has exponential intensity statistics, hence
    contrast 1; a uniform field has contrast 0.
    """
    arr = as_array(intensities, np.float64, "intensities", StatisticsError)
    if arr.size == 0:
        raise StatisticsError("speckle contrast of an empty sample is undefined")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise StatisticsError("intensities must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # any overflow, in the mean too, leaves the std inf or NaN
        mean, std = float(arr.mean()), float(arr.std())
    if not np.isfinite(std):
        raise StatisticsError(f"speckle contrast overflows float64: standard deviation {std}")
    if mean <= 0.0:
        raise StatisticsError("speckle contrast is undefined for zero mean intensity")
    return std / mean


def save_smx(path, sm: ScatteringMatrix) -> None:
    """Write the bit-exact SMX1 container of ``sm`` (layout: ``create_smx``)."""
    with create_smx(path, sm.m_out, sm.n_in) as fh:
        write_smx_rows(fh, 0, sm.matrix)


@contextmanager
def create_smx(path, m_out: int, n_in: int):
    """Create the SMX1 file ``path`` for an m_out x n_in matrix with its header; yield it open for ``write_smx_rows``.

    Layout: magic b"SMX1", m_out and n_in as little-endian uint64, then
    row-major entries as (real, imag) little-endian float64 pairs.

    An existing file is overwritten in place, never truncated on open: it
    is sized to the container's length, so a file of that length keeps its
    blocks. If anything after the open raises, the body included, the file
    is truncated to 0 bytes, so no earlier run's rows survive in a file
    ``load_smx`` would accept.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
            os.ftruncate(fh.fileno(), len(SMX_MAGIC) + _SMX_HEADER.size + 16 * m_out * n_in)
            _pwrite_all(fh, SMX_MAGIC + _SMX_HEADER.pack(m_out, n_in), 0)
            yield fh
        except BaseException:
            os.ftruncate(fh.fileno(), 0)
            raise


def write_smx_rows(fh, first_row: int, rows: np.ndarray) -> None:
    """Write ``rows`` into the SMX1 file ``fh`` from ``create_smx``, starting at row ``first_row``.

    Each call writes at its own offset, so calls may come in any order and
    from several threads at once.
    """
    payload = memoryview(np.ascontiguousarray(rows, dtype="<c16")).cast("B")
    _pwrite_all(fh, payload, len(SMX_MAGIC) + _SMX_HEADER.size + first_row * rows.shape[1] * 16)


def _pwrite_all(fh, data, offset: int) -> None:
    """os.pwrite until every byte of ``data`` is written (one call may write fewer)."""
    data = memoryview(data)
    while data:
        written = os.pwrite(fh.fileno(), data, offset)
        data, offset = data[written:], offset + written


def load_smx(path) -> ScatteringMatrix:
    header_len = len(SMX_MAGIC) + _SMX_HEADER.size
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(header_len)
        if len(header) < header_len:
            raise FormatError(f"SMX1 file truncated: {size} bytes is shorter than the header")
        if header[: len(SMX_MAGIC)] != SMX_MAGIC:
            raise FormatError(f"bad magic {header[:4]!r}, expected {SMX_MAGIC!r}")
        m_out, n_in = _SMX_HEADER.unpack_from(header, len(SMX_MAGIC))
        if m_out < 1 or n_in < 1:
            raise FormatError(f"invalid dimensions {m_out}x{n_in} in SMX1 header")
        expected = header_len + 16 * m_out * n_in
        if size != expected:
            raise FormatError(f"SMX1 payload size mismatch: have {size} bytes, expected {expected}")
        # one aligned array read from the file: a view of the file's bytes would sit off the 8-byte grid
        entries = np.fromfile(fh, dtype="<c16", count=m_out * n_in)
    return ScatteringMatrix._adopt(entries.reshape(m_out, n_in))
