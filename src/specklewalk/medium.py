"""Random scattering media and linear field propagation.

A medium is a dense complex matrix S mapping n_in controlled input modes
to m_out detected output modes, E_out = S @ E_in. Entries are drawn
i.i.d. circular-symmetric complex Gaussian with per-entry variance
transmission / n_in, so a unit-amplitude input of n_in modes carries an
expected total output power of m_out * transmission / n_in and every
output mode shows fully developed speckle (exponential intensity
statistics, unit contrast).

Matrix-sized work runs in blocks of ROW_BLOCK output rows on a thread
pool (``map_row_blocks``). The process has one pool and one worker count,
the cores it may run on, both fixed at import, so a pass does not pay for
starting threads; a pass called from inside a block runs inline, and a
forked child builds its own pool. ``draw_block`` draws block b from its own
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
filesystem's journal. ``write_text`` writes every other output file the
same way, and both open their file through ``_overwrite``: a failure
leaves the file empty, never holding an earlier run's bytes.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (ConfigError, DimensionError, FormatError, StatisticsError, as_array, require_all_finite, require_finite,
                     require_integer)
from . import rng

SMX_MAGIC = b"SMX1"
_SMX_HEADER = struct.Struct("<QQ")

# output rows per random stream; fixes the output bytes, so it is not a knob
ROW_BLOCK = 64


def map_row_blocks(fn: Callable[..., object], n_rows: int, per_worker: Optional[Callable[[], object]] = None) -> list:
    """Return [fn(block) for every block of ROW_BLOCK rows], run on the process's thread pool.

    The pass has one worker per usable core, counted once at import, and
    no more than there are blocks; the results keep block order. With one
    worker, or when called from a block of another pass, the blocks run in
    the calling thread. Each worker takes the next block not yet taken
    until none is left.

    With ``per_worker``, the calling thread calls it once per worker before
    the pass, and each block runs as fn(block, state) with the state of the
    worker that runs it: a worker can reuse one set of buffers for all its
    blocks.

    If blocks raise, the workers take no further block once one has, and
    the call raises the exception of the lowest such block after every
    block it started has finished: every lower block was taken before it.
    """
    blocks = range(-(-n_rows // ROW_BLOCK))
    workers = 1 if getattr(_pool_thread, "marked", False) else min(len(blocks), _WORKERS)
    run_block = fn if per_worker is not None else lambda block, state: fn(block)
    states = [per_worker() if per_worker is not None else None for _ in range(workers)]
    if workers <= 1:
        return [run_block(block, state) for state in states for block in blocks]  # one state, none without blocks
    results = [None] * len(blocks)
    failures = {}  # block -> the exception it raised
    pending = iter(blocks)  # shared by the workers; next() on it is one atomic step

    def work(state):
        for block in pending:
            try:
                results[block] = run_block(block, state)
            except BaseException as exc:
                failures[block] = exc
            if failures:
                return

    futures = [_pool.submit(work, state) for state in states]
    try:
        for future in futures:
            future.result()  # a block's exception is kept in failures, not raised here
    except BaseException:  # interrupted, or a worker failed outside its blocks: let no block outlive the call
        failures[len(blocks)] = None  # a key past every block: the workers take no further block
        wait(futures)
        raise
    if failures:
        raise failures[min(failures)]
    return results


# The process's worker count, the cores it may run on (every core where there is no CPU affinity), and its one thread
# pool, both fixed at import and shared by every pass; the pool's threads are marked, so a pass called from a block
# runs inline rather than wait on the pool it occupies.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


def _new_pool() -> ThreadPoolExecutor:  # its threads start as passes first need them
    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="specklewalk-rows", initializer=_mark_pool_thread)


def _new_pool_in_child() -> None:
    # the parent's pool threads do not exist in a forked child, though its executor would wait on them
    global _pool
    _pool = _new_pool()


_pool = _new_pool()
os.register_at_fork(after_in_child=_new_pool_in_child)


def row_block(array: np.ndarray, block: int) -> np.ndarray:
    """The rows of ``array`` that belong to ``block``."""
    return array[block * ROW_BLOCK:(block + 1) * ROW_BLOCK]


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


def output_intensities(e_out, *targets: int) -> Tuple[np.ndarray, float]:
    """The intensities |E|^2 of the output field ``e_out``, and their total as a float.

    ``e_out`` is taken as a complex128 array (``as_array``) of finite
    entries (ConfigError otherwise). DimensionError unless it is 1-D and
    each target names one of its modes. ConfigError when the total power
    is beyond float64 range.
    """
    field = as_array(e_out, np.complex128, "output field amplitudes")
    if field.ndim != 1:
        raise DimensionError(f"output field must be 1-D, got shape {field.shape}")
    require_all_finite(field, "output field amplitudes")
    for target in targets:
        _check_index(target, field.shape[0])
    with np.errstate(over="ignore"):  # a power beyond float64 range is refused below, not warned about
        intensities = np.abs(field) ** 2
        total = float(intensities.sum())
    if not np.isfinite(total):
        raise ConfigError("output field power is beyond float64 range")
    return intensities, total


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


def write_text(path, chunks) -> None:
    """Write the UTF-8 text joined from the strings ``chunks`` over the file ``path`` (``_overwrite``).

    The chunks are joined once the file is open, and the file is cut where
    the text ends, or to 0 bytes if a chunk or the write raised.
    """
    with _overwrite(path) as fh:
        data = "".join(chunks).encode("utf-8")
        _pwrite_all(fh, data, 0)
        os.ftruncate(fh.fileno(), len(data))


@contextmanager
def create_smx(path, m_out: int, n_in: int):
    """Create the SMX1 file ``path`` for an m_out x n_in matrix with its header; yield it open for ``write_smx_rows``.

    Layout: magic b"SMX1", m_out and n_in as little-endian uint64, then
    row-major entries as (real, imag) little-endian float64 pairs.

    An existing file is overwritten in place (``_overwrite``), sized to the
    container's length, so a file of that length keeps its blocks. If
    anything after the open raises, the body included, the file is cut to
    0 bytes: no earlier run's rows survive in a file ``load_smx`` accepts.
    """
    with _overwrite(path) as fh:
        os.ftruncate(fh.fileno(), len(SMX_MAGIC) + _SMX_HEADER.size + 16 * m_out * n_in)
        _pwrite_all(fh, SMX_MAGIC + _SMX_HEADER.pack(m_out, n_in), 0)
        yield fh


@contextmanager
def _overwrite(path):
    """Yield ``path`` open for unbuffered writes, never truncated on open; cut it to 0 bytes if the body raises."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
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
