import hashlib
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specklewalk import medium, rng
from specklewalk import (
    ConfigError,
    DimensionError,
    FormatError,
    MediumConfig,
    ScatteringMatrix,
    StatisticsError,
    conjugate_phases,
    dual_target_weights,
    enhancement,
    generate_medium,
    load_smx,
    mode_probabilities,
    propagate,
    random_mask,
    apply_mask,
    save_smx,
    scan_fringes,
    speckle_contrast,
)
from specklewalk.medium import ROW_BLOCK, SMX_MAGIC, create_smx, map_row_blocks, row_block, write_smx_rows


def test_config_validation():
    with pytest.raises(ConfigError):
        MediumConfig(n_in=0, m_out=4)
    with pytest.raises(ConfigError):
        MediumConfig(n_in=4, m_out=0)
    with pytest.raises(ConfigError):
        MediumConfig(n_in=4, m_out=4, transmission=0.0)
    with pytest.raises(ConfigError):
        MediumConfig(n_in=4, m_out=4, transmission=1.5)


def test_single_entry_variance_over_seeds():
    # Monte Carlo over seeds against the configured per-entry variance
    values = [
        abs(generate_medium(MediumConfig(n_in=1, m_out=1, transmission=1.0, seed=s)).matrix[0, 0]) ** 2
        for s in range(10_000)
    ]
    assert abs(np.mean(values) - 1.0) < 0.05


def test_column_power_scaling():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=4096, transmission=0.5, seed=3))
    column_power = float(np.sum(np.abs(sm.matrix[:, 0]) ** 2))
    expected = 4096 * 0.5 / 1024  # m_out * transmission / n_in
    assert expected == 2.0
    assert abs(column_power - expected) / expected < 0.10


def test_determinism_same_config_bit_identical(tmp_path):
    cfg = MediumConfig(n_in=16, m_out=32, transmission=0.7, seed=99)
    a = generate_medium(cfg)
    b = generate_medium(cfg)
    assert np.array_equal(a.matrix, b.matrix)
    save_smx(tmp_path / "a.smx", a)
    save_smx(tmp_path / "b.smx", b)
    assert (tmp_path / "a.smx").read_bytes() == (tmp_path / "b.smx").read_bytes()
    assert generate_medium(MediumConfig(n_in=16, m_out=32, transmission=0.7, seed=100)).matrix[0, 0] != a.matrix[0, 0]


def test_row_blocks_keep_order_and_use_at_most_one_worker_per_core(monkeypatch):
    assert map_row_blocks(lambda block: block, 3 * ROW_BLOCK + 1) == [0, 1, 2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert set(map_row_blocks(lambda block: threading.get_ident(), 8 * ROW_BLOCK)) == {threading.get_ident()}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    workers = set(map_row_blocks(lambda block: threading.get_ident(), 8 * ROW_BLOCK))
    assert threading.get_ident() not in workers and len(workers) <= 3


def test_row_blocks_give_each_worker_one_state_made_by_the_calling_thread(monkeypatch):
    # more workers than cores and a short switch interval: two threads sharing a state would meet in it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    states, made_by = [], set()

    def per_worker():
        made_by.add(threading.get_ident())
        states.append({"busy": False, "threads": set(), "blocks": 0})
        return states[-1]

    def fn(block, state):
        assert not state["busy"]
        state["busy"] = True
        state["threads"].add(threading.get_ident())
        sum(range(2000))
        state["blocks"] += 1
        state["busy"] = False
        return block

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert map_row_blocks(fn, 64 * ROW_BLOCK + 1, per_worker=per_worker) == list(range(65))
    finally:
        sys.setswitchinterval(interval)
    assert made_by == {threading.get_ident()} and len(states) == 8
    assert sum(state["blocks"] for state in states) == 65
    assert all(len(state["threads"]) <= 1 for state in states)


@pytest.fixture
def own_pool(monkeypatch):
    """The test makes the process's pool afresh, and shuts it down afterwards; the earlier pool is kept aside."""
    monkeypatch.setattr(medium, "_pool", None)
    monkeypatch.setattr(medium, "_pool_size", 0)
    yield
    medium._pool.shutdown()


def test_row_blocks_run_a_nested_pass_inline_in_block_order(monkeypatch, own_pool):
    monkeypatch.setattr(medium, "_cpu_count", lambda: 4)

    def outer(block):
        return block, map_row_blocks(lambda inner: (inner, threading.get_ident()), 3 * ROW_BLOCK), threading.get_ident()

    passes = map_row_blocks(outer, 8 * ROW_BLOCK)
    assert [block for block, _, _ in passes] == list(range(8))
    for _, inner, thread in passes:
        assert inner == [(0, thread), (1, thread), (2, thread)]  # the nested blocks ran in the thread of the outer one


def test_row_blocks_make_one_state_per_worker_of_the_pass_not_of_the_pool(monkeypatch, own_pool):
    monkeypatch.setattr(medium, "_cpu_count", lambda: 8)
    map_row_blocks(lambda block: sum(range(2000)), 64 * ROW_BLOCK)  # the pool now holds at least 8 threads
    monkeypatch.setattr(medium, "_cpu_count", lambda: 2)
    states, made_by = [], set()

    def per_worker():
        made_by.add(threading.get_ident())
        states.append({"busy": False, "threads": set(), "blocks": 0})
        return states[-1]

    def fn(block, state):
        assert not state["busy"]
        state["busy"] = True
        state["threads"].add(threading.get_ident())
        sum(range(2000))
        state["blocks"] += 1
        state["busy"] = False
        return block

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert map_row_blocks(fn, 64 * ROW_BLOCK + 1, per_worker=per_worker) == list(range(65))
    finally:
        sys.setswitchinterval(interval)
    assert made_by == {threading.get_ident()} and len(states) == 2
    assert sum(state["blocks"] for state in states) == 65
    assert all(len(state["threads"]) <= 1 for state in states)


def test_row_blocks_reuse_the_pool_threads_pass_after_pass(monkeypatch, own_pool):
    monkeypatch.setattr(medium, "_cpu_count", lambda: 2)

    def two_worker_pass():
        barrier = threading.Barrier(2, timeout=60)

        def fn(block, met):
            if not met:  # the worker's first block waits for the other worker's: the pass runs on two threads
                met.append(barrier.wait())
            return block

        assert map_row_blocks(fn, 8 * ROW_BLOCK, per_worker=list) == list(range(8))

    two_worker_pass()
    threads = threading.active_count()
    for _ in range(49):
        two_worker_pass()
    assert threading.active_count() <= threads


def test_row_blocks_raise_the_lowest_failing_block_after_the_pass(monkeypatch, own_pool):
    monkeypatch.setattr(medium, "_cpu_count", lambda: 4)
    finished = []

    def fn(block):
        if block in (5, 9):
            raise ValueError(f"block {block}")
        sum(range(2000))
        finished.append(block)
        return block

    with pytest.raises(ValueError, match="block 5"):
        map_row_blocks(fn, 40 * ROW_BLOCK)
    assert set(range(5)) <= set(finished)  # every block below the failure ran


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_draws_the_medium_on_its_own_pool(monkeypatch, tmp_path, own_pool):
    monkeypatch.setattr(medium, "_cpu_count", lambda: 2)  # two workers in the parent and, by the copy, in the child
    cfg = MediumConfig(n_in=16, m_out=4 * ROW_BLOCK, seed=103)
    parent = generate_medium(cfg).matrix.tobytes()  # the parent's pool now exists, its threads idle
    path = tmp_path / "child.sha256"

    def child():
        path.write_text(hashlib.sha256(generate_medium(cfg).matrix.tobytes()).hexdigest())

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=30)
    if process.is_alive():  # the child waits on pool threads it does not have
        process.kill()
        process.join()
        pytest.fail("the forked child hung drawing the medium")
    assert process.exitcode == 0
    assert path.read_text() == hashlib.sha256(parent).hexdigest()


def test_medium_independent_of_worker_count(monkeypatch):
    cfg = MediumConfig(n_in=24, m_out=5 * ROW_BLOCK + 7, seed=101)
    draws = []
    for cpus in ({0}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        draws.append(generate_medium(cfg).matrix.tobytes())
    assert draws[0] == draws[1]


def test_medium_blocks_draw_from_their_own_streams():
    cfg = MediumConfig(n_in=10, m_out=2 * ROW_BLOCK + 3, transmission=0.6, seed=102)
    scale = np.sqrt(cfg.transmission / (2.0 * cfg.n_in))
    expected = []
    for block, rows in enumerate((ROW_BLOCK, ROW_BLOCK, 3)):
        gen = rng.generator(cfg.seed, rng.MEDIUM, block)
        real = gen.standard_normal((rows, cfg.n_in))
        expected.append(scale * real + 1j * (scale * gen.standard_normal((rows, cfg.n_in))))
    assert np.array_equal(generate_medium(cfg).matrix, np.concatenate(expected))


def test_propagate_matches_matrix_product():
    sm = generate_medium(MediumConfig(n_in=300, m_out=200, seed=103))
    field = apply_mask(random_mask(300, seed=104))
    expected = sm.matrix @ field
    assert np.max(np.abs(propagate(sm, field) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_propagate_identity_and_permutation():
    identity = ScatteringMatrix(np.eye(2, dtype=complex))
    np.testing.assert_array_equal(propagate(identity, np.array([1.0, 1.0j])), np.array([1.0, 1.0j]))
    swap = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_array_equal(propagate(swap, np.array([1.0, 0.0])), np.array([0.0, 1.0]))


def test_propagate_hand_product():
    sm = ScatteringMatrix(np.array([[1.0, 1.0j], [2.0, -1.0]], dtype=complex))
    out = propagate(sm, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, np.array([1.0 + 1.0j, 1.0]), rtol=0, atol=1e-15)


def test_propagate_dimension_mismatch():
    sm = ScatteringMatrix(np.eye(3, dtype=complex))
    with pytest.raises(DimensionError):
        propagate(sm, np.ones(2, dtype=complex))
    with pytest.raises(ConfigError):
        propagate(sm, np.array([1.0, np.nan, 0.0], dtype=complex))


OUTPUT_INDEX_CALLERS = {
    "conjugate_phases": lambda sm, index: conjugate_phases(sm, (index,), [[1.0]]),
    "dual_target_weights": lambda sm, index: dual_target_weights(sm, 0, index, [0.0]),
    "enhancement": lambda sm, index: enhancement(propagate(sm, apply_mask(np.zeros(sm.n_in))), index),
    "mode_probabilities": lambda sm, index: mode_probabilities(propagate(sm, apply_mask(np.zeros(sm.n_in))),
                                                               (0, index), 1.0),
    "scan_fringes": lambda sm, index: scan_fringes(sm, sm, 0, index),
}


@pytest.mark.parametrize("caller", sorted(OUTPUT_INDEX_CALLERS))
@pytest.mark.parametrize("index", [-1, 8])
def test_output_index_outside_range_raises_dimension_error(caller, index):
    sm = generate_medium(MediumConfig(n_in=4, m_out=8, seed=5))
    with pytest.raises(DimensionError, match=f"target index {index} outside output range"):
        OUTPUT_INDEX_CALLERS[caller](sm, index)


def test_matrix_rejects_nonfinite():
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan + 0j
    with pytest.raises(ConfigError):
        ScatteringMatrix(bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_propagate_linearity(seed):
    gen = np.random.default_rng(seed)
    sm = ScatteringMatrix(gen.standard_normal((8, 6)) + 1j * gen.standard_normal((8, 6)))
    x = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    y = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    alpha = complex(gen.standard_normal(), gen.standard_normal())
    beta = complex(gen.standard_normal(), gen.standard_normal())
    combined = propagate(sm, alpha * x + beta * y)
    split = alpha * propagate(sm, x) + beta * propagate(sm, y)
    np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-12 * np.abs(split).max())


def test_speckle_contrast_basics():
    assert speckle_contrast(np.ones(10)) == 0.0
    assert speckle_contrast(np.array([0.0, 2.0])) == pytest.approx(1.0)
    with pytest.raises(StatisticsError):
        speckle_contrast(np.array([]))
    with pytest.raises(StatisticsError):
        speckle_contrast(np.zeros(5))


def test_fully_developed_speckle_contrast():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=4096, seed=21))
    out = propagate(sm, apply_mask(random_mask(1024, seed=22)))
    contrast = speckle_contrast(np.abs(out) ** 2)
    assert abs(contrast - 1.0) < 0.05


def test_smx_round_trip(tmp_path):
    sm = generate_medium(MediumConfig(n_in=5, m_out=7, seed=4))
    path = tmp_path / "m.smx"
    save_smx(path, sm)
    loaded = load_smx(path)
    assert loaded.m_out == 7 and loaded.n_in == 5
    assert np.array_equal(loaded.matrix, sm.matrix)


def test_smx_bytes_match_copying_writer(tmp_path):
    sm = generate_medium(MediumConfig(n_in=33, m_out=70, seed=105))
    path = tmp_path / "m.smx"
    save_smx(path, sm)
    assert np.array_equal(load_smx(path).matrix, sm.matrix)
    reference = SMX_MAGIC + (70).to_bytes(8, "little") + (33).to_bytes(8, "little") \
        + np.ascontiguousarray(sm.matrix, dtype="<c16").tobytes(order="C")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(reference).hexdigest()


def test_smx_blocks_written_in_any_order_match_save_smx(tmp_path):
    sm = generate_medium(MediumConfig(n_in=3, m_out=3 * ROW_BLOCK - 5, seed=106))
    save_smx(tmp_path / "whole.smx", sm)
    with create_smx(tmp_path / "blocks.smx", sm.m_out, sm.n_in) as fh:
        for block in (2, 0, 1):
            write_smx_rows(fh, block * ROW_BLOCK, row_block(sm.matrix, block))
    assert (tmp_path / "blocks.smx").read_bytes() == (tmp_path / "whole.smx").read_bytes()


def test_matrix_copies_the_callers_array():
    entries = np.arange(6, dtype=np.complex128).reshape(2, 3)
    sm = ScatteringMatrix(entries)
    assert entries.flags.writeable
    entries[0, 0] = 99.0
    assert sm.matrix[0, 0] == 0.0
    assert not sm.matrix.flags.writeable


def test_matrix_from_an_unaligned_view_is_aligned():
    blob = np.zeros(20 + 16 * 6, dtype=np.uint8)
    view = np.frombuffer(blob, dtype="<c16", offset=20).reshape(2, 3)
    assert not view.flags.aligned
    assert ScatteringMatrix(view).matrix.flags.aligned


def test_smx_rejects_bad_magic_and_truncation(tmp_path):
    sm = generate_medium(MediumConfig(n_in=3, m_out=3, seed=4))
    path = tmp_path / "m.smx"
    save_smx(path, sm)
    blob = path.read_bytes()

    (tmp_path / "bad_magic.smx").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_smx(tmp_path / "bad_magic.smx")

    (tmp_path / "short.smx").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_smx(tmp_path / "short.smx")

    (tmp_path / "long.smx").write_bytes(blob + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_smx(tmp_path / "long.smx")

    (tmp_path / "header_only.smx").write_bytes(blob[:10])
    with pytest.raises(FormatError):
        load_smx(tmp_path / "header_only.smx")


def test_smx_layout_is_little_endian_row_major(tmp_path):
    sm = ScatteringMatrix(np.array([[1.0 + 2.0j, 3.0 - 4.0j]], dtype=complex))
    path = tmp_path / "m.smx"
    save_smx(path, sm)
    blob = path.read_bytes()
    assert blob[:4] == b"SMX1"
    assert int.from_bytes(blob[4:12], "little") == 1
    assert int.from_bytes(blob[12:20], "little") == 2
    floats = np.frombuffer(blob[20:], dtype="<f8")
    np.testing.assert_array_equal(floats, [1.0, 2.0, 3.0, -4.0])
