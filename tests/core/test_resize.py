"""``Redistributor.resize``: grow, shrink, and remap live data in place.

The malleability acceptance criteria: resizing to a larger or smaller
rank set works without restart, the migrated data is bitwise-equal to a
fresh scatter of the global array, old mappings raise
:class:`StaleMappingError` after the resize, and resized worlds may have
non-contiguous origin (world) rank sets.  Everything here runs under both
executors — CI repeats this module with ``DDR_EXECUTOR=process``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Redistributor, StaleMappingError
from repro.core.box import Box
from tests.conftest import spmd

BACKENDS = ("alltoallw", "p2p", "auto")

SIDE = 48  # divisible by every world size used here


def _slab(rank: int, n: int) -> Box:
    base, extra = divmod(SIDE, n)
    start = rank * base + min(rank, extra)
    rows = base + (1 if rank < extra else 0)
    return Box((0, start), (SIDE, rows))


def _field() -> np.ndarray:
    return np.arange(SIDE * SIDE, dtype=np.float32).reshape(SIDE, SIDE)


def _rows(box: Box) -> np.ndarray:
    return _field()[box.offset[1] : box.offset[1] + box.dims[1], :]


def _join_verify(result) -> None:
    """Spawned-rank worker: the adopted slice must be a fresh scatter."""
    data = result.data.reshape(result.own.np_shape())
    assert np.array_equal(data, _rows(result.own))


def _join_verify_and_exchange(result) -> None:
    """Spawned-rank worker mirroring the members' post-resize collectives
    (one setup + one exchange) — required, since a joiner that returns
    early retires and the members' next collective would wait forever."""
    _join_verify(result)
    red = result.redistributor
    red.setup([result.own], result.own)
    data = np.ascontiguousarray(result.data.reshape(result.own.np_shape()))
    again = red.gather_need([data])
    assert np.array_equal(again, _rows(result.own))


def _resize_once(comm, backend: str, new_n: int):
    """Setup, resize to ``new_n``, verify bitwise, then exchange again."""
    red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
    own = _slab(comm.rank, comm.size)
    red.setup([own], own)
    data = _rows(own).copy()
    result = red.resize(new_n, [data], _slab, worker=_join_verify_and_exchange)
    if not result.member:
        return ("left",)
    out = result.data.reshape(result.own.np_shape())
    assert np.array_equal(out, _rows(result.own))
    assert result.redistributor is red or result.comm.size > comm.size
    # Post-resize the redistributor is unmapped: setup() starts the next
    # mapping generation and ordinary exchanges resume.
    red = result.redistributor
    red.setup([result.own], result.own)
    again = red.gather_need([np.ascontiguousarray(out)])
    assert np.array_equal(again, _rows(result.own))
    return (
        "stayed",
        result.comm.rank,
        result.comm.size,
        tuple(result.comm.world_ranks),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_grow_is_bitwise_fresh_scatter(backend):
    results = spmd(3, _resize_once, backend, 5, spawn_slots=2)
    stayed = [r for r in results if r[0] == "stayed"]
    assert len(stayed) == 3
    assert all(r[2] == 5 for r in stayed)
    assert sorted(r[1] for r in stayed) == [0, 1, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_shrink_is_bitwise_fresh_scatter(backend):
    results = spmd(4, _resize_once, backend, 2)
    stayed = [r for r in results if r[0] == "stayed"]
    left = [r for r in results if r == ("left",)]
    assert len(stayed) == 2 and len(left) == 2
    assert all(r[2] == 2 for r in stayed)
    assert sorted(r[1] for r in stayed) == [0, 1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_size_remap(backend):
    results = spmd(4, _resize_once, backend, 4)
    assert all(r[0] == "stayed" and r[2] == 4 for r in results)


def _shrink_then_grow(comm, backend: str):
    """4 -> 2 -> 4: the re-grown world's origin ranks are non-contiguous
    (survivors keep world ranks 0..1, spawned ranks get fresh slots)."""
    red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
    own = _slab(comm.rank, comm.size)
    red.setup([own], own)
    first = red.resize(2, [_rows(own).copy()], _slab)
    if not first.member:
        return ("left",)
    red = first.redistributor
    red.setup([first.own], first.own)
    data = first.data.reshape(first.own.np_shape()).copy()
    second = red.resize(4, [data], _slab, worker=_join_verify)
    assert second.member
    out = second.data.reshape(second.own.np_shape())
    assert np.array_equal(out, _rows(second.own))
    return ("stayed", second.comm.rank, tuple(second.comm.world_ranks))


@pytest.mark.parametrize("backend", BACKENDS)
def test_noncontiguous_origin_ranks(backend):
    results = spmd(4, _shrink_then_grow, backend, spawn_slots=2)
    stayed = [r for r in results if r[0] == "stayed"]
    assert len(stayed) == 2
    world_ranks = stayed[0][2]
    assert len(world_ranks) == 4
    # Survivors kept their original world slots; the re-grown members got
    # fresh ones past the retired 2 and 3 — the set is non-contiguous.
    assert world_ranks[:2] == (0, 1)
    assert all(w >= 4 for w in world_ranks[2:])
    assert sorted(world_ranks) != list(
        range(min(world_ranks), min(world_ranks) + 4)
    )


def _stale_after_resize(comm, backend: str):
    red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
    own = _slab(comm.rank, comm.size)
    red.setup([own], own)
    old_mapping = red.mapping
    result = red.resize(comm.size - 1, [_rows(own).copy()], _slab)
    if not result.member:
        return True
    with pytest.raises(StaleMappingError):
        red.gather_need([_rows(result.own).copy()], mapping=old_mapping)
    # The active-mapping accessor is also gone until the next setup().
    with pytest.raises((StaleMappingError, RuntimeError)):
        red.gather_need([_rows(result.own).copy()])
    return True


@pytest.mark.parametrize("backend", BACKENDS)
def test_old_mapping_is_stale_after_resize(backend):
    assert all(spmd(3, _stale_after_resize, backend))


def _columns(rank: int, n: int) -> Box:
    cols = SIDE // n
    return Box((rank * cols, 0), (cols, SIDE))


def _migrate_rows_to_columns(comm, backend: str, single: bool):
    """Set up rows -> rows, then ``migrate`` rows -> columns beside it."""
    red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
    own = _slab(comm.rank, comm.size)
    active = red.setup([own], own)
    data = _rows(own).copy()
    need = _columns(comm.rank, comm.size)
    out = red.migrate([own], need, data if single else [data])
    c0, cols = need.offset[0], need.dims[0]
    assert out.tobytes() == np.ascontiguousarray(_field()[:, c0 : c0 + cols]).tobytes()
    # The active mapping is neither replaced nor invalidated, and exchanges.
    assert red.mapping is active and not active.stale
    assert np.array_equal(red.gather_need([data]), _rows(own))
    return True


class TestMigrate:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_output_is_the_numpy_crop_and_the_active_mapping_stays(self, backend):
        assert all(spmd(4, _migrate_rows_to_columns, backend, False))

    def test_a_single_array_is_one_own_buffer(self):
        assert all(spmd(4, _migrate_rows_to_columns, "alltoallw", True))
