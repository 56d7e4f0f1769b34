"""Randomized stress tests of the runtime's matching and collective layers."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpisim import ANY_SOURCE, ANY_TAG
from tests.conftest import spmd


class TestMessageStorm:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_all_to_all_storm_delivers_everything(self, seed):
        """Every rank fires a random number of tagged messages at every
        other rank in random order; every payload must arrive exactly once
        at the matching (source, tag) receive."""
        nprocs = 4
        rng = np.random.default_rng(seed)
        # counts[src][dst][tag] = how many messages with that tag
        counts = rng.integers(0, 3, size=(nprocs, nprocs, 3))

        def fn(comm):
            rank = comm.rank
            local_rng = np.random.default_rng(seed * nprocs + rank)
            sends = []
            for dst in range(nprocs):
                if dst == rank:
                    continue
                for tag in range(3):
                    for k in range(counts[rank, dst, tag]):
                        sends.append((dst, tag, k))
            local_rng.shuffle(sends)
            for dst, tag, k in sends:
                comm.Send(np.array([rank * 1000.0 + tag * 100 + k]), dst, tag=tag)

            received: dict[tuple[int, int], list[float]] = {}
            for src in range(nprocs):
                if src == rank:
                    continue
                for tag in range(3):
                    for _ in range(counts[src, rank, tag]):
                        buf = np.zeros(1)
                        comm.Recv(buf, source=src, tag=tag)
                        received.setdefault((src, tag), []).append(float(buf[0]))
            for (src, tag), values in received.items():
                # Exactly-once delivery: each sequence number appears once.
                # (Posting order was shuffled, so arrival order is arbitrary
                # across sequence numbers — only the multiset is guaranteed.)
                ks = sorted(v - src * 1000 - tag * 100 for v in values)
                assert ks == list(range(counts[src, rank, tag]))
            return True

        assert all(spmd(nprocs, fn))

    def test_wildcard_receive_storm(self):
        """ANY_SOURCE/ANY_TAG receives must drain a storm without loss."""
        nprocs = 5
        per_rank = 8

        def fn(comm):
            rank = comm.rank
            if rank == 0:
                total = (comm.size - 1) * per_rank
                seen = []
                buf = np.zeros(1)
                for _ in range(total):
                    status = comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                    seen.append((status.source, int(buf[0])))
                from collections import Counter

                by_source = Counter(src for src, _ in seen)
                assert all(by_source[s] == per_rank for s in range(1, comm.size))
                return sorted(seen)
            for i in range(per_rank):
                comm.Send(np.array([float(i)]), 0, tag=i % 4)
            return None

        spmd(nprocs, fn)


class TestCollectiveSequences:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_collective_program(self, seed):
        """A random program of collectives executed in lockstep must give
        the arithmetic answer at every step, with p2p traffic interleaved."""
        rng = np.random.default_rng(seed)
        program = rng.integers(0, 4, size=12).tolist()
        nprocs = 4

        def fn(comm):
            rank = comm.rank
            for step, op in enumerate(program):
                if op == 0:
                    total = sum(comm.allgather(float(rank + step)))
                    assert total == sum(r + step for r in range(comm.size))
                elif op == 1:
                    got = comm.bcast(step if rank == step % comm.size else None,
                                     root=step % comm.size)
                    assert got == step
                elif op == 2:
                    gathered = comm.allgather((rank, step))
                    assert gathered == [(r, step) for r in range(comm.size)]
                else:
                    # interleave point-to-point in a ring
                    dest = (rank + 1) % comm.size
                    src = (rank - 1) % comm.size
                    comm.Send(np.array([float(rank)]), dest, tag=50 + step)
                    buf = np.zeros(1)
                    comm.Recv(buf, source=src, tag=50 + step)
                    assert buf[0] == float(src)
            return True

        assert all(spmd(nprocs, fn))

    def test_many_subcommunicators(self):
        """Repeated splits create isolated traffic domains."""

        def fn(comm):
            subs = [comm.Split(comm.rank % 2, key=comm.rank) for _ in range(4)]
            for index, sub in enumerate(subs):
                total = sum(sub.allgather(index))
                assert total == index * sub.size
            return True

        assert all(spmd(6, fn))

    def test_deep_alltoallw_sequence(self):
        """Many consecutive Alltoallw calls must not cross-match rounds."""
        from repro.mpisim import FLOAT, SubarrayType

        def fn(comm):
            size, rank = comm.size, comm.size and comm.rank
            n = 4 * size
            for round_index in range(10):
                send = np.full((n,), rank * 100.0 + round_index, dtype=np.float32)
                recv = np.zeros((n,), dtype=np.float32)
                stypes = [
                    SubarrayType(FLOAT, (n,), (4,), (4 * d,)) for d in range(size)
                ]
                rtypes = [
                    SubarrayType(FLOAT, (n,), (4,), (4 * s,)) for s in range(size)
                ]
                comm.Alltoallw(send, stypes, recv, rtypes)
                for s in range(size):
                    assert np.all(recv[4 * s : 4 * s + 4] == s * 100.0 + round_index)
            return True

        assert all(spmd(4, fn))
