"""Runtime MPI sanitizer tests: opt-in wiring, deadlock conversion,
finalize-time accounting, ANY_SOURCE races, and collective checking."""

import pytest

from repro.analysis import CommSanitizer, sanitizer_enabled
from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import CommDeadlockError, DeadlockError, SanitizerError
from repro.mpi import ANY_SOURCE, ANY_TAG, SUM, Group, make_comm, run_spmd
from repro.mpi.collectives import allreduce, bcast
from repro.simcluster import Cluster, Sleep


def make_cluster(n=2, *, sanitize=True, eager=1 << 20):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e6),
        network=NetworkSpec(latency=1e-4, bandwidth=1e8, eager_threshold=eager),
        sanitize=sanitize,
    ))


# ----------------------------------------------------------------------
# opt-in wiring
# ----------------------------------------------------------------------

def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    cluster = make_cluster(sanitize=None)
    assert cluster.sanitizer is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    cluster = make_cluster(sanitize=None)
    assert isinstance(cluster.sanitizer, CommSanitizer)


def test_spec_false_overrides_env(monkeypatch):
    monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    cluster = make_cluster(sanitize=False)
    assert cluster.sanitizer is None
    assert not sanitizer_enabled(cluster.spec)


def test_spec_true_needs_no_env(monkeypatch):
    monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    cluster = make_cluster(sanitize=True)
    assert isinstance(cluster.sanitizer, CommSanitizer)


# ----------------------------------------------------------------------
# clean programs stay clean
# ----------------------------------------------------------------------

def test_clean_point_to_point_run():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=1, payload={"x": 1})
            reply, _ = yield from ep.recv(1, tag=2)
            return reply
        data, _ = yield from ep.recv(0, tag=1)
        yield from ep.send(0, tag=2, payload="ack")

    results = run_spmd(cluster, program)
    assert results[0] == "ack"
    san = cluster.sanitizer
    assert san.n_sends == san.n_matches == 2
    report = san.finalize(raise_on_error=False)
    assert report.clean


def test_clean_rendezvous_and_collectives():
    cluster = make_cluster(4, eager=64)
    group = Group([0, 1, 2, 3])

    def program(ep):
        got = yield from bcast(ep, group, ep.rank if ep.rank == 0 else None,
                               root=0)
        total = yield from allreduce(ep, group, ep.rank, SUM)
        # a rendezvous round-trip between neighbors
        peer = ep.rank ^ 1
        if ep.rank < peer:
            yield from ep.send(peer, tag=9, payload=None, nbytes=1 << 16)
            yield from ep.recv(peer, tag=10)
        else:
            yield from ep.recv(peer, tag=9)
            yield from ep.send(peer, tag=10, payload=None, nbytes=1 << 16)
        return got, total

    results = run_spmd(cluster, program)
    assert all(r == (0, 6) for r in results)
    assert cluster.sanitizer.finalize(raise_on_error=False).clean


# ----------------------------------------------------------------------
# deadlock conversion (the fail-fast service)
# ----------------------------------------------------------------------

def head_to_head(ep):
    """Classic unsafe exchange: both ranks rendezvous-send first."""
    peer = 1 - ep.rank
    yield from ep.send(peer, tag=7, payload=None, nbytes=1 << 16)
    yield from ep.recv(peer, tag=7)


def test_head_to_head_rendezvous_deadlock_is_diagnosed():
    cluster = make_cluster(eager=64)
    with pytest.raises(CommDeadlockError) as exc:
        run_spmd(cluster, head_to_head)
    err = exc.value
    assert sorted(err.cycle) == [0, 1]
    assert sorted(err.blocked) == ["rank0", "rank1"]
    msg = str(err)
    assert "communication deadlock" in msg
    assert "rendezvous send" in msg


def test_head_to_head_without_sanitizer_is_plain_deadlock():
    cluster = make_cluster(eager=64, sanitize=False)
    with pytest.raises(DeadlockError) as exc:
        run_spmd(cluster, head_to_head)
    assert not isinstance(exc.value, CommDeadlockError)


def test_recv_recv_cycle_is_diagnosed():
    cluster = make_cluster()

    def program(ep):
        peer = 1 - ep.rank
        yield from ep.recv(peer, tag=3)
        yield from ep.send(peer, tag=3, payload=None)

    with pytest.raises(CommDeadlockError) as exc:
        run_spmd(cluster, program)
    assert sorted(exc.value.cycle) == [0, 1]
    assert "blocked in recv" in str(exc.value)


def test_safe_exchange_ordering_is_not_flagged():
    """send/recv vs recv/send is legal and must not trip the detector."""
    cluster = make_cluster(eager=64)

    def program(ep):
        peer = 1 - ep.rank
        if ep.rank == 0:
            yield from ep.send(peer, tag=4, payload=None, nbytes=1 << 16)
            yield from ep.recv(peer, tag=5)
        else:
            yield from ep.recv(peer, tag=4)
            yield from ep.send(peer, tag=5, payload=None, nbytes=1 << 16)

    run_spmd(cluster, program)
    assert cluster.sanitizer.finalize(raise_on_error=False).clean


# ----------------------------------------------------------------------
# finalize-time accounting
# ----------------------------------------------------------------------

def test_unmatched_eager_send_reported_at_finalize():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=5, payload=None, nbytes=8)
        else:
            yield Sleep(0.01)

    with pytest.raises(SanitizerError, match="unmatched send"):
        run_spmd(cluster, program)
    report = cluster.sanitizer.finalize(raise_on_error=False)
    assert any("0->1 tag=5" in e for e in report.errors)
    # under a tag declared advisory (a latest-value-wins report the
    # receiver only polls for) the same leftover is a warning
    report = cluster.sanitizer.finalize(advisory_tags=(5,))
    assert report.errors == []
    assert any("advisory send unread" in w and "0->1 tag=5" in w
               for w in report.warnings)


def test_unmatched_rendezvous_isend_reported_as_rendezvous():
    # an isend above the eager threshold is a rendezvous from the start:
    # the sanitizer must report it as one, not as an eager send
    cluster = make_cluster(eager=16 * 1024)

    def program(ep):
        if ep.rank == 0:
            yield from ep.isend(1, tag=5, nbytes=1 << 20)
        yield Sleep(0.01)

    with pytest.raises(SanitizerError,
                       match=r"unmatched send: rendezvous send 0->1 tag=5"):
        run_spmd(cluster, program)


def test_messages_of_two_communicators_do_not_collide():
    # every communicator numbers its envelopes from 0: comm B's first
    # message must not stand in for (and then clear) comm A's
    cluster = make_cluster()
    comm_a, comm_b = make_comm(cluster), make_comm(cluster)

    def leaves_a_send(ep):
        if ep.rank == 0:
            yield from ep.isend(1, tag=5, payload=None, nbytes=8)
        yield Sleep(0.01)

    def exchanges_one(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=7, payload=None, nbytes=8)
        else:
            yield from ep.recv(0, 7)

    procs = [cluster.sim.spawn(program(comm.endpoint(r)), name=f"{tag}{r}",
                               node=cluster.nodes[r])
             for comm, program, tag in ((comm_a, leaves_a_send, "a"),
                                        (comm_b, exchanges_one, "b"))
             for r in range(2)]
    cluster.sim.run_all(procs)
    report = cluster.sanitizer.finalize(raise_on_error=False)
    assert report.errors == ["unmatched send: eager send 0->1 tag=5 (8B)"]


def test_incomplete_collective_warned_at_finalize():
    cluster = make_cluster()
    group = Group([0, 1])

    def program(ep):
        if ep.rank == 0:
            yield from bcast(ep, group, "v", root=0)
        else:
            yield Sleep(0.01)

    # rank 0's eager tree send is never consumed -> finalize error,
    # and the half-entered collective is reported alongside it.
    with pytest.raises(SanitizerError, match="unmatched send"):
        run_spmd(cluster, program)
    report = cluster.sanitizer.finalize(raise_on_error=False)
    assert any("incomplete collective bcast" in w for w in report.warnings)


def test_any_source_race_is_warned():
    cluster = make_cluster(3)

    def program(ep):
        if ep.rank < 2:
            yield from ep.send(2, tag=1, payload=ep.rank)
        else:
            yield Sleep(1.0)  # let both messages arrive first
            got = set()
            for _ in range(2):
                v, _ = yield from ep.recv(ANY_SOURCE, ANY_TAG)
                got.add(v)
            assert got == {0, 1}

    run_spmd(cluster, program)
    warnings = cluster.sanitizer.warnings
    assert any("ANY_SOURCE race" in w for w in warnings)


def test_collective_mismatch_raises_immediately():
    cluster = make_cluster()
    group = Group([0, 1])

    def program(ep):
        # SPMD violation: the two ranks disagree on the root
        got = yield from bcast(ep, group, ep.rank, root=ep.rank)
        return got

    with pytest.raises(SanitizerError, match="collective mismatch"):
        run_spmd(cluster, program)
