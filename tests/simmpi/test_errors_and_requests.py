"""Tests for the error hierarchy and request edge cases."""

import pytest

from repro.simmpi import run
from repro.simmpi.errors import (
    CommunicatorError,
    DeadlockError,
    RequestError,
    SimMPIError,
)
from repro.simmpi.request import (
    Request,
    Status,
    completed_request,
)


def test_error_hierarchy():
    for cls in (CommunicatorError, DeadlockError, RequestError):
        assert issubclass(cls, SimMPIError)


def test_deadlock_error_lists_blocked_ranks():
    err = DeadlockError({"rank3": "wait(recv)", "rank1": "delay"})
    text = str(err)
    assert "rank1" in text and "rank3" in text
    assert err.blocked["rank3"] == "wait(recv)"


def test_status_fields():
    st = Status(source=2, tag=9, nbytes=100)
    assert (st.source, st.tag, st.nbytes) == (2, 9, 100)


def test_request_result_before_completion_rejected():
    req = Request("recv")
    assert not req.done
    with pytest.raises(RequestError):
        req.result()


def test_completed_request():
    req = completed_request("send", payload="v")
    assert req.done
    assert req.result() == "v"
    assert req.test()


def test_freed_communicator_rejects_operations():
    def prog(comm):
        comm.free()
        yield from comm.send(1, dest=0)

    with pytest.raises(CommunicatorError):
        run(prog, 1)


def test_wait_on_foreign_request_completes_normally():
    """A request completed before wait() is a no-op wait."""
    def prog(comm):
        if comm.rank == 0:
            req = yield from comm.isend(b"x", dest=1)
            yield from comm.compute(0.01)
            assert req.done  # eager send finished long ago
            yield from comm.wait(req)
            return "sent"
        data = yield from comm.recv(source=0)
        return data

    r = run(prog, 2)
    assert r.values == ["sent", b"x"]
