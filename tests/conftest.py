import os
import signal

import pytest

#: Longest a test may run; the slowest takes about 2 s.
TEST_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not yet
    reaped: the CLI forks to format large outputs, and a benchmark run is
    refused when it leaves a process running."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else 'unreaped'}")


@pytest.fixture(autouse=True)
def fails_instead_of_hanging():
    """Fail a test that runs longer than TEST_TIMEOUT_S, where SIGALRM exists,
    so that a run that never finishes cannot stall the suite. A forked child
    does not inherit the timer."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        # No traceback: pytest cannot render a frame interrupted where Python
        # has no line number for it, and that ends the whole pytest run.
        where = f"{frame.f_code.co_filename}:{frame.f_lineno}" if frame else "unknown"
        pytest.fail(f"the test ran longer than {TEST_TIMEOUT_S} s (stopped at {where})",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
