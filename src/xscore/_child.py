"""A child process on two pipes: the plumbing of `classify.ExternalClassifier`.

Only `--classifier-cmd` loads this module, so no other start compiles it.
`Child` starts its command with `os.posix_spawnp`: the child inherits the
environment, standard error and every inheritable descriptor, with SIGPIPE
and SIGXFSZ at their defaults, and its standard input and output are new
pipes whose other ends no child inherits.  Each end is marked closed before
it is closed, so a close cut short may be repeated, or left to `__del__`,
and no descriptor is closed twice.
"""
import os
import select
import time
import warnings
from _signal import SIGKILL, SIGPIPE, SIGXFSZ  # `signal` without its enums

#: Bytes asked of the child's output in one read.
_READ_BYTES = 1 << 16


class Child:
    """A started child: its `pid`, and `returncode` once it is reaped (minus
    the signal that ended it), None before."""

    pid: int | None = None
    returncode: int | None = None
    _stdin: int | None = None
    _stdout: int | None = None

    def __init__(self, argv: list[str]):
        """Start `argv`, found on PATH; OSError if it cannot start."""
        ends: list[int] = []
        try:
            ends += os.pipe()  # the child's input: read end, write end
            ends += os.pipe()  # its output
            self.pid = os.posix_spawnp(
                argv[0], argv, os.environ,
                file_actions=[(os.POSIX_SPAWN_DUP2, ends[0], 0), (os.POSIX_SPAWN_DUP2, ends[3], 1)],
                setsigdef=(SIGPIPE, SIGXFSZ),
            )
        except BaseException:
            for fd in ends:
                os.close(fd)
            raise
        os.close(ends[0])
        os.close(ends[3])
        self._stdin, self._stdout = ends[1], ends[2]

    def pending(self) -> bytes | None:
        """What the child has written that waits to be read, read without
        blocking: None if nothing, b"" at the end of its output or once it
        is closed."""
        if self._stdin is None:
            return b""
        if select.select([self._stdout], [], [], 0)[0]:
            return os.read(self._stdout, _READ_BYTES)
        return None

    def write(self, data: bytes) -> None:
        """Write all of `data` to the child's input."""
        while data:
            data = data[os.write(self._stdin, data) :]

    def read_lines(self, count: int, wait_s: float, max_bytes: int) -> tuple[list[bytes], bytes]:
        """The child's next `count` lines, each with its newline, and the
        bytes it sent past them.  At end of file the last line may lack its
        newline and the missing lines are empty, as `readline` gives them.
        Past `wait_s` without a new line the child is killed and TimeoutError
        raised; past `max_bytes` without a newline, ValueError."""
        fd, data, held = self._stdout, b"", 0
        deadline = time.monotonic() + wait_s
        while held < count:
            if len(data) - data.rfind(b"\n") > max_bytes + 1:
                self.close(0.0)
                raise ValueError(f"a line longer than {max_bytes} bytes")
            if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                self.close(0.0)
                raise TimeoutError(f"no line within {wait_s} s")
            chunk = os.read(fd, _READ_BYTES)
            if not chunk:
                break
            data += chunk
            if ends := chunk.count(b"\n"):
                held += ends
                deadline = time.monotonic() + wait_s
        *lines, rest = data.split(b"\n", count)
        lines = [line + b"\n" for line in lines]
        if len(lines) < count:  # end of file: `rest` is the unfinished last line
            lines += [rest] + [b""] * (count - len(lines) - 1)
            rest = b""
        return lines, rest

    def close(self, wait_s: float) -> bytes:
        """End the child's input and reap the child, reading its output
        meanwhile and killing it past `wait_s`; then close its output.
        Returns the first bytes read.  A child that has exited is reaped at
        once, though a process it started may hold its output open."""
        first = b""
        if self.pid is not None and self.returncode is None:
            self._close_end("_stdin")
            first = self._reap(time.monotonic() + wait_s)
        self._close_end("_stdout")
        return first

    def _reap(self, deadline: float) -> bytes:
        watched, first, delay = [self._stdout], b"", 0.0001
        while not self._poll():
            if time.monotonic() >= deadline:
                try:
                    os.kill(self.pid, SIGKILL)
                except ProcessLookupError:  # reaped elsewhere since the poll
                    pass
                self._poll(0)
            elif select.select(watched, [], [], delay)[0]:
                if chunk := os.read(self._stdout, _READ_BYTES):
                    first = first or chunk
                else:  # end of output: wait for the exit alone
                    watched, delay = [], 0.0001
            else:
                delay = min(2 * delay, 0.05)
        if watched and select.select(watched, [], [], 0)[0]:  # written before the exit
            first = first or os.read(self._stdout, _READ_BYTES)
        return first

    def _poll(self, flags: int = os.WNOHANG) -> bool:
        """Whether the child is reaped, reaping it if it has exited (with
        `flags` 0, once it exits).  A child reaped elsewhere, as when
        SIGCHLD is ignored, exited 0, as `subprocess` has it."""
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode is not None

    def _close_end(self, end: str) -> None:
        if (fd := self.__dict__.pop(end, None)) is not None:
            os.close(fd)

    def __del__(self) -> None:
        # As `subprocess.Popen` does, a child never waited for warns, so the
        # resource-warning test run fails the test that leaked it.
        self._close_end("_stdin")
        self._close_end("_stdout")
        if self.pid is not None and self.returncode is None:
            warnings.warn(f"subprocess {self.pid} is still running", ResourceWarning, source=self)
