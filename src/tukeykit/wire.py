"""Line protocols for external map candidates and machines.

Maps: one request per line, ``<KIND> <literal>``, answered by a single
representation literal.  Kinds are UPSET and APFUNC with the literal
syntaxes of the core modules.

Machines: ``QUERY <prefix-bits> <m>`` answered by ``0``, ``1`` or ``U``;
an empty prefix is sent as ``-``.  An answer that does not parse, like
one that never comes, is a ``MachineBudgetError``.
"""

from __future__ import annotations

import os
import select
import subprocess
import time

from .errors import MachineBudgetError


class LineProcess:
    """A child process spoken to line by line; a request not answered
    with a whole line within the timeout turns into a budget error.  The
    child is started once and never restarted: a machine keeps its state
    between queries, so a child that has exited is reported, not
    replaced.  A child that timed out is killed, since its late answer
    would otherwise be read as the answer to the next request; every
    later ask fails the same way."""

    __slots__ = ("command", "timeout", "_proc", "_pending", "_failure")

    def __init__(self, command: list[str], timeout: float = 10.0) -> None:
        self.command = command
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        # bytes the child wrote past the last answered line
        self._pending = bytearray()
        # why the child was killed, once it has been
        self._failure: str | None = None

    def _ensure(self, line: str) -> subprocess.Popen:
        if self._failure is not None:
            raise MachineBudgetError(self._failure, line)
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
            # writes return early on a full pipe instead of blocking
            os.set_blocking(self._proc.stdin.fileno(), False)
        code = self._proc.poll()
        if code is not None:
            raise _exited(code, line)
        return self._proc

    def ask(self, line: str) -> str:
        proc = self._ensure(line)
        deadline = time.monotonic() + self.timeout
        buf = self._pending

        def expire() -> MachineBudgetError:
            self._failure = "external process (timeout)"
            proc.kill()
            proc.wait()
            return MachineBudgetError(self._failure, line)

        def wait(readable=(), writable=()) -> None:
            left = deadline - time.monotonic()
            if left <= 0 or not any(select.select(readable, writable, [], left)[:2]):
                raise expire()

        def reap() -> MachineBudgetError:
            # the child closed its end of a pipe, as it does on exit:
            # wait out the deadline for its exit code
            try:
                code = proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                return expire()
            return _exited(code, line)

        try:
            # the raw descriptors are used against one deadline, so a
            # child that stops reading, or stops mid-line, cannot block
            # past the timeout
            request = memoryview(line.encode() + b"\n")
            fd_in, fd_out = proc.stdin.fileno(), proc.stdout.fileno()
            while request:
                wait(writable=[fd_in])
                request = request[os.write(fd_in, request) :]
            scanned = 0
            while (end := buf.find(b"\n", scanned)) < 0:
                scanned = len(buf)
                wait(readable=[fd_out])
                chunk = os.read(fd_out, 65536)
                if not chunk:
                    raise reap()
                buf += chunk
        except MachineBudgetError:
            raise
        except BrokenPipeError:
            raise reap() from None
        except OSError as exc:
            raise MachineBudgetError("external process", line) from exc
        answer = buf[:end].decode()
        del buf[: end + 1]
        return answer.strip()

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()


def _exited(code: int, line: str) -> MachineBudgetError:
    return MachineBudgetError(f"external process (exited with code {code})", line)


# the value modules load with the first map request, so a machine's
# run never compiles them
def _format(value) -> str:
    from .apfuncs import APFunc
    from .upsets import UPSet

    if isinstance(value, UPSet):
        return f"UPSET {value.literal()}"
    if isinstance(value, APFunc):
        return f"APFUNC {value.literal()}"
    raise TypeError(f"cannot send {value!r} over the wire")


def _parse(text: str):
    if "|" in text:
        from .upsets import parse_upset

        return parse_upset(text)
    from .apfuncs import parse_apfunc

    return parse_apfunc(text)


class SubprocessMap:
    """A total map implemented by an external executable."""

    __slots__ = ("process",)

    def __init__(self, process: LineProcess) -> None:
        self.process = process

    def __call__(self, value):
        answer = self.process.ask(_format(value))
        try:
            return _parse(answer)
        except ValueError as exc:
            raise MachineBudgetError("external map (answer does not parse)", value) from exc


def subprocess_map(command: list[str]) -> SubprocessMap:
    return SubprocessMap(LineProcess(command))


# a machine's answer line and the value it stands for
_ANSWERS = {"0": 0, "1": 1, "U": None}


class SubprocessMachine:
    """A continuous machine implemented by an external executable."""

    __slots__ = ("process", "name")

    def __init__(self, process: LineProcess, name: str = "external") -> None:
        self.process = process
        self.name = name

    def query(self, prefix: str, m: int) -> int | None:
        answer = self.process.ask(f"QUERY {prefix or '-'} {m}")
        if answer in _ANSWERS:
            return _ANSWERS[answer]
        raise MachineBudgetError("external machine", (prefix, m))


def subprocess_machine(command: list[str], name: str = "external") -> SubprocessMachine:
    return SubprocessMachine(LineProcess(command), name)
