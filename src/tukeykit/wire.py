"""Line protocols for external map candidates and machines.

Maps: one request per line, ``<KIND> <literal>``, answered by a single
representation literal.  Kinds are UPSET and APFUNC with the literal
syntaxes of the core modules.

Machines: ``QUERY <prefix-bits> <m>`` answered by ``0``, ``1`` or ``U``;
an empty prefix is sent as ``-``.
"""

from __future__ import annotations

import select
import subprocess
from dataclasses import dataclass, field

from .apfuncs import APFunc, parse_apfunc
from .triples import MachineBudgetError
from .upsets import UPSet, parse_upset


@dataclass
class LineProcess:
    """A child process spoken to line by line; unanswered requests turn
    into budget errors after the timeout.  The child is started once and
    never restarted: a machine keeps its state between queries, so a
    child that has exited is reported, not replaced."""

    command: list[str]
    timeout: float = 10.0
    _proc: subprocess.Popen | None = field(default=None, repr=False)

    def _ensure(self, line: str) -> subprocess.Popen:
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        code = self._proc.poll()
        if code is not None:
            raise MachineBudgetError(f"external process (exited with code {code})", line)
        return self._proc

    def ask(self, line: str) -> str:
        proc = self._ensure(line)
        try:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], self.timeout)
            if not ready:
                raise MachineBudgetError("external process (timeout)", line)
            answer = proc.stdout.readline()
        except MachineBudgetError:
            raise
        except (BrokenPipeError, OSError) as exc:
            raise MachineBudgetError("external process", line) from exc
        if not answer:
            raise MachineBudgetError("external process", line)
        return answer.strip()

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()


def _format(value) -> str:
    if isinstance(value, UPSet):
        return f"UPSET {value.literal()}"
    if isinstance(value, APFunc):
        return f"APFUNC {value.literal()}"
    raise TypeError(f"cannot send {value!r} over the wire")


def _parse(text: str):
    if "|" in text:
        return parse_upset(text)
    return parse_apfunc(text)


@dataclass
class SubprocessMap:
    """A total map implemented by an external executable."""

    process: LineProcess

    def __call__(self, value):
        return _parse(self.process.ask(_format(value)))


def subprocess_map(command: list[str]) -> SubprocessMap:
    return SubprocessMap(LineProcess(command))


@dataclass
class SubprocessMachine:
    """A continuous machine implemented by an external executable."""

    process: LineProcess
    name: str = "external"

    def query(self, prefix: str, m: int) -> int | None:
        answer = self.process.ask(f"QUERY {prefix or '-'} {m}")
        if answer == "U":
            return None
        if answer in ("0", "1"):
            return int(answer)
        raise MachineBudgetError("external machine", (prefix, m))


def subprocess_machine(command: list[str], name: str = "external") -> SubprocessMachine:
    return SubprocessMachine(LineProcess(command), name)
