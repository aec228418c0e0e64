"""Scripted continuous machine for the line protocol.

Usage: python3 machine.py identity|nonmonotone

Requests are ``QUERY <prefix-bits> <m>`` (empty prefix sent as ``-``);
answers are ``0``, ``1`` or ``U``.

identity     answers bit m of the prefix once the prefix reaches it.
nonmonotone  answers 1 only on prefixes that end in 1 and hold an odd
             number of ones, so a decided answer does not survive the
             zero padding the adversary engine applies.
"""

import sys


def identity(bits: str, m: int) -> str:
    return bits[m] if m < len(bits) else "U"


def nonmonotone(bits: str, m: int) -> str:
    if m < len(bits) and bits.endswith("1") and bits.count("1") % 2 == 1:
        return "1"
    return "U"


def main() -> None:
    rule = {"identity": identity, "nonmonotone": nonmonotone}[sys.argv[1]]
    for line in sys.stdin:
        _, bits, m = line.split()
        sys.stdout.write(rule("" if bits == "-" else bits, int(m)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
