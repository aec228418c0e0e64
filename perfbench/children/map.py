"""Scripted map candidate for the line protocol.

Usage: python3 map.py echo|<literal>

Requests are ``UPSET <literal>`` or ``APFUNC <literal>``.  ``echo``
answers with the request's own literal (the identity map); any other
argument is a constant map answering that literal to every request.
"""

import sys


def main() -> None:
    out = sys.argv[1]
    for line in sys.stdin:
        literal = line.split(" ", 1)[1].strip()
        sys.stdout.write((literal if out == "echo" else out) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
