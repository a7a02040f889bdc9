"""Compare the lines a digest tool prints with the lines committed for it.

``lib_digest.py`` and ``cli_digest.py`` keep their lines in
``lib_digest.txt`` and ``cli_digest.txt`` next to them. The bits they
digest depend on the host's libm, so the committed lines hold on the host
that wrote them; ``--check`` elsewhere shows what that host's libm moves.
"""

from __future__ import annotations

from pathlib import Path


def check(lines: list[str], path: Path) -> int:
    """Print the committed lines of ``path`` that ``lines`` lacks, marked
    ``-``, and the lines of ``lines`` that ``path`` lacks, marked ``+``;
    return 1 if any line moved, else 0."""
    committed = path.read_text(encoding="utf-8").splitlines()
    printed, kept = set(lines), set(committed)
    gone = [line for line in committed if line not in printed]
    new = [line for line in lines if line not in kept]
    for mark, moved in (("-", gone), ("+", new)):
        for line in moved:
            print(f"{mark} {line}")
    return 1 if gone or new else 0
