"""Digest the output of a fixed set of ``limrod`` CLI commands.

Runs every command below in process through ``limrod.cli.main``, in a fresh
temporary directory, and prints one line per command:

    <sha256>  <label>

The digest covers the exit code, stdout, stderr and the bytes of every file
the command writes (the state CSV and its JSON sidecar, the branch table),
with the temporary directory's path replaced by ``<tmp>``. Two checkouts
that print the same lines behave the same on these commands, byte for byte.

The commands are the five state families at h = 1e-4, each followed by
``check``, with ``validate``, ``eval`` and ``branch``, on three materials:
``params/demo.json``, ``params/dna.json`` and a chiral p = 1.5 variant of
demo (iota = 0.3, shear threshold about 2.32) that the tool writes into
its temporary directory. Then loads whose Q*^{p/2} overflows, and a
negative number in scientific notation; a ``branch`` with an infinite
bound, one with a NaN bound and one from -1e308 to 1e308, whose span
overflows; and error cases:
non-finite inputs, out-of-range inputs, and malformed or too short
configuration CSVs handed to ``check``, with one whose row has a d3 of
length 2 and one whose row has a left-handed frame.

Run it from the repository root with the package to test on the path, and
compare two checkouts with diff:

    PYTHONPATH=src python tools/cli_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_digest.py > old.txt
    diff old.txt new.txt

``--show LABEL`` prints the normalised outputs of the commands whose label
contains LABEL instead of digests. ``--check`` compares the lines with
those committed in ``tools/cli_digest.txt`` instead of printing them: it
prints each committed line that moved (``-``) and each new line (``+``),
and exits 1 if there is one. The committed lines were written on one host,
and the bits follow its libm, so on another host ``--check`` may report
lines that no change to the code moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from digest_baseline import check
from limrod.cli import main as limrod_main

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).with_suffix(".txt")  # the committed lines

# family -> arguments; every state uses --grid-h 1e-4
PIPELINES = [
    ("trivial", ["--n-thrust", "1.5", "--psi0", "0.3"]),
    ("trivial", ["--n-thrust", "-2.5"]),
    ("sheared", ["--n-thrust", "2.0", "--psi0", "0.3"]),
    ("twist", ["--m3", "1.0", "--theta", "0.4", "--psi0", "0.3"]),
    ("twist", ["--m3", "-3.0"]),
    ("helix", ["--m1", "1.0", "--theta", "0.9", "--psi0", "0.3"]),
    ("helix", ["--m1", "2.1700775699987633", "--theta", "0.1864463687459803"]),
    ("helix", ["--m1", "1e10", "--theta", "0.5"]),  # saturated: Q within the margin of 1
    ("bend", ["--m1", "1.0", "--psi0", "0.3"]),
    ("sheared", ["--n-thrust", "3.0"]),  # above the chiral material's threshold
]

# the chiral material: params/demo.json with these entries replaced
CHIRAL = {"iota": 0.3, "p": 1.5}

# (label, state arguments): each should exit non-zero and write nothing
BAD_STATES = [
    ("twist m3=nan", ["--family", "twist", "--m3", "nan"]),
    ("helix m1=nan", ["--family", "helix", "--m1", "nan", "--theta", "0.5"]),
    ("trivial N=nan", ["--family", "trivial", "--n-thrust", "nan"]),
    ("trivial psi0=nan", ["--family", "trivial", "--n-thrust", "1", "--psi0", "nan"]),
    ("helix m1=inf", ["--family", "helix", "--m1", "inf", "--theta", "0.5"]),
    ("twist theta=nan", ["--family", "twist", "--m3", "1", "--theta", "nan"]),
    ("twist theta=4", ["--family", "twist", "--m3", "1", "--theta", "4"]),
    ("helix psi0=inf", ["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0", "inf"]),
    ("helix psi0 -inf", ["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0", "-inf"]),
    ("helix psi0=nan", ["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0", "nan"]),
    ("sheared below threshold", ["--family", "sheared", "--n-thrust", "1.0"]),
    ("sheared N=nan", ["--family", "sheared", "--n-thrust", "nan"]),
    ("sheared N=inf", ["--family", "sheared", "--n-thrust", "inf"]),
]

# (label, branch bounds): an infinite bound, finite bounds whose span overflows,
# and a NaN bound
EDGE_BRANCHES = [
    ("branch n_min=-inf", ["--n-min", "-inf", "--n-max", "2"]),
    ("branch -1e308..1e308", ["--n-min", "-1e308", "--n-max", "1e308"]),
    ("branch n_min=nan", ["--n-min", "nan", "--n-max", "2"]),
]


def _with_line6(lines: list[str], new: str | None) -> str:
    """The CSV with its line 6 (data row 5) replaced by ``new``, or deleted."""
    return "\n".join([*lines[:5], *([] if new is None else [new]), *lines[6:]]) + "\n"


def _cut(line: str, start: int, stop: int | None, *extra: str) -> str:
    return ",".join([*line.split(",")[start:stop], *extra])


def _scale_d3(line: str, factor: float) -> str:
    """The row with its d3 components times ``factor``."""
    return _cut(line, 0, 10, *(repr(factor * float(x)) for x in line.split(",")[10:]))


# kind -> malformed (or odd but valid) variant of a good CSV's lines
BAD_CSVS = {
    "columns": lambda ls: _with_line6(ls, _cut(ls[5], 0, 12)),
    "non-numeric": lambda ls: _with_line6(ls, "x," + _cut(ls[5], 1, None)),
    "nan": lambda ls: _with_line6(ls, _cut(ls[5], 0, 12, "nan")),
    "inf": lambda ls: _with_line6(ls, _cut(ls[5], 0, 12, "inf")),
    "blank": lambda ls: _with_line6(ls, ""),
    "comment": lambda ls: _with_line6(ls, "#" + ls[5]),
    "dropped row": lambda ls: _with_line6(ls, None),
    "header only": lambda ls: ls[0] + "\n",
    "one row": lambda ls: "\n".join(ls[:2]) + "\n",
    "bad header": lambda ls: "\n".join(["s,x", *ls[1:]]) + "\n",
    "empty": lambda ls: "",
    "trailing blanks": lambda ls: "\n".join(ls) + "\n\n\n",
    "crlf": lambda ls: "\r\n".join(ls) + "\r\n",
    "no final newline": lambda ls: "\n".join(ls),
    "leading blank": lambda ls: "\n" + "\n".join(ls) + "\n",
    "two rows": lambda ls: "\n".join([ls[0], ls[1], ls[-1]]) + "\n",  # s = 0 and 1
    "non-unit d3": lambda ls: _with_line6(ls, _scale_d3(ls[5], 2.0)),
    "left-handed": lambda ls: _with_line6(ls, _scale_d3(ls[5], -1.0)),
}


def run(argv: list[str], tmp: Path, outputs: list[Path]) -> bytes:
    """Normalised record of one CLI call: exit code, streams, written files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(limrod_main(argv))
        except SystemExit as exc:  # argparse usage errors
            code = f"SystemExit {exc.code!r}"
        except Exception as exc:  # an escaped exception is part of the behaviour
            code = f"raised {type(exc).__name__}: {exc}"
    parts = [f"exit {code}", "stdout:", out.getvalue(), "stderr:", err.getvalue()]
    for path in outputs:
        body = path.read_bytes().decode("utf-8", "backslashreplace") if path.exists() else None
        parts += [f"file {path.name}:", "<missing>" if body is None else body]
    return "\n".join(parts).replace(str(tmp), "<tmp>").encode("utf-8")


def commands(params_dir: Path, tmp: Path):
    """Yield (label, argv, output paths, set-up callable or None) per command."""
    demo, dna = str(params_dir / "demo.json"), str(params_dir / "dna.json")
    chiral = tmp / "chiral.json"
    chiral.write_text(json.dumps({**json.loads(Path(demo).read_text()), **CHIRAL}))
    for name, params in (("demo", demo), ("dna", dna), ("chiral", str(chiral))):
        yield f"validate {name}", ["validate", params], [], None
        for direction, comps in (
            ("forward", ["0.3", "-0.2", "0.5", "0.1", "0.0", "1.25"]),
            ("forward", ["0", "0", "0", "0", "0", "1e300"]),
            ("inverse", ["0.1", "0", "0.2", "0", "0.05", "1.1"]),
        ):
            yield f"eval {name} {direction} {' '.join(comps)}", [
                "eval", params, direction, *comps], [], None
        for fmt in ("csv", "json"):
            out = tmp / f"branch-{name}.{fmt}"
            yield f"branch {name} {fmt}", [
                "branch", params, "--n-min", "-1", "--n-max", "4", "--count", "61",
                "--format", fmt, "--out", str(out)], [out], None
        for i, (family, args) in enumerate(PIPELINES):
            out = tmp / f"{name}-{family}-{i}.csv"
            label = f"{name} {family} {' '.join(args)}"
            yield f"state {label}", [
                "state", params, "--family", family, "--grid-h", "1e-4", *args,
                "--out", str(out)], [out, out.with_suffix(".json")], None
            yield f"check {label}", ["check", str(out), params], [], None

    yield "eval forward nan", ["eval", demo, "forward", "nan", "0", "0", "0", "0", "0"], [], None
    yield "eval forward inf", ["eval", demo, "forward", "0", "0", "0", "0", "0", "inf"], [], None
    yield "eval inverse out of range", [
        "eval", demo, "inverse", "0", "0", "0", "0", "0", "1.6"], [], None
    yield "eval forward -1e300", [
        "eval", demo, "forward", "0", "0", "0", "0", "0", "-1e300"], [], None
    for label, args in (
        ("helix m1=1e200", ["--family", "helix", "--m1", "1e200", "--theta", "0.5"]),
        ("sheared N=1e200", ["--family", "sheared", "--n-thrust", "1e200"]),
    ):
        out = tmp / f"{label.split()[0]}-overflow.csv"
        yield f"state {label}", ["state", demo, *args, "--grid-h", "0.01", "--out", str(out)], [
            out, out.with_suffix(".json")], None
    for i, (label, args) in enumerate(EDGE_BRANCHES):
        out = tmp / f"edge-branch-{i}.csv"
        yield label, ["branch", demo, *args, "--count", "3", "--out", str(out)], [out], None
    for i, (label, args) in enumerate(BAD_STATES):
        out = tmp / f"bad-{i}.csv"
        yield f"state {label}", ["state", demo, *args, "--grid-h", "0.01", "--out", str(out)], [
            out, out.with_suffix(".json")], None

    good = tmp / "good.csv"
    yield "state twist for malformed CSVs", [
        "state", demo, "--family", "twist", "--m3", "1.0", "--grid-h", "0.01",
        "--out", str(good)], [good], None
    yield "check missing file", ["check", str(tmp / "missing.csv"), demo], [], None
    for i, (kind, variant) in enumerate(BAD_CSVS.items()):
        path = tmp / f"csv-{i}.csv"

        def write(path=path, variant=variant):
            lines = good.read_text(encoding="utf-8").splitlines()
            path.write_bytes(variant(lines).encode("utf-8"))

        yield f"check csv {kind}", ["check", str(path), demo], [], write


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--show", metavar="LABEL", help="print outputs of matching commands")
    mode.add_argument("--check", action="store_true", help=f"print the lines that moved from {BASELINE.name}")
    args = parser.parse_args()
    lines = []
    with tempfile.TemporaryDirectory(prefix="limrod-digest-") as name:
        tmp = Path(name)
        for label, argv, outputs, setup in commands(ROOT / "params", tmp):
            if setup is not None:
                setup()
            record = run(argv, tmp, outputs)
            if args.show is None:
                lines.append(f"{hashlib.sha256(record).hexdigest()}  {label}")
            elif args.show in label:
                print(f"== {label}\n{record.decode('utf-8')}")
    if args.check:
        return check(lines, BASELINE)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
