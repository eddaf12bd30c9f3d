#!/usr/bin/env python3
"""Validates `.lumirec` flight recordings emitted by --record-anomalies and
run_doctor --record (format: docs/FORMATS.md#lumirec).

Checks, per file:
  - the magic/version line is `lumirec 1`;
  - every section appears exactly once, in canonical order, with well-typed
    operands (counted blocks — algorithm text, robot lists, event tail —
    carry exactly the announced number of lines);
  - events are well-formed: known kind, non-negative robot, rule >= -1,
    color letters, movement in NESW-, instants non-decreasing;
  - the diagnosis is one of the four enum spellings, a `cycle` witness line
    is present exactly when the diagnosis is `cycle`, and the failure line
    agrees (terminated <=> `failure ok`);
  - the `end` marker closes the file with nothing after it.

With `--doctor=PATH/TO/run_doctor` each file is additionally replayed
(`run_doctor --verify`): the re-execution must be byte-identical to the
recording, turning the schema check into a full determinism check.

Exit status 0 when every file passes, 1 otherwise (each failure printed).
Stdlib only; paths are taken as given (the e2e harness passes temp files).

`--self-test` runs the checker against ci/fixtures/check_recording/ — one
file per failure mode plus a clean one — and pins each verdict, mirroring
ci/check_trace.py.  The fixture suite is wired as a ctest entry.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DIAGNOSES = {"terminated", "cycle", "budget-exhausted", "verifier-failure"}
EVENT_KINDS = {"sync", "look", "compute", "move"}
COLORS = set("GWBR")
MOVES = set("NESW-")


class Stop(Exception):
    """Raised on a structural error that makes further parsing meaningless."""


class Reader:
    def __init__(self, where: str, text: str):
        self.where = where
        self.lines = text.split("\n")
        self.pos = 0
        self.errors: list[str] = []

    def error(self, msg: str) -> None:
        """Records `msg` against the line consumed last."""
        self.errors.append(f"{self.where}:{self.pos}: {msg}")

    def next_line(self) -> str | None:
        if self.pos >= len(self.lines):
            self.errors.append(f"{self.where}: truncated (unexpected end of file)")
            raise Stop
        line = self.lines[self.pos].rstrip("\r")
        self.pos += 1
        return line

    def expect(self, key: str) -> list[str] | None:
        """Consumes one line that must start with `key`; returns its operands.
        A mismatch or truncation raises Stop: a broken section boundary makes
        every later line a cascade of noise, so the first error is the
        verdict."""
        line = self.next_line()
        if line is None:
            raise Stop
        fields = line.split(" ")
        if not fields or fields[0] != key:
            self.error(f"expected '{key} ...', got '{line}'")
            raise Stop
        return fields[1:]


# Upper bounds of the C++ fields the reader fills (int, unsigned, long).
INT_MAX = 2**31 - 1
UINT_MAX = 2**32 - 1
LONG_MAX = 2**63 - 1

# The documented integer grammar (docs/FORMATS.md#numbers-and-tokens).
# Python's int() also takes '+2', '1_0', ' 2' and non-ASCII digits.
INTEGER = re.compile(r"-?[0-9]+")


def to_int(
    reader: Reader, text: str, what: str, minimum: int, maximum: int = LONG_MAX
) -> int | None:
    if not INTEGER.fullmatch(text):
        reader.error(f"{what} is not an integer: '{text}'")
        return None
    value = int(text)
    if value < minimum:
        reader.error(f"{what} must be >= {minimum}, got {value}")
        return None
    if value > maximum:
        reader.error(f"{what} must be <= {maximum}, got {value}")
        return None
    return value


def check_robots(reader: Reader, count: int) -> None:
    for i in range(count):
        ops = reader.expect("robot")
        if len(ops) != 4:
            reader.error(f"robot line needs 4 operands, got {len(ops)}")
            continue
        index = to_int(reader, ops[0], "robot index", 0)
        if index is not None and index != i:
            reader.error(f"robot index {index} out of order (expected {i})")
        to_int(reader, ops[1], "robot row", -(10**9), INT_MAX)
        to_int(reader, ops[2], "robot col", -(10**9), INT_MAX)
        if ops[3] not in COLORS:
            reader.error(f"robot color '{ops[3]}' not one of {sorted(COLORS)}")


def check(path: Path, doctor: Path | None = None) -> list[str]:
    where = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        return [f"{where}: unreadable ({err})"]
    r = Reader(where, text)
    try:
        check_body(r)
    except Stop:
        return r.errors
    if not r.errors and doctor is not None:
        proc = subprocess.run(
            [str(doctor), "--verify", str(path)], capture_output=True, text=True
        )
        if proc.returncode != 0:
            detail = (proc.stdout + proc.stderr).strip().replace("\n", "; ")
            r.errors.append(f"{where}: replay diverged ({detail})")
    return r.errors


def check_body(r: Reader) -> None:

    magic = r.expect("lumirec")
    if magic != ["1"]:
        r.error(f"unsupported version {magic}, expected ['1']")
        raise Stop  # nothing else is trustworthy

    ops = r.expect("capacity")
    capacity = to_int(r, ops[0], "capacity", 1) if ops and len(ops) == 1 else None
    if ops is not None and len(ops) != 1:
        r.error("capacity needs exactly 1 operand")
    ops = r.expect("detect-cycles")
    if ops is not None and ops not in (["0"], ["1"]):
        r.error(f"detect-cycles must be 0 or 1, got {ops}")
    ops = r.expect("section")
    if ops is not None and len(ops) != 1:
        r.error("section needs exactly 1 operand")
    ops = r.expect("scheduler")
    if ops is not None:
        if len(ops) != 2:
            r.error("scheduler needs exactly 2 operands (name, seed)")
        else:
            to_int(r, ops[1], "scheduler seed", 0, UINT_MAX)
    ops = r.expect("dims")
    if ops is not None:
        if len(ops) != 2:
            r.error("dims needs exactly 2 operands")
        else:
            to_int(r, ops[0], "rows", 0, INT_MAX)
            to_int(r, ops[1], "cols", 0, INT_MAX)
    ops = r.expect("topology")
    if ops is not None and len(ops) != 1:
        r.error("topology needs exactly 1 operand")
    ops = r.expect("max-steps")
    if ops is not None and len(ops) == 1:
        to_int(r, ops[0], "max-steps", 0)
    ops = r.expect("unique-actions")
    if ops is not None and ops not in (["0"], ["1"]):
        r.error(f"unique-actions must be 0 or 1, got {ops}")

    ops = r.expect("algorithm")
    alg_lines = to_int(r, ops[0], "algorithm line count", 0) if ops and len(ops) == 1 else None
    if alg_lines is None:
        raise Stop  # cannot skip an uncounted block; later errors are noise
    for _ in range(alg_lines):
        r.next_line()

    ops = r.expect("init")
    robots = to_int(r, ops[0], "initial robot count", 0) if ops and len(ops) == 1 else None
    if robots is None:
        raise Stop
    check_robots(r, robots)

    ops = r.expect("diagnosis")
    diagnosis = None
    if ops is not None:
        if len(ops) == 1 and ops[0] in DIAGNOSES:
            diagnosis = ops[0]
        else:
            r.error(f"diagnosis {ops} not one of {sorted(DIAGNOSES)}")

    has_cycle = r.pos < len(r.lines) and r.lines[r.pos].startswith("cycle ")
    if has_cycle:
        ops = r.expect("cycle")
        if ops is not None:
            if len(ops) != 3:
                r.error("cycle needs exactly 3 operands (start, length, hash)")
            else:
                to_int(r, ops[0], "cycle start", 0)
                to_int(r, ops[1], "cycle length", 1)
                if len(ops[2]) != 16 or any(c not in "0123456789abcdef" for c in ops[2]):
                    r.error(f"cycle hash '{ops[2]}' is not 16 lowercase hex digits")
    # A witness proves a loop, and a proven loop must be the verdict: the two
    # may only appear together.
    if diagnosis == "cycle" and not has_cycle:
        r.error("diagnosis is cycle but no cycle witness line follows")
    if diagnosis is not None and diagnosis != "cycle" and has_cycle:
        r.error(f"cycle witness present but diagnosis is {diagnosis}")

    ops = r.expect("events-seen")
    seen = to_int(r, ops[0], "events-seen", 0) if ops and len(ops) == 1 else None
    ops = r.expect("events")
    kept = to_int(r, ops[0], "kept event count", 0) if ops and len(ops) == 1 else None
    if kept is None:
        raise Stop
    if seen is not None and kept > seen:
        r.error(f"events {kept} exceeds events-seen {seen}")
    if capacity is not None and kept > capacity:
        r.error(f"events {kept} exceeds capacity {capacity}")
    last_instant = None
    for _ in range(kept):
        ops = r.expect("ev")
        if len(ops) != 9:
            r.error(f"ev line needs 9 operands, got {len(ops)}")
            continue
        instant = to_int(r, ops[0], "event instant", 0)
        if instant is not None:
            if last_instant is not None and instant < last_instant:
                r.error(f"event instants go backwards ({last_instant} -> {instant})")
            last_instant = instant
        if ops[1] not in EVENT_KINDS:
            r.error(f"event kind '{ops[1]}' not one of {sorted(EVENT_KINDS)}")
        to_int(r, ops[2], "event robot", 0, INT_MAX)
        to_int(r, ops[3], "event rule index", -1, INT_MAX)
        to_int(r, ops[4], "event rotation", 0, 3)
        if ops[5] not in ("0", "1"):
            r.error(f"event mirror flag must be 0 or 1, got '{ops[5]}'")
        for label, letter in (("before", ops[6]), ("after", ops[7])):
            if letter not in COLORS:
                r.error(f"event color-{label} '{letter}' not one of {sorted(COLORS)}")
        if ops[8] not in MOVES:
            r.error(f"event move '{ops[8]}' not one of {sorted(MOVES)}")

    ops = r.expect("outcome")
    terminated = None
    if ops is not None:
        if len(ops) != 2 or any(o not in ("0", "1") for o in ops):
            r.error(f"outcome needs two 0/1 flags, got {ops}")
        else:
            terminated = ops[0] == "1"
    ops = r.expect("stats")
    if ops is not None:
        if len(ops) != 4:
            r.error("stats needs exactly 4 operands")
        else:
            for name, op in zip(("instants", "activations", "moves", "color-changes"), ops):
                to_int(r, op, f"stats {name}", 0)
    ops = r.expect("failure")
    if ops is not None:
        if not (ops == ["ok"] or (len(ops) == 2 and ops[0] == "err")):
            r.error(f"failure must be 'ok' or 'err <token>', got {ops}")
        elif diagnosis == "terminated" and ops != ["ok"]:
            r.error("diagnosis terminated requires 'failure ok'")
        elif diagnosis in ("budget-exhausted", "verifier-failure") and ops == ["ok"]:
            r.error(f"diagnosis {diagnosis} requires a failure message")
    if terminated is not None and diagnosis == "terminated" and not terminated:
        r.error("diagnosis terminated but outcome says the run did not terminate")

    ops = r.expect("final")
    robots = to_int(r, ops[0], "final robot count", 0) if ops and len(ops) == 1 else None
    if robots is None:
        raise Stop
    check_robots(r, robots)

    r.expect("end")
    while r.pos < len(r.lines):
        line = r.lines[r.pos].rstrip("\r")
        r.pos += 1
        if line:
            r.error(f"content after end marker: '{line}'")
            break


def self_test() -> int:
    """Pins the checker's verdicts on the fixture recordings, exactly."""
    fixtures = REPO / "ci" / "fixtures" / "check_recording"
    failures: list[str] = []

    def expect(name: str, wanted: list[str]) -> None:
        rec = fixtures / name
        if not rec.is_file():
            failures.append(f"missing fixture {name}")
            return
        got = check(rec)
        if len(got) != len(wanted):
            failures.append(f"{name}: expected {len(wanted)} errors, got {len(got)}: {got}")
            return
        for marker, err in zip(wanted, got):
            if marker not in err:
                failures.append(f"{name}: expected error containing '{marker}', got '{err}'")

    expect("good.lumirec", [])
    expect("good_cycle.lumirec", [])
    expect("bad_magic.lumirec", ["expected 'lumirec ...'"])
    expect("bad_order.lumirec", ["expected 'dims ...'"])
    expect("bad_event.lumirec", ["event kind 'teleport'"])
    expect("bad_diagnosis.lumirec", ["not one of"])
    expect("bad_cycle_mismatch.lumirec", ["cycle witness present but diagnosis is"])
    expect("bad_failure_mismatch.lumirec", ["requires 'failure ok'"])
    expect("bad_truncated.lumirec", ["truncated"])
    expect(
        "bad_integer.lumirec",
        [
            "scheduler seed must be <= 4294967295",
            "cols is not an integer: '1_0'",
            "event rotation is not an integer: '+2'",
            "event rotation must be <= 3",
        ],
    )
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print(f"check_recording self-test: {len(failures)} failures")
    return 1 if failures else 0


def main() -> int:
    args = sys.argv[1:]
    if "--self-test" in args:
        return self_test()
    doctor: Path | None = None
    paths: list[str] = []
    for arg in args:
        if arg.startswith("--doctor="):
            doctor = Path(arg[len("--doctor="):])
        else:
            paths.append(arg)
    if not paths:
        print(
            "usage: check_recording.py [--self-test] [--doctor=RUN_DOCTOR] FILE.lumirec...",
            file=sys.stderr,
        )
        return 2
    failures: list[str] = []
    for name in paths:
        failures += check(Path(name), doctor)
    for f in failures:
        print(f, file=sys.stderr)
    print(f"check_recording: {len(paths)} files, {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
