"""Structure files and line-oriented reports.

A structure file has named sections.  ``atoms`` lists atom symbols,
``identity`` the subset below the identity, ``converse`` the
non-self-converse pairs (everything unlisted is self-converse), and
``facts`` one composition fact per line written ``z <= x ; y``.  An
``options`` section may switch on ``autoclose`` (or ``autoclose=true``)
to close the facts under the cycle transforms; any other option word is
a parse error.  Example:

    atoms: e d
    identity: e
    facts:
      e <= d ; d
      d <= d ; d
    options: autoclose

Reports are ordered ``stage.check = pass|fail`` lines with optional
``witness:`` continuation lines, so two runs with the same inputs and
flags produce byte-identical output.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import AtomStructure, CheckResult, StructureError, validate_atom_structure

SECTIONS = ("atoms", "identity", "converse", "facts", "options")
OPTIONS = ("autoclose",)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.rstrip()


def parse_structure(text: str) -> AtomStructure:
    """Parse a structure file into a validated atom structure."""
    section: Optional[str] = None
    atoms: list[str] = []
    identity: list[tuple[str, int]] = []
    converse_pairs: list[tuple[str, str, int]] = []
    facts: list[tuple[str, str, str, int]] = []
    options: set[str] = set()

    def feed(section_name: str, payload: str, line_no: int) -> None:
        words = payload.split()
        if section_name == "atoms":
            atoms.extend(words)
        elif section_name == "identity":
            identity.extend((w, line_no) for w in words)
        elif section_name == "converse":
            for chunk in payload.split(","):
                pair = chunk.split()
                if not pair:
                    continue
                if len(pair) != 2:
                    raise ParseError(line_no, f"converse needs pairs, got {chunk.strip()!r}")
                converse_pairs.append((pair[0], pair[1], line_no))
        elif section_name == "facts":
            if not words:
                return
            parts = payload.replace("<=", " <= ").replace(";", " ; ").split()
            if len(parts) != 5 or parts[1] != "<=" or parts[3] != ";":
                raise ParseError(line_no, f"expected 'z <= x ; y', got {payload.strip()!r}")
            facts.append((parts[2], parts[4], parts[0], line_no))
        elif section_name == "options":
            for w in words:
                option = w.removesuffix("=true")
                if option not in OPTIONS:
                    raise ParseError(line_no, f"unknown option {w!r}")
                options.add(option)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        head, sep, tail = line.partition(":")
        if sep and not line[0].isspace() and head.strip() in SECTIONS:
            section = head.strip()
            if tail.strip():
                feed(section, tail, line_no)
            continue
        if section is None:
            raise ParseError(line_no, f"content before any section: {line.strip()!r}")
        feed(section, line, line_no)

    if not atoms:
        raise ParseError(0, "no atoms declared")
    if len(set(atoms)) != len(atoms):
        raise ParseError(0, "duplicate atom symbols")
    index = {sym: i for i, sym in enumerate(atoms)}

    def look(sym: str, line_no: int) -> int:
        if sym not in index:
            raise ParseError(line_no, f"unknown atom {sym!r}")
        return index[sym]

    ident_ids = [look(s, ln) for s, ln in identity]
    conv = {}
    for a, b, ln in converse_pairs:
        conv[look(a, ln)] = look(b, ln)
    triples = [(look(x, ln), look(y, ln), look(z, ln)) for x, y, z, ln in facts]
    try:
        return validate_atom_structure(
            len(atoms),
            ident_ids,
            conv,
            triples,
            auto_close="autoclose" in options,
            names=atoms,
        )
    except StructureError as exc:
        raise ParseError(0, str(exc)) from exc


def parse_structure_file(path: str) -> AtomStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def format_structure(A: AtomStructure) -> str:
    names = [A.atom_name(a) for a in range(A.atom_count)]
    lines = ["atoms: " + " ".join(names)]
    ident = [names[a] for a in range(A.atom_count) if (1 << a) & A.identity]
    if ident:
        lines.append("identity: " + " ".join(ident))
    pairs = [
        f"{names[a]} {names[A.converse[a]]}"
        for a in range(A.atom_count)
        if A.converse[a] > a
    ]
    if pairs:
        lines.append("converse: " + ", ".join(pairs))
    lines.append("facts:")
    for x, y, z in sorted(A.cycles):
        lines.append(f"  {names[z]} <= {names[x]} ; {names[y]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failures = 0

    def add(self, stage: str, check: str, ok: bool, witness: str = "") -> None:
        self.lines.append(f"{stage}.{check} = {'pass' if ok else 'fail'}")
        if witness:
            self.lines.append(f"witness: {witness}")
        if not ok:
            self.failures += 1

    def info(self, key: str, value) -> None:
        self.lines.append(f"{key} = {value}")

    def extend_results(self, stage: str, results: Iterable[CheckResult]) -> None:
        for r in results:
            self.add(stage, r.name, r.holds, "" if r.holds else r.detail)
            if r.holds and r.detail:
                self.lines.append(f"note: {r.detail}")

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"
