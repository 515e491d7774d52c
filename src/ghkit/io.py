"""Text file formats: spaces (.msp), correspondences (.corr), hedgehogs (.hh),
gluing trees (.tree), chains (.chain).

Rationals are written `p/q` (or a bare integer) everywhere, so files
round-trip losslessly.  Lines starting with `#` and blank lines are ignored
in every format.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

from .correspondences import Correspondence
from .dynamics import ThreadChain
from .gluing import GluedSpace, GluingTree
from .hedgehogs import HedgehogSpec
from .spaces import PSEUDO, STRICT, FiniteMetricSpace, check_points, validate_grid


class ParseError(ValueError):
    def __init__(self, path: str | Path, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")


_INTEGER = r"[+-]?[0-9]+"  # ASCII digits only: no underscores, no other scripts
_INTEGER_TOKEN = re.compile(_INTEGER)
_RATIONAL = re.compile(rf"{_INTEGER}(?:/[0-9]+)?")


def parse_integer(token: str) -> int:
    """A `[+-]?[0-9]+` token, the grammar of a rational's p; anything else
    `int()` would take (`1_0`, non-ASCII digits, spaces) is a `ValueError`
    naming the token."""
    if _INTEGER_TOKEN.fullmatch(token):
        return int(token)
    raise ValueError(f"bad integer {token!r}")


def parse_fraction(token: str) -> Fraction:
    """A `p/q` or bare-integer token: ASCII digits, a sign only before p.

    Anything else (underscores, non-ASCII digits, a signed q, a zero q) is a
    `ValueError` naming the token.
    """
    if _RATIONAL.fullmatch(token):
        num, _, den = token.partition("/")
        if not den:
            return Fraction(int(num))
        if int(den):
            return Fraction(int(num), int(den))
    raise ValueError(f"bad rational {token!r}")


def format_fraction(value: Fraction) -> str:
    return str(value)


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


# ---------------------------------------------------------------------------
# spaces


def dump_space(space: FiniteMetricSpace) -> str:
    """The .msp text of a space, read off its grid: each distinct value is
    formatted once, and the `Fraction` matrix `dist` is not built.  Raises
    `ValueError` when the label line would not read back as the labels: a
    label that is empty, holds whitespace, or starts the line with `#`."""
    label_line = " ".join(space.labels)
    if label_line.startswith("#") or tuple(label_line.split()) != space.labels:
        raise ValueError(f"labels {space.labels!r} do not read back from one line")
    denom, rows = space.grid
    text = {v: format_fraction(Fraction(v, denom)) for v in set().union(*rows)}
    out = [f"points {len(space)} {space.mode}", label_line]
    out.extend([" ".join(map(text.__getitem__, row)) for row in rows])
    return "\n".join(out) + "\n"


def parse_space(text: str, source: str | Path = "<string>") -> FiniteMetricSpace:
    """The space of a .msp text; errors name `source` and the line.

    Each distinct token is parsed once, and the grid and the `Fraction` view
    are built from that table; `validate_grid` then makes `validate`'s
    checks, with its errors.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError(source, 1, "empty space file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "points":
        raise ParseError(source, lineno, "expected header: points <n> <mode>")
    try:
        n = parse_integer(parts[1])
    except ValueError:
        raise ParseError(source, lineno, f"bad point count {parts[1]!r}") from None
    if n < 1:
        raise ParseError(source, lineno, f"point count {n} is below 1")
    check_points(f"space file {source} has", n)  # before any row is read
    mode = parts[2]
    if mode not in (STRICT, PSEUDO):
        raise ParseError(source, lineno, f"unknown mode {mode!r}")
    if len(lines) != n + 2:
        raise ParseError(
            source, lineno, f"expected {n + 2} content lines, found {len(lines)}"
        )
    label_lineno, label_line = lines[1]
    labels = tuple(label_line.split())
    if len(labels) != n:
        raise ParseError(source, label_lineno, f"expected {n} labels")
    rows = []
    values: dict[str, Fraction] = {}  # each distinct token parsed once
    for lineno, row_line in lines[2:]:
        tokens = row_line.split()
        if len(tokens) != n:
            raise ParseError(source, lineno, f"expected {n} entries")
        try:
            for tok in tokens:
                if tok not in values:
                    values[tok] = parse_fraction(tok)
        except ValueError as exc:
            raise ParseError(source, lineno, str(exc)) from None
        rows.append(tokens)
    # the grid straight from the token table: L is the lcm of the reduced
    # denominators, so it is canonical, and each token is scaled once
    denom = math.lcm(*{value.denominator for value in values.values()})
    ints = {
        tok: value.numerator * (denom // value.denominator)
        for tok, value in values.items()
    }
    grid = tuple([tuple(map(ints.__getitem__, tokens)) for tokens in rows])
    dist = tuple([tuple(map(values.__getitem__, tokens)) for tokens in rows])
    return validate_grid(labels, (denom, grid), dist, mode)


def load_space(path: str | Path) -> FiniteMetricSpace:
    return parse_space(Path(path).read_text(), source=path)


# ---------------------------------------------------------------------------
# correspondences


def dump_correspondence(rel: Correspondence) -> str:
    return "\n".join(f"{i} {j}" for i, j in rel.sorted_pairs()) + "\n"


def parse_correspondence(
    text: str,
    left: FiniteMetricSpace,
    right: FiniteMetricSpace,
    source: str | Path = "<string>",
) -> Correspondence:
    pairs = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(source, lineno, "expected: <left index> <right index>")
        try:
            i, j = parse_integer(tokens[0]), parse_integer(tokens[1])
        except ValueError:
            raise ParseError(source, lineno, "indices must be integers") from None
        if not (0 <= i < len(left) and 0 <= j < len(right)):
            raise ParseError(source, lineno, f"pair ({i}, {j}) out of range")
        pairs.add((i, j))
    try:  # emptiness and surjectivity are properties of the whole file
        return Correspondence(left, right, frozenset(pairs))
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def load_correspondence(
    path: str | Path, left: FiniteMetricSpace, right: FiniteMetricSpace
) -> Correspondence:
    return parse_correspondence(Path(path).read_text(), left, right, source=path)


# ---------------------------------------------------------------------------
# hedgehogs


def dump_hedgehog(spec: HedgehogSpec) -> str:
    return (
        "\n".join(
            f"{format_fraction(length)} {mult}" for length, mult in spec.needles
        )
        + "\n"
    )


def parse_hedgehog(text: str, source: str | Path = "<string>") -> HedgehogSpec:
    pairs = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) not in (1, 2):
            raise ParseError(source, lineno, "expected: <length> [multiplicity]")
        try:
            length = parse_fraction(tokens[0])
            mult = parse_integer(tokens[1]) if len(tokens) == 2 else 1
        except ValueError as exc:
            raise ParseError(source, lineno, str(exc)) from None
        if length <= 0:
            raise ParseError(source, lineno, "needle lengths must be positive")
        if mult < 1:
            raise ParseError(source, lineno, "multiplicities must be positive")
        pairs.append((length, mult))
    if not pairs:
        raise ParseError(source, 1, "empty hedgehog file")
    return HedgehogSpec.from_pairs(pairs)  # cannot refuse: every pair was checked


def load_hedgehog(path: str | Path) -> HedgehogSpec:
    return parse_hedgehog(Path(path).read_text(), source=path)


# ---------------------------------------------------------------------------
# gluing trees and chains (reference other files by relative path)


def load_gluing_tree(path: str | Path) -> GluingTree:
    """Tree file: `vertex <id> <space.msp>` lines, then `edge <u> <v> <R.corr>`."""
    path = Path(path)
    base = path.parent
    vertices: dict[int, FiniteMetricSpace] = {}
    raw_edges: list[tuple[int, int, int, str]] = []
    for lineno, line in _content_lines(path.read_text()):
        tokens = line.split()
        if tokens[0] == "vertex" and len(tokens) == 3:
            (vertex,) = _vertex_ids(path, lineno, tokens[1:2])
            if vertex in vertices:
                raise ParseError(path, lineno, f"vertex {vertex} is defined twice")
            vertices[vertex] = load_space(base / tokens[2])
        elif tokens[0] == "edge" and len(tokens) == 4:
            u, v = _vertex_ids(path, lineno, tokens[1:3])
            raw_edges.append((lineno, u, v, tokens[3]))
        else:
            raise ParseError(path, lineno, "expected vertex/edge line")
    if sorted(vertices) != list(range(len(vertices))):
        raise ParseError(path, 1, "vertex ids must be 0..n-1")
    for lineno, u, v, _ in raw_edges:
        if u not in vertices or v not in vertices:
            raise ParseError(path, lineno, f"edge ({u}, {v}) names an undefined vertex")
    ordered = tuple(vertices[i] for i in range(len(vertices)))
    edges = tuple(
        (u, v, load_correspondence(base / rel_path, ordered[u], ordered[v]))
        for _, u, v, rel_path in raw_edges
    )
    return GluingTree(ordered, edges)


def _vertex_ids(path: Path, lineno: int, tokens: list[str]) -> list[int]:
    try:
        return [parse_integer(token) for token in tokens]
    except ValueError:
        raise ParseError(
            path, lineno, f"vertex ids must be integers, got {' '.join(tokens)}"
        ) from None


def load_chain(path: str | Path) -> ThreadChain:
    """Chain file: alternating `space <X.msp>` and `link <R.corr>` lines."""
    path = Path(path)
    base = path.parent
    spaces: list[FiniteMetricSpace] = []
    link_paths: list[str] = []
    for lineno, line in _content_lines(path.read_text()):
        tokens = line.split()
        if tokens[0] == "space" and len(tokens) == 2:
            spaces.append(load_space(base / tokens[1]))
        elif tokens[0] == "link" and len(tokens) == 2:
            link_paths.append(tokens[1])
        else:
            raise ParseError(path, lineno, "expected space/link line")
    if len(link_paths) != max(len(spaces) - 1, 0):
        raise ParseError(path, 1, "a chain of k spaces needs k-1 links")
    links = tuple(
        load_correspondence(base / link_path, spaces[i], spaces[i + 1])
        for i, link_path in enumerate(link_paths)
    )
    return ThreadChain(tuple(spaces), links)


# ---------------------------------------------------------------------------
# gluing provenance sidecar


def provenance_lines(glued: GluedSpace) -> list[str]:
    return [
        f"{glued.carrier.labels[g]} {vertex} {local}"
        for g, (vertex, local) in enumerate(glued.provenance)
    ]


def dump_provenance(glued: GluedSpace) -> str:
    return "\n".join(provenance_lines(glued)) + "\n"
