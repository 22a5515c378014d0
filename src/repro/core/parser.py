"""A small text DSL for patterns, plus JSON-able serialization.

Peregrine exposes patterns programmatically; for a CLI and config files a
textual form is handier. The grammar, by example::

    "a-b, b-c, c-a"             triangle (vertices named, order of first
                                appearance assigns ids 0, 1, 2, ...)
    "(a, b, c) a-b"             explicit vertex declaration: fixes the id
                                order and permits isolated vertices
    "a-b, b-c, a!c"             path with an anti-edge between a and c
    "a-b-c-d-a"                 chains: consecutive pairs become edges
    "a-b [a:1, b:2]"            vertex labels in brackets
    "1-2, 2-3"                  bare integers are fine as names too

Whitespace is insignificant. ``-`` introduces a regular edge, ``!`` an
anti-edge; a chain ``a-b-c`` expands to ``a-b, b-c`` (anti-edges do not
chain). The complementary ``format_pattern`` renders any pattern back
into the DSL, and ``pattern_to_dict`` / ``pattern_from_dict`` give a
stable JSON-able form.
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.pattern import Pattern

_NAME = re.compile(r"[A-Za-z0-9_]+")
_LABEL_BLOCK = re.compile(r"\[(?P<body>[^\]]*)\]\s*$")
_DECLARATION = re.compile(r"^\((?P<body>[^)]*)\)\s*")
_CHAIN_SPLIT = re.compile(r"([!-])")


class PatternSyntaxError(ValueError):
    """The pattern expression could not be parsed."""


def parse_pattern(text: str) -> Pattern:
    """Parse the DSL into a :class:`Pattern`."""
    text = text.strip()
    if not text:
        raise PatternSyntaxError("empty pattern expression")

    labels_by_name: dict[str, int] = {}
    label_match = _LABEL_BLOCK.search(text)
    if label_match:
        for assignment in _split_nonempty(label_match.group("body"), ","):
            name, _, value = assignment.partition(":")
            name, value = name.strip(), value.strip()
            if not _NAME.fullmatch(name) or not value:
                raise PatternSyntaxError(f"bad label assignment {assignment!r}")
            try:
                labels_by_name[name] = int(value)
            except ValueError as exc:
                raise PatternSyntaxError(
                    f"label for {name!r} must be an integer, got {value!r}"
                ) from exc
        text = text[: label_match.start()].strip()

    ids: dict[str, int] = {}

    declaration = _DECLARATION.match(text)
    if declaration:
        for name in _split_nonempty(declaration.group("body"), ","):
            if not _NAME.fullmatch(name):
                raise PatternSyntaxError(f"bad vertex name {name!r}")
            if name in ids:
                raise PatternSyntaxError(f"duplicate vertex {name!r}")
            ids[name] = len(ids)
        text = text[declaration.end():].strip()

    def intern(name: str) -> int:
        name = name.strip()
        vertex = ids.get(name)  # a known name was checked when it came
        if vertex is None:
            if not _NAME.fullmatch(name):
                raise PatternSyntaxError(f"bad vertex name {name!r}")
            vertex = ids[name] = len(ids)
        return vertex

    edges: list[tuple[int, int]] = []
    anti: list[tuple[int, int]] = []
    if text and not ids and text.startswith("["):
        raise PatternSyntaxError("labels without any vertices")
    for clause in _split_nonempty(text, ","):
        tokens = [t for t in _CHAIN_SPLIT.split(clause) if t.strip() or t in "-!"]
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise PatternSyntaxError(f"malformed clause {clause!r}")
        names = tokens[0::2]
        operators = tokens[1::2]
        vertices = [intern(n) for n in names]
        for (u, v), op in zip(zip(vertices, vertices[1:]), operators):
            if u == v:
                raise PatternSyntaxError(f"self-loop on {names[0]!r} in {clause!r}")
            if op == "-":
                edges.append((u, v))
            elif op == "!":
                anti.append((u, v))
            else:  # pragma: no cover - split regex only yields - and !
                raise PatternSyntaxError(f"unknown operator {op!r}")

    if not ids:
        raise PatternSyntaxError("pattern has no vertices")
    unknown = set(labels_by_name) - set(ids)
    if unknown:
        raise PatternSyntaxError(
            f"labels for vertices not in the pattern: {sorted(unknown)}"
        )
    labels = None
    if labels_by_name:
        labels = [labels_by_name.get(name) for name in ids]
    try:
        return Pattern(len(ids), edges, anti, labels=labels)
    except ValueError as exc:
        raise PatternSyntaxError(str(exc)) from exc


def _split_nonempty(text: str, sep: str) -> list[str]:
    return [stripped for part in text.split(sep) if (stripped := part.strip())]


def format_pattern(pattern: Pattern) -> str:
    """Render a pattern back into the DSL (parse/format round-trips).

    Emits an explicit vertex declaration so the id order survives
    re-parsing exactly (and edgeless patterns are expressible).
    """
    def name(v: int) -> str:
        return f"v{v}"

    declaration = "(" + ", ".join(name(v) for v in range(pattern.n)) + ")"
    clauses = [f"{name(u)}-{name(v)}" for u, v in sorted(pattern.edges)]
    clauses += [f"{name(u)}!{name(v)}" for u, v in sorted(pattern.anti_edges)]
    text = declaration
    if clauses:
        text += " " + ", ".join(clauses)
    if pattern.labels is not None:
        labels = ", ".join(
            f"{name(v)}:{pattern.labels[v]}"
            for v in range(pattern.n)
            if pattern.labels[v] is not None
        )
        text += f" [{labels}]"
    return text


def pattern_to_dict(pattern: Pattern) -> dict[str, Any]:
    """Stable JSON-able representation."""
    out: dict[str, Any] = {
        "n": pattern.n,
        "edges": sorted(list(e) for e in pattern.edges),
        "anti_edges": sorted(list(e) for e in pattern.anti_edges),
    }
    if pattern.labels is not None:
        out["labels"] = list(pattern.labels)
    return out


def pattern_from_dict(data: dict[str, Any]) -> Pattern:
    """Inverse of :func:`pattern_to_dict`."""
    return Pattern(
        int(data["n"]),
        [tuple(e) for e in data.get("edges", [])],
        [tuple(e) for e in data.get("anti_edges", [])],
        labels=data.get("labels"),
    )
