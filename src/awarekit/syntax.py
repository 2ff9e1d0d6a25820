"""Formula language over atoms with per-agent modalities for implicit
knowledge (``l_i``), awareness (``a_i``), and explicit knowledge (``k_i``).

Concrete grammar (see docs/formats.md for the full table)::

    iff   := imp ("<->" imp)*          left-associative
    imp   := or ("->" imp)?            right-associative
    or    := and ("|" and)*            left-associative
    and   := unary ("&" unary)*        left-associative
    unary := "~" unary | MODAL unary | "(" iff ")" | "T" | ATOM
    MODAL := ("l_" | "a_" | "k_") AGENT

``T`` is the constant true.  Derived connectives are desugared at parse
time: ``x | y`` becomes ``~(~x & ~y)``, ``x -> y`` becomes ``~(x & ~y)``,
and ``x <-> y`` becomes ``(x -> y) & (y -> x)``.  Negation and the
modalities bind tighter than ``&``, which binds tighter than the derived
connectives.

Atom and agent tokens are ``[A-Za-z][A-Za-z0-9_]*``; ``T`` and tokens
starting with ``l_``, ``a_``, or ``k_`` are reserved and cannot name atoms.
Agent ids are arbitrary tokens, not just integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormulaSyntaxError


_NO_ATOMS: frozenset[str] = frozenset()


class Formula:
    """Base class for formula AST nodes. Nodes are immutable and hashable.

    Each node computes its structural hash, its nesting depth and its atom
    set once, at construction, from its fields and its children's cached
    values, so a dict lookup keyed by a formula, or :func:`atoms`, costs O(1)
    rather than a walk of the tree.  Nodes are not interned: equal formulas
    built separately are distinct objects with equal hashes.
    """

    __slots__ = ("_hash", "depth", "_atoms")

    def __post_init__(self) -> None:
        parts = [getattr(self, name) for name in self.__match_args__]
        depth = 0
        found = _NO_ATOMS
        for part in parts:
            if isinstance(part, Formula):
                if part.depth >= depth:
                    depth = part.depth + 1
                # A child's set is shared, not copied, when it holds the other's.
                if not part._atoms <= found:
                    found = part._atoms if found <= part._atoms else found | part._atoms
        if type(self) is Atom:
            found = frozenset(parts)
        object.__setattr__(self, "_hash", hash((type(self).__name__, *parts)))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_atoms", found)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return render(self)


def _node(cls):
    """A frozen, slotted dataclass node keeping :class:`Formula`'s cached hash
    in place of the field-walking one the dataclass would generate."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Top(Formula):
    pass


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class L(Formula):
    """Implicit knowledge: agent implicitly knows the child formula."""

    agent: str
    child: Formula


@_node
class A(Formula):
    """Awareness: agent is aware of the child formula."""

    agent: str
    child: Formula


@_node
class K(Formula):
    """Explicit knowledge.  A primitive node: each model family has its own clause."""

    agent: str
    child: Formula


TOP = Top()

_MODAL_CLASSES = {"l": L, "a": A, "k": K}
_MODAL_TOKEN = {L: "l", A: "a", K: "k"}


def imp(left: Formula, right: Formula) -> Formula:
    """Material implication, desugared to the primitive connectives."""
    return Not(And(left, Not(right)))


def disj(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def iff(left: Formula, right: Formula) -> Formula:
    return And(imp(left, right), imp(right, left))


def atoms(f: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``f``; empty for the constant true.

    Each node holds its set, built at construction from its children's, so
    this reads a field."""
    return f._atoms


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Top, Atom)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.child)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 1 + modal_depth(f.child)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every subformula of it (with repeats)."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.child)
    elif isinstance(f, And):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (L, A, K)):
        yield from subformulas(f.child)


def render(f: Formula) -> str:
    """Canonical fully parenthesized text; ``parse(render(f))`` returns ``f``."""
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"(~ {render(f.child)})"
    if isinstance(f, And):
        return f"({render(f.left)} & {render(f.right)})"
    if isinstance(f, (L, A, K)):
        return f"({_MODAL_TOKEN[type(f)]}_{f.agent} {render(f.child)})"
    raise TypeError(f"not a formula node: {f!r}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<modal>[lak]_[A-Za-z0-9_]+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><->|->|[~&|()])
    """,
    re.VERBOSE,
)

_RESERVED_PREFIXES = ("l_", "a_", "k_")
_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_AGENT_ID = re.compile(r"[A-Za-z0-9_]+")


def is_atom_name(name: str) -> bool:
    """Whether ``name`` reads back as an atom in formulas and space keys."""
    return (_ATOM_NAME.fullmatch(name) is not None and name != "T"
            and not name.startswith(_RESERVED_PREFIXES))


def is_agent_id(name: str) -> bool:
    """Whether ``name`` reads back as the agent of a modality."""
    return _AGENT_ID.fullmatch(name) is not None


# Deepest formula `parse` accepts, counting both the nesting of the text
# (parentheses, prefix operators, chained "->") and the depth of the tree
# after desugaring.  The parser, `render` and the evaluators recurse once or
# a few times per level, so this keeps them well inside the interpreter's
# recursion limit.
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"stray token {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, agents: frozenset[str] | None):
        self.text = text
        self.agents = agents
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            offset = tok[2] if tok else len(self.text)
            raise FormulaSyntaxError(f"expected {op!r}", offset)
        self.pos += 1

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] == op

    def parse(self) -> Formula:
        f = self.parse_iff()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        if f.depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
        return f

    def nested(self, parse, pos: int) -> Formula:
        """Run ``parse`` one nesting level down."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", pos)
        out = parse()
        self.nesting -= 1
        return out

    def parse_iff(self) -> Formula:
        out = self.parse_imp()
        while self.at_op("<->"):
            self.pos += 1
            out = iff(out, self.parse_imp())
        return out

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.at_op("->"):
            pos = self.next()[2]
            return imp(left, self.nested(self.parse_imp, pos))
        return left

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.at_op("|"):
            self.pos += 1
            out = disj(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.at_op("&"):
            self.pos += 1
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        kind, text, pos = self.next()
        if kind == "op" and text == "~":
            return Not(self.nested(self.parse_unary, pos))
        if kind == "op" and text == "(":
            inner = self.nested(self.parse_iff, pos)
            self.expect(")")
            return inner
        if kind == "modal":
            letter, agent = text[0], text[2:]
            if self.agents is not None and agent not in self.agents:
                raise FormulaSyntaxError(f"unknown agent {agent!r}", pos)
            return _MODAL_CLASSES[letter](agent, self.nested(self.parse_unary, pos))
        if kind == "name":
            if text == "T":
                return TOP
            if text.startswith(_RESERVED_PREFIXES):
                raise FormulaSyntaxError(f"{text!r} has a reserved modal prefix", pos)
            return Atom(text)
        raise FormulaSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str, agents: Iterable[str] | None = None) -> Formula:
    """Parse formula text into its unique AST under the concrete grammar.

    Text nesting deeper than :data:`MAX_DEPTH` levels, or desugaring to a
    tree deeper than that, raises :class:`FormulaSyntaxError`.

    When ``agents`` is given, modal tokens naming agents outside the set
    raise :class:`FormulaSyntaxError`; with ``None`` any agent token is
    accepted (useful for standalone proof files).
    """
    if not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    universe = None if agents is None else frozenset(agents)
    return _Parser(text, universe).parse()
