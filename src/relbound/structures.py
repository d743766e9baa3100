"""Coherent-system structures.

A system topology is a tree of series / parallel / k-out-of-n nodes over
component leaves.  The structure function maps component reliabilities to
system reliability; it is evaluated recursively, with k-out-of-n nodes
handled by the exact O(m^2) Poisson-binomial convolution.  An exhaustive
state-enumeration oracle and pivotal-decomposition partial derivatives are
provided alongside.

Text grammar accepted by :func:`parse_structure`::

    expr  := series(expr, ...) | parallel(expr, ...)
           | koutofn(k; expr, ...) | cN
    cN    := component reference, 1-based (c1 maps to index 0)

Whitespace is ignored.  Inside an argument list, ``cA, ..., cB`` expands to
the full run of consecutive components from cA to cB.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import StructureError, StructureParseError

__all__ = [
    "ComponentRef",
    "Series",
    "Parallel",
    "KOutOfN",
    "StructureNode",
    "parse_structure",
    "num_components",
    "component_counts",
    "eval_structure",
    "eval_reliability",
    "eval_reliability_bruteforce",
    "structure_partials",
]


@dataclass(frozen=True)
class ComponentRef:
    """Leaf referring to component ``index`` (0-based)."""

    index: int


@dataclass(frozen=True)
class Series:
    children: tuple


@dataclass(frozen=True)
class Parallel:
    children: tuple


@dataclass(frozen=True)
class KOutOfN:
    """Functional when at least ``k`` of the children are functional."""

    k: int
    children: tuple


StructureNode = Union[ComponentRef, Series, Parallel, KOutOfN]


def _validate(node: StructureNode) -> None:
    if isinstance(node, ComponentRef):
        if node.index < 0:
            raise StructureError(f"component index must be >= 0, got {node.index}")
        return
    if isinstance(node, (Series, Parallel, KOutOfN)):
        if not node.children:
            raise StructureError(f"{type(node).__name__} node has no children")
        if isinstance(node, KOutOfN) and not 1 <= node.k <= len(node.children):
            raise StructureError(
                f"k={node.k} out of range for {len(node.children)} children"
            )
        for child in node.children:
            _validate(child)
        return
    raise StructureError(f"not a structure node: {node!r}")


def component_counts(node: StructureNode) -> Counter:
    """Occurrences of each component index among the leaves."""
    counts: Counter = Counter()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ComponentRef):
            counts[cur.index] += 1
        else:
            stack.extend(cur.children)
    return counts


def num_components(node: StructureNode) -> int:
    """Validate the tree and return the number of components ``s``.

    Every index in 0..s-1 must appear exactly once: coherence needs each
    component to be relevant, and the recursive structure function is exact
    only when sibling subtrees share no component.
    """
    _validate(node)
    counts = component_counts(node)
    s = max(counts) + 1
    missing = [i for i in range(s) if i not in counts]
    if missing:
        raise StructureError(
            f"component ids must cover 0..{s - 1}; missing {missing} "
            f"(every component must be relevant)"
        )
    repeated = sorted(i for i, c in counts.items() if c > 1)
    if repeated:
        raise StructureError(f"component ids {repeated} are repeated; each must appear once")
    return s


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ellipsis>\.\.\.)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<punct>[(),;])"
)

_ELLIPSIS = object()


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise StructureParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.advance()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise StructureParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> StructureNode:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise StructureParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> StructureNode:
        kind, value, pos = self.advance()
        if kind == "name":
            if value == "series":
                return Series(tuple(self.arg_list()))
            if value == "parallel":
                return Parallel(tuple(self.arg_list()))
            if value == "koutofn":
                self.expect("punct", "(")
                k_tok = self.expect("int")
                self.expect("punct", ";")
                children = tuple(self.items_until_close())
                node = KOutOfN(int(k_tok[1]), children)
                if not 1 <= node.k <= len(children):
                    raise StructureParseError(
                        f"k={node.k} out of range for {len(children)} children", k_tok[2]
                    )
                return node
            comp = re.fullmatch(r"c(\d+)", value)
            if comp:
                number = int(comp.group(1))
                if number < 1:
                    raise StructureParseError("component numbers are 1-based", pos)
                return ComponentRef(number - 1)
            raise StructureParseError(f"unknown token {value!r}", pos)
        raise StructureParseError(f"expected an expression, found {value or 'end of input'!r}", pos)

    def arg_list(self):
        self.expect("punct", "(")
        return self.items_until_close()

    def items_until_close(self):
        items = []
        positions = []
        first = self.peek()
        if first[0] == "punct" and first[1] == ")":
            raise StructureParseError("empty children list", first[2])
        while True:
            tok = self.peek()
            if tok[0] == "ellipsis":
                self.advance()
                items.append(_ELLIPSIS)
                positions.append(tok[2])
            else:
                items.append(self.expr())
                positions.append(tok[2])
            kind, value, pos = self.advance()
            if kind == "punct" and value == ")":
                break
            if not (kind == "punct" and value == ","):
                raise StructureParseError(f"expected ',' or ')', found {value or 'end of input'!r}", pos)
        return self._expand_ellipsis(items, positions)

    @staticmethod
    def _expand_ellipsis(items, positions):
        out = []
        for idx, item in enumerate(items):
            if item is not _ELLIPSIS:
                out.append(item)
                continue
            pos = positions[idx]
            if idx == 0 or idx == len(items) - 1:
                raise StructureParseError("'...' needs a component on both sides", pos)
            prev, nxt = items[idx - 1], items[idx + 1]
            if not (isinstance(prev, ComponentRef) and isinstance(nxt, ComponentRef)):
                raise StructureParseError("'...' may only run between component references", pos)
            if prev.index >= nxt.index:
                raise StructureParseError("'...' range must be increasing", pos)
            out.extend(ComponentRef(i) for i in range(prev.index + 1, nxt.index))
        return out


def parse_structure(text: str) -> StructureNode:
    """Parse a structure expression and validate the resulting tree."""
    node = _Parser(text).parse()
    num_components(node)
    return node


# --- evaluation ------------------------------------------------------------


def eval_structure(node: StructureNode, r: Sequence) -> "np.ndarray | float":
    """Structure function over per-component values (scalars or broadcastable arrays).

    The unchecked evaluator behind :func:`eval_reliability`, for hot paths
    whose inputs are valid by construction: it neither validates the tree nor
    checks that the values lie in [0, 1], and returns whatever type the
    arithmetic yields.
    """
    if isinstance(node, ComponentRef):
        return r[node.index]
    vals = [eval_structure(child, r) for child in node.children]
    if isinstance(node, Series):
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    if isinstance(node, Parallel):
        out = 1.0 - vals[0]
        for v in vals[1:]:
            out = out * (1.0 - v)
        return 1.0 - out
    # KOutOfN: dp[j] is P(exactly j of the children processed so far work)
    dp = [1.0]
    for v in vals:
        new = [dp[0] * (1.0 - v)]
        for j in range(1, len(dp)):
            new.append(dp[j] * (1.0 - v) + dp[j - 1] * v)
        new.append(dp[-1] * v)
        dp = new
    tail = dp[node.k]
    for j in range(node.k + 1, len(dp)):
        tail = tail + dp[j]
    return tail


def _check_reliabilities(node: StructureNode, r) -> list:
    s = num_components(node)
    values = [np.asarray(v, dtype=float) for v in r]
    if len(values) < s:
        raise StructureError(f"structure references {s} components, got {len(values)} reliabilities")
    for i, v in enumerate(values):
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ValueError(f"reliability of component {i} outside [0, 1]")
    return values


def eval_reliability(node: StructureNode, r) -> "float | np.ndarray":
    """System reliability ``psi(r_1, ..., r_s)``.

    ``r`` holds one reliability per component; entries may be scalars or
    equal-shape arrays (evaluated elementwise).
    """
    values = _check_reliabilities(node, r)
    out = eval_structure(node, values)
    if all(np.ndim(v) == 0 for v in values):
        return float(out)
    return np.asarray(out)


def eval_reliability_bruteforce(node: StructureNode, r) -> float:
    """System reliability by summing over all 2^s component state vectors.

    Independent of the recursive evaluation: system state is decided per
    state vector by boolean logic, then weighted by the state probability.
    """
    values = _check_reliabilities(node, r)
    s = num_components(node)
    if s > 20:
        raise StructureError(f"brute force limited to s <= 20 components, got {s}")
    probs = np.array([float(v) for v in values[:s]])
    states = (np.arange(2 ** s)[:, None] >> np.arange(s)[None, :]) & 1

    def works(sub: StructureNode) -> np.ndarray:
        if isinstance(sub, ComponentRef):
            return states[:, sub.index].astype(bool)
        child_states = [works(c) for c in sub.children]
        if isinstance(sub, Series):
            return np.logical_and.reduce(child_states)
        if isinstance(sub, Parallel):
            return np.logical_or.reduce(child_states)
        return sum(cs.astype(int) for cs in child_states) >= sub.k

    weight = np.prod(np.where(states == 1, probs[None, :], 1.0 - probs[None, :]), axis=1)
    return float(weight[works(node)].sum())


def structure_partials(node: StructureNode, r) -> np.ndarray:
    """Partial derivatives d(psi)/d(r_i) by pivotal decomposition.

    psi is multilinear in each r_i, as every component appears exactly once
    in the tree, making ``psi(r_i := 1) - psi(r_i := 0)`` the exact partial.
    """
    values = _check_reliabilities(node, r)
    s = num_components(node)
    base = [float(v) for v in values[:s]]
    partials = np.empty(s)
    for i in range(s):
        hi = list(base)
        lo = list(base)
        hi[i] = 1.0
        lo[i] = 0.0
        partials[i] = eval_structure(node, hi) - eval_structure(node, lo)
    return partials
