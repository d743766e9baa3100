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

A tree may nest at most ``MAX_DEPTH`` nodes deep, the leaves included, so
that every recursive walk stays far inside Python's recursion limit.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Sequence, Union

import numpy as np

from .errors import StructureError, StructureParseError

__all__ = [
    "MAX_DEPTH",
    "ComponentRef",
    "Series",
    "Parallel",
    "KOutOfN",
    "StructureNode",
    "parse_structure",
    "num_components",
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

MAX_DEPTH = 100


def _leaves(node: StructureNode, depth: int = 1) -> list:
    """Check ``node`` and every node below it; the leaf indices, left to right."""
    if depth > MAX_DEPTH:
        raise StructureError(f"structure nested too deeply: more than {MAX_DEPTH} levels")
    if isinstance(node, ComponentRef):
        if node.index < 0:
            raise StructureError(f"component index must be >= 0, got {node.index}")
        return [node.index]
    if not isinstance(node, (Series, Parallel, KOutOfN)):
        raise StructureError(f"not a structure node: {node!r}")
    if not node.children:
        raise StructureError(f"{type(node).__name__} node has no children")
    if isinstance(node, KOutOfN) and not 1 <= node.k <= len(node.children):
        raise StructureError(f"k={node.k} out of range for {len(node.children)} children")
    return [index for child in node.children for index in _leaves(child, depth + 1)]


def num_components(node: StructureNode) -> int:
    """Validate the tree and return the number of components ``s``.

    Every index in 0..s-1 must appear exactly once: coherence needs each
    component to be relevant, and the recursive structure function is exact
    only when sibling subtrees share no component.
    """
    counts = Counter(_leaves(node))
    s = max(counts) + 1
    gaps = s - len(counts)
    if gaps:
        # the first 10 gaps lie among the first len(counts) + 10 ids
        first = list(islice((i for i in range(s) if i not in counts), 10))
        missing = first if gaps <= 10 else f"{gaps} ids, first {first}"
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

_NODES = {"series": Series, "parallel": Parallel, "koutofn": KOutOfN}


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


def _expect(tokens, i, kind, value=None):
    """Token ``i``, refused unless it is a ``kind`` token (reading ``value``, if given)."""
    tok = tokens[i]
    if tok[0] != kind or (value is not None and tok[1] != value):
        want = value if value is not None else kind
        raise StructureParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
    return tok


def _number(digits: str, pos: int) -> int:
    """The int the ``digits`` at ``pos`` spell; past the interpreter's digit limit, refused."""
    try:
        return int(digits)
    except ValueError:
        raise StructureParseError(f"number of {len(digits)} digits is too long", pos) from None


def _expr(tokens, i, depth=1):
    """The expression that starts at token ``i``, ``depth`` levels deep, and the index after it."""
    kind, value, pos = tokens[i]
    if kind != "name":
        raise StructureParseError(f"expected an expression, found {value or 'end of input'!r}", pos)
    if depth > MAX_DEPTH:
        raise StructureParseError(f"structure nested too deeply: more than {MAX_DEPTH} levels",
                                  pos)
    node_type = _NODES.get(value)
    if node_type is None:
        comp = re.fullmatch(r"c(\d+)", value)
        if not comp:
            raise StructureParseError(f"unknown token {value!r}", pos)
        number = _number(comp.group(1), pos + 1)
        if number < 1:
            raise StructureParseError("component numbers are 1-based", pos)
        return ComponentRef(number - 1), i + 1
    _expect(tokens, i + 1, "punct", "(")
    if node_type is not KOutOfN:
        children, i = _children(tokens, i + 2, depth)
        return node_type(children), i
    k_tok = _expect(tokens, i + 2, "int")
    _expect(tokens, i + 3, "punct", ";")
    children, i = _children(tokens, i + 4, depth)
    k = _number(k_tok[1], k_tok[2])
    if not 1 <= k <= len(children):
        raise StructureParseError(f"k={k} out of range for {len(children)} children", k_tok[2])
    return KOutOfN(k, children), i


def _children(tokens, i, depth):
    """The children from token ``i`` to the closing ``)``, and the index after it.

    The node they belong to is ``depth`` levels deep.  Each ``...`` stays in the item list as its position until the ``)`` is
    read, and is then expanded to the components between its neighbours.
    """
    if tokens[i][:2] == ("punct", ")"):
        raise StructureParseError("empty children list", tokens[i][2])
    items = []
    while True:
        if tokens[i][0] == "ellipsis":
            items.append(tokens[i][2])
            i += 1
        else:
            node, i = _expr(tokens, i, depth + 1)
            items.append(node)
        kind, value, pos = tokens[i]
        i += 1
        if (kind, value) == ("punct", ")"):
            break
        if (kind, value) != ("punct", ","):
            raise StructureParseError(f"expected ',' or ')', found {value or 'end of input'!r}", pos)
    children = []
    for j, item in enumerate(items):
        if not isinstance(item, int):
            children.append(item)
            continue
        if j == 0 or j == len(items) - 1:
            raise StructureParseError("'...' needs a component on both sides", item)
        prev, nxt = items[j - 1], items[j + 1]
        if not (isinstance(prev, ComponentRef) and isinstance(nxt, ComponentRef)):
            raise StructureParseError("'...' may only run between component references", item)
        if prev.index >= nxt.index:
            raise StructureParseError("'...' range must be increasing", item)
        children.extend(ComponentRef(c) for c in range(prev.index + 1, nxt.index))
    return tuple(children), i


def parse_structure(text: str) -> StructureNode:
    """Parse a structure expression and validate the resulting tree."""
    tokens = _tokenize(text)
    node, i = _expr(tokens, 0)
    if tokens[i][0] != "eof":
        raise StructureParseError(f"trailing input {tokens[i][1]!r}", tokens[i][2])
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
    """Validate the tree and every value of ``r``; the values of its ``s`` components."""
    s = num_components(node)
    values = [np.asarray(v, dtype=float) for v in r]
    if len(values) < s:
        raise StructureError(f"structure references {s} components, got {len(values)} reliabilities")
    for i, v in enumerate(values):
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ValueError(f"reliability of component {i} outside [0, 1]")
    return values[:s]


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
    s = len(values)
    if s > 20:
        raise StructureError(f"brute force limited to s <= 20 components, got {s}")
    probs = np.array([float(v) for v in values])
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
    base = [float(v) for v in _check_reliabilities(node, r)]
    s = len(base)
    partials = np.empty(s)
    for i in range(s):
        hi = list(base)
        lo = list(base)
        hi[i] = 1.0
        lo[i] = 0.0
        partials[i] = eval_structure(node, hi) - eval_structure(node, lo)
    return partials
