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
    "scratch_rows",
    "check_component_lists",
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
    return _count_ids(_leaves(node))


def _count_ids(indices) -> int:
    """The component count ``s`` of a tree whose leaves hold ``indices``, each of 0..s-1 once."""
    counts = Counter(indices)
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


def check_component_lists(node: StructureNode, families, datasets) -> None:
    """Refuse ``families`` and ``datasets`` unless each has one entry per component of ``node``."""
    s = num_components(node)
    if len(families) != s or len(datasets) != s:
        raise ValueError(f"structure has {s} components; families/datasets must match")


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


def _expr(tokens, i, leaves, depth=1):
    """The expression that starts at token ``i``, ``depth`` levels deep, and the index after it.

    The index of each component it references is appended to ``leaves``.
    """
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
        leaves.append(number - 1)
        return ComponentRef(number - 1), i + 1
    _expect(tokens, i + 1, "punct", "(")
    if node_type is not KOutOfN:
        children, i = _children(tokens, i + 2, leaves, depth)
        return node_type(children), i
    k_tok = _expect(tokens, i + 2, "int")
    _expect(tokens, i + 3, "punct", ";")
    children, i = _children(tokens, i + 4, leaves, depth)
    k = _number(k_tok[1], k_tok[2])
    if not 1 <= k <= len(children):
        raise StructureParseError(f"k={k} out of range for {len(children)} children", k_tok[2])
    return KOutOfN(k, children), i


def _children(tokens, i, leaves, depth):
    """The children from token ``i`` to the closing ``)``, and the index after it.

    The node they belong to is ``depth`` levels deep, and each component
    index is appended to ``leaves``.  Each ``...`` stays in the item list as
    its position until the ``)`` is read, and is then expanded to the
    components between its neighbours.
    """
    if tokens[i][:2] == ("punct", ")"):
        raise StructureParseError("empty children list", tokens[i][2])
    items = []
    while True:
        if tokens[i][0] == "ellipsis":
            items.append(tokens[i][2])
            i += 1
        else:
            node, i = _expr(tokens, i, leaves, depth + 1)
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
        leaves.extend(range(prev.index + 1, nxt.index))
    return tuple(children), i


def parse_structure(text: str) -> StructureNode:
    """Parse a structure expression and validate the resulting tree.

    The parser refuses every malformed node itself and collects the
    component indices as it reads them, so the tree it builds is not walked
    again to check them.
    """
    tokens, leaves = _tokenize(text), []
    node, i = _expr(tokens, 0, leaves)
    if tokens[i][0] != "eof":
        raise StructureParseError(f"trailing input {tokens[i][1]!r}", tokens[i][2])
    _count_ids(leaves)
    return node


# --- evaluation ------------------------------------------------------------


def eval_structure(node: StructureNode, r: Sequence, scratch=None) -> np.ndarray:
    """Structure function, evaluated in place over per-component arrays the caller owns.

    The unchecked evaluator behind :func:`eval_reliability` and
    :func:`structure_partials`, for hot paths whose inputs are valid by
    construction: it neither validates the tree nor checks that the values
    lie in [0, 1].  ``r`` holds one float array per component, all of one
    shape (0-d arrays included), evaluated elementwise.  The caller owns
    them and hands them over: each node's value is written into the array of
    its leftmost component, which is also where the result is, and the other
    arrays are overwritten along the way.  Every component appears once in a
    valid tree, so each array is read by one leaf only.  ``scratch`` holds at
    least :func:`scratch_rows` more arrays of that shape for the k-out-of-n
    recursion; without it they are allocated.
    """
    if isinstance(node, ComponentRef):
        return r[node.index]
    if scratch is None:
        scratch = [np.empty_like(r[0]) for _ in range(scratch_rows(node))]
    vals = [eval_structure(child, r, scratch) for child in node.children]
    # each step below is one numpy operation written into an owned array
    first = vals[0]
    if isinstance(node, Series):
        for v in vals[1:]:
            np.multiply(first, v, out=first)
        return first
    if isinstance(node, Parallel):
        np.subtract(1.0, first, out=first)
        for v in vals[1:]:
            np.multiply(first, np.subtract(1.0, v, out=v), out=first)
        return np.subtract(1.0, first, out=first)
    # KOutOfN: dp[j] is P(exactly j of the children processed so far work),
    # updated from high j to low j so that each dp[j - 1] is read before it
    # is overwritten
    m = len(vals)
    dp, fail, term = scratch[:m + 1], scratch[m + 1], scratch[m + 2]
    dp[0].fill(1.0)
    for i, v in enumerate(vals):
        np.subtract(1.0, v, out=fail)
        np.multiply(dp[i], v, out=dp[i + 1])
        for j in range(i, 0, -1):
            np.add(np.multiply(dp[j], fail, out=dp[j]), np.multiply(dp[j - 1], v, out=term),
                   out=dp[j])
        np.multiply(dp[0], fail, out=dp[0])
    # the children are read, so the leftmost one's array is free for the result
    np.copyto(first, dp[node.k])
    for j in range(node.k + 1, m + 1):
        np.add(first, dp[j], out=first)
    return first


def scratch_rows(node: StructureNode) -> int:
    """How many scratch arrays :func:`eval_structure` needs to evaluate ``node`` in place.

    A k-out-of-n node of m children needs m + 3: the m + 1 probabilities of
    its recursion, its child's failure probability and one product; nodes
    are evaluated one at a time, so the widest such node sets the count.
    """
    if isinstance(node, ComponentRef):
        return 0
    own = len(node.children) + 3 if isinstance(node, KOutOfN) else 0
    return max(own, *(scratch_rows(child) for child in node.children))


def _check_reliabilities(node: StructureNode, r) -> tuple:
    """Validate the tree and every value of ``r``; the values of its ``s`` components.

    They are float arrays broadcast to one shape, views of the caller's values.
    """
    s = num_components(node)
    values = [np.asarray(v, dtype=float) for v in r]
    if len(values) < s:
        raise StructureError(f"structure references {s} components, got {len(values)} reliabilities")
    for i, v in enumerate(values):
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ValueError(f"reliability of component {i} outside [0, 1]")
    return np.broadcast_arrays(*values[:s])


def eval_reliability(node: StructureNode, r) -> "float | np.ndarray":
    """System reliability ``psi(r_1, ..., r_s)``.

    ``r`` holds one reliability per component; entries may be scalars or
    arrays that broadcast together, evaluated elementwise.  The caller's
    values are left as they are: the structure function runs over one
    broadcast copy of them.  All scalars give a float, else an array.
    """
    out = eval_structure(node, [v.copy() for v in _check_reliabilities(node, r)])
    return float(out) if out.ndim == 0 else out


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
    """Partial derivatives d(psi)/d(r_i) by pivotal decomposition, one row per component.

    psi is multilinear in each r_i, as every component appears exactly once
    in the tree, making ``psi(r_i := 1) - psi(r_i := 0)`` the exact partial.
    ``r`` is read as :func:`eval_reliability` reads it and left as it is;
    row i has the broadcast shape of its values.  All 2s conditioned points
    are evaluated in one batch.
    """
    base = np.stack(_check_reliabilities(node, r))
    s = len(base)
    # points[c, h, i]: component c's value where component i is set to 1 (h = 0) or 0 (h = 1)
    points = np.broadcast_to(base[:, None, None], (s, 2) + base.shape).copy()
    ids = np.arange(s)
    points[ids, 0, ids] = 1.0
    points[ids, 1, ids] = 0.0
    psi = eval_structure(node, points)
    return psi[0] - psi[1]
