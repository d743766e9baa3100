"""Result record shared by every LCL procedure."""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from functools import partial
from typing import Optional

__all__ = ["LclResult"]

# The JSON key of a renamed field, and the ``diagnostics`` group, which omits unset ranks
_RENAMED = {"component_estimates": "per_component_estimates"}
_DIAGNOSTICS = ("boundary_hits", "ties", "u_k", "k", "k_prime")


@dataclass(frozen=True, kw_only=True)
class LclResult:
    """A lower confidence limit with its diagnostics.

    ``lcl`` is the value the method reports, and follows from ``raw_value``:
    for the percentile-type methods (``percentile=True``) it is an order
    statistic and lies in [0, 1] by construction; for the delta and
    basic-bootstrap methods it is the raw real number, which may leave the
    unit interval (``fell_outside``), with ``clamped`` as the in-range value.

    The double bootstrap methods also carry their selection ranks: ``k`` =
    ceil(B*alpha), ``u_k`` = the k-th smallest second-layer count (out of C),
    and ``k_prime`` = ceil(B*u_k/C) clamped to [1, B], the rank of the
    first-layer value reported.  They are None for the other methods.

    The fields, in order, are the keys of :meth:`to_dict`, which groups the
    last five as ``diagnostics``.
    """

    method: str
    lcl: float = field(init=False)
    raw_value: float
    clamped: float = field(init=False)
    fell_outside: bool = field(init=False)
    r_hat: float
    component_estimates: tuple = ()
    seed: Optional[int] = None
    t: float
    alpha: float
    B: Optional[int] = None
    C: Optional[int] = None
    boundary_hits: int = 0
    ties: int = 0
    u_k: Optional[int] = None
    k: Optional[int] = None
    k_prime: Optional[int] = None
    percentile: InitVar[bool] = True

    def __post_init__(self, percentile):
        put = partial(object.__setattr__, self)
        raw = float(self.raw_value)
        put("raw_value", raw)
        put("clamped", min(1.0, max(0.0, raw)))
        put("fell_outside", not 0.0 <= raw <= 1.0)
        put("lcl", self.clamped if percentile else raw)
        for name in ("r_hat", "t", "alpha"):
            put(name, float(getattr(self, name)))
        put("boundary_hits", int(self.boundary_hits))
        put("ties", int(self.ties))
        put("component_estimates", tuple(self.component_estimates))

    def to_dict(self) -> dict:
        out = {}
        for name, value in asdict(self).items():
            if name not in _DIAGNOSTICS:
                out[_RENAMED.get(name, name)] = list(value) if isinstance(value, tuple) else value
            elif value is not None:
                out.setdefault("diagnostics", {})[name] = value
        return out
