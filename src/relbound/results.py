"""Result record shared by every LCL procedure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["LclResult"]


@dataclass(frozen=True)
class LclResult:
    """A lower confidence limit with its diagnostics.

    ``lcl`` is the value the method reports: for the percentile-type methods
    it is an order statistic and lies in [0, 1] by construction; for the
    delta and basic-bootstrap methods it is the raw real number, which may
    leave the unit interval (``fell_outside``), with ``clamped`` as the
    in-range companion.

    The double bootstrap methods also carry their selection ranks: ``k`` =
    ceil(B*alpha), ``u_k`` = the k-th smallest second-layer count (out of C),
    and ``k_prime`` = ceil(B*u_k/C) clamped to [1, B], the rank of the
    first-layer value reported.  They are None for the other methods.
    """

    method: str
    lcl: float
    raw_value: float
    clamped: float
    fell_outside: bool
    r_hat: float
    t: float
    alpha: float
    B: Optional[int] = None
    C: Optional[int] = None
    seed: Optional[int] = None
    boundary_hits: int = 0
    ties: int = 0
    component_estimates: tuple = field(default_factory=tuple)
    u_k: Optional[int] = None
    k: Optional[int] = None
    k_prime: Optional[int] = None

    def to_dict(self) -> dict:
        diagnostics = {"boundary_hits": self.boundary_hits, "ties": self.ties}
        if self.k is not None:
            diagnostics.update(u_k=self.u_k, k=self.k, k_prime=self.k_prime)
        return {
            "method": self.method,
            "lcl": self.lcl,
            "raw_value": self.raw_value,
            "clamped": self.clamped,
            "fell_outside": self.fell_outside,
            "r_hat": self.r_hat,
            "per_component_estimates": [dict(e) for e in self.component_estimates],
            "seed": self.seed,
            "t": self.t,
            "alpha": self.alpha,
            "B": self.B,
            "C": self.C,
            "diagnostics": diagnostics,
        }


def make_result(method, raw, r_hat, t, alpha, *, percentile=True, B=None, C=None,
                seed=None, boundary_hits=0, ties=0, ranks=(None, None, None),
                component_estimates=()):
    """Assemble an LclResult, clamping and flagging the raw value.

    ``ranks`` is the (u_k, k, k_prime) triple of the double bootstrap selection.
    """
    raw = float(raw)
    clamped = min(1.0, max(0.0, raw))
    fell_outside = not 0.0 <= raw <= 1.0
    lcl = clamped if percentile else raw
    u_k, k, k_prime = ranks
    return LclResult(
        method=method,
        lcl=lcl,
        raw_value=raw,
        clamped=clamped,
        fell_outside=fell_outside,
        r_hat=float(r_hat),
        t=float(t),
        alpha=float(alpha),
        B=B,
        C=C,
        seed=seed,
        boundary_hits=int(boundary_hits),
        ties=int(ties),
        component_estimates=tuple(component_estimates),
        u_k=u_k,
        k=k,
        k_prime=k_prime,
    )
