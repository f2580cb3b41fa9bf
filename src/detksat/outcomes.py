"""The one answer type of every solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chains import Instance


@dataclass(frozen=True)
class SolveResult:
    """"SAT" with a model, "UNSAT", or, from the branchings only, "INSTANCE":
    the chains they hand to the local search."""

    verdict: str  # "SAT" | "UNSAT" | "INSTANCE"
    assignment: Optional[dict[int, int]] = None
    instance: Optional[Instance] = None


UNSAT = SolveResult("UNSAT")


def answer(model: Optional[dict[int, int]]) -> SolveResult:
    """SAT with ``model``, or UNSAT when there is none."""
    return UNSAT if model is None else SolveResult("SAT", model)
