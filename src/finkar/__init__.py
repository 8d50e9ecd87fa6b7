"""finkar: a finite-set workbench for projector splitting, state-monad
algebras and coalgebras, and machine-form data-release policies."""

from .finset import (Atom, CheckConfig, Exp, FinSetObj, Morphism, Prod,
                     ShapeError, compose, equal_mor, identity, image_factor)
from .report import VerifyReport

__all__ = [
    "Atom", "CheckConfig", "Exp", "FinSetObj", "Morphism", "Prod",
    "ShapeError", "VerifyReport", "compose", "equal_mor", "identity",
    "image_factor",
]
