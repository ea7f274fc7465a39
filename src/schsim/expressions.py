"""Tiny whitelist parser for closed-form field descriptors.

Config files describe initial conditions and test-function profiles with a
restricted expression language rather than arbitrary Python:

    expr  :=  sign* term (sign+ term)*
    sign  :=  '+'  |  '-'
    term  :=  [coef] ['*'] atom  |  coef
    atom  :=  'cos(' [k ['*']] 'x' ')'  |  'exp(' ['-'] 'x' ')'
    coef  :=  num  |  num '/' num  |  '(' num ')'  |  '(' num '/' num ')'

Examples: ``1/3``, ``(1/3)*cos(x)+1/3``, ``2*cos(2x)+cos(x)+1/3``,
``exp(x)``, ``exp(-x)``, ``-cos(x)+1``.  A run of signs multiplies out
(``1+-cos(x)`` is ``1-cos(x)``).  Blanks may separate tokens but not split
a number or a name: ``1 / 3 + cos ( x )`` is ``1/3+cos(x)``, while
``1 2/3`` and ``co s(x)`` are errors.  A coefficient, fraction or
wavenumber that is not a finite float is an error.  No eval(), no names.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["evaluate_expression", "validate_expression"]

_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
# One signed term at the scanner's offset, with the blanks around its tokens.
_TERM_RE = re.compile(rf"""\s* (?P<signs>(?:[+-]\s*)*)
    (?: (?P<open>\(\s*)? (?P<num>{_NUMBER}) (?:\s*/\s*(?P<den>{_NUMBER}))? (?(open)\s*\)) \s*)?
    (?: (?:\*\s*)? (?: (?P<cos>cos)\s*\(\s* (?:(?P<k>{_NUMBER})\s*(?:\*\s*)?)?
                     | (?P<exp>exp)\s*\(\s* (?P<neg>-\s*)? ) x\s*\)\s* )?""", re.VERBOSE)


def evaluate_expression(text: str, x: np.ndarray) -> np.ndarray:
    """Evaluate a descriptor at the points x (returns a float64 array)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("expression must be a nonempty string")
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        empty = not (m["num"] or m["cos"] or m["exp"])
        if empty and m.end() == len(text):
            raise ValueError(f"empty term in expression {text!r}")
        if empty or (pos and not m["signs"]):  # a term after the first starts with a sign
            raise ValueError(f"cannot parse {text[pos:].strip()!r} in expression {text!r}")
        num, den, k = (float(m[name] or 1) for name in ("num", "den", "k"))
        if den == 0:
            raise ValueError(f"zero denominator in term {m[0].strip()!r}")
        coef = num / den
        if not all(map(math.isfinite, (num, den, coef, k))):
            raise ValueError(f"a number in term {m[0].strip()!r} is not a finite float")
        if m["cos"]:
            term = coef * np.cos(k * x)
        elif m["exp"]:
            term = coef * np.exp(-x if m["neg"] else x)
        else:
            term = np.full_like(x, coef)
        total += (-1.0 if m["signs"].count("-") % 2 else 1.0) * term
        pos = m.end()
    return total


def validate_expression(text: str) -> None:
    """Raise ValueError if the descriptor does not parse (a run checks its values on its grid)."""
    evaluate_expression(text, np.empty(0))
