"""Tiny whitelist parser for closed-form field descriptors.

Config files describe initial conditions and test-function profiles with a
restricted expression language rather than arbitrary Python:

    expr  :=  sign* term (sign+ term)*
    sign  :=  '+'  |  '-'
    term  :=  [coef ['*']] atom  |  coef
    atom  :=  'cos(' [k ['*']] 'x' ')'  |  'exp(' ['-'] 'x' ')'
    coef  :=  decimal  |  fraction a/b  |  '(' fraction ')'

Examples: ``1/3``, ``(1/3)*cos(x)+1/3``, ``2*cos(2x)+cos(x)+1/3``,
``exp(x)``, ``exp(-x)``, ``-cos(x)+1``.  A run of signs multiplies out
(``1+-cos(x)`` is ``1-cos(x)``).  Whitespace is ignored.  No eval(), no names.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["evaluate_expression", "validate_expression"]

_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
_COEF_RE = re.compile(rf"\(?(?P<num>{_NUMBER})(?:/(?P<den>{_NUMBER}))?\)?")
_TERM_RE = re.compile(
    rf"^(?P<coef>\(?(?:{_NUMBER})(?:/(?:{_NUMBER}))?\)?)?"
    rf"(?:\*?(?P<fn>cos|exp)\((?P<arg>[^()]*)\))?$"
)
_COS_ARG_RE = re.compile(rf"^(?:(?P<k>{_NUMBER})\*?)?x$")


def _split_terms(text: str) -> list[tuple[float, str]]:
    """Split at top-level +/- into (sign, term) pairs."""
    terms = []
    sign = 1.0
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in expression {text!r}")
        if ch in "+-" and depth == 0 and current:
            terms.append((sign, "".join(current)))
            sign = 1.0 if ch == "+" else -1.0
            current = []
        elif ch in "+-" and depth == 0 and not current:
            # a sign before the first term or after another sign
            sign *= 1.0 if ch == "+" else -1.0
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in expression {text!r}")
    if not current:
        raise ValueError(f"empty term in expression {text!r}")
    terms.append((sign, "".join(current)))
    return terms


def _coefficient(text: str) -> float:
    """The value of a coef matched by ``_TERM_RE``, which ``_COEF_RE`` repeats."""
    match = _COEF_RE.fullmatch(text)
    value = float(match.group("num"))
    if match.group("den") is not None:
        den = float(match.group("den"))
        if den == 0:
            raise ValueError(f"zero denominator in coefficient {text!r}")
        value /= den
    return value


def _compile_term(term: str):
    """Return a callable x -> values for one (unsigned) term."""
    match = _TERM_RE.fullmatch(term)
    if match is None or (match.group("coef") is None and match.group("fn") is None):
        raise ValueError(f"cannot parse term {term!r}")
    coef = 1.0 if match.group("coef") is None else _coefficient(match.group("coef"))
    fn = match.group("fn")
    if fn is None:
        return lambda x: np.full_like(x, coef)
    arg = match.group("arg")
    if fn == "cos":
        arg_match = _COS_ARG_RE.fullmatch(arg)
        if arg_match is None:
            raise ValueError(f"cos argument must look like 'x' or 'k*x', got {arg!r}")
        k = 1.0 if arg_match.group("k") is None else float(arg_match.group("k"))
        return lambda x: coef * np.cos(k * x)
    if arg == "x":
        return lambda x: coef * np.exp(x)
    if arg == "-x":
        return lambda x: coef * np.exp(-x)
    raise ValueError(f"exp argument must be 'x' or '-x', got {arg!r}")


def evaluate_expression(text: str, x: np.ndarray) -> np.ndarray:
    """Evaluate a descriptor at the points x (returns a float64 array)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("expression must be a nonempty string")
    compact = "".join(text.split())
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    for sign, term in _split_terms(compact):
        total += sign * _compile_term(term)(x)
    return total


def validate_expression(text: str) -> None:
    """Raise ValueError if the descriptor does not parse."""
    evaluate_expression(text, np.array([0.0]))
