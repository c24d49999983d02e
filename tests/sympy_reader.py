"""sympy's reading of the exact engine's text, independent of the engine.

``read`` parses text as ``render`` writes it; ``poly_terms`` and
``expr_terms`` build the same value in sympy straight from the terms, with no
text in between.  sympy is a required test dependency.
"""
import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from singmin.exact import VAR_NAMES, Polynomial, RationalExpr, Var

# one Symbol per registered variable, indexed like an exponent tuple
SYMS = tuple(sympy.Symbol(VAR_NAMES[v]) for v in Var)
SYMBOLS = {s.name: s for s in SYMS}
_TRANSFORMATIONS = standard_transformations + (convert_xor,)


def read(text: str) -> sympy.Expr:
    return parse_expr(text, local_dict=dict(SYMBOLS), transformations=_TRANSFORMATIONS)


def poly_terms(p: Polynomial) -> sympy.Expr:
    return sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(SYMS, m))) for m, c in p.items()))


def expr_terms(e: RationalExpr) -> sympy.Expr:
    return poly_terms(e.num) / poly_terms(e.den)
