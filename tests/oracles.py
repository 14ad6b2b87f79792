"""Slow reference implementations that the tests compare the library with.

The all-pairs scans are references for the ball-tree algorithms: each
visits every pair (i, j), i < j, in index order and keeps the first pair
that decides the answer, which is the lexicographically least one.  They
are quadratic.

The frac_* functions are references for the scalar kernel: the Q_p
formulas of qp_core computed on Fractions only, with no integer fast path
and no caching.

char_tokens is the reference for the term tokenizer: one character at a
time, with the str predicates that define the token language.
"""

from fractions import Fraction

from ultralip.qp_core import tuple_norm
from ultralip.terms import ParseError


def scan_pairs(points, values):
    """Best ratio exponent of |f(x)-f(y)| / |x-y| and the first pair reaching it.

    Pairs with f(x) = f(y) are skipped; tuple points use the max norm.
    Returns (None, None) when every pair is skipped.
    """
    best = None
    best_witness = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            ef = (values[i] - values[j]).norm_exponent()
            if ef is None:
                continue
            if isinstance(points[i], tuple):
                ex = tuple_norm([a - b for a, b in zip(points[i], points[j])])
            else:
                ex = (points[i] - points[j]).norm_exponent()
            if best is None or ef - ex > best:
                best = ef - ex
                best_witness = (points[i], points[j])
    return best, best_witness


def distance_pairs(reps, images, jac_ord):
    """First (i, j) with ord(f(x_i) - f(x_j)) != jac_ord + ord(x_i - x_j), or None."""
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            lhs = (images[i] - images[j]).ord()
            rhs = (reps[i] - reps[j]).ord() + jac_ord
            if lhs != rhs:
                return i, j
    return None


def local_pairs(group, vals):
    """First (i, j) with ord(vals_i - vals_j) < ord(group_i - group_j), or None."""
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            if (vals[i] - vals[j]).ord() < (group[i] - group[j]).ord():
                return i, j
    return None


def exloc_pairs(points, values):
    """First pair of points at different levels breaking an exloc identity.

    Returns ((i, j), 0) when ord(f_i - f_j) != max(ord x_i, ord x_j) fails
    as the value identity |f(x1)-f(x2)| = |x2|^-1, ((i, j), 1) when
    ord(x_i - x_j) != min(ord x_i, ord x_j), or None.
    """
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = i, j
            if points[a].ord() > points[b].ord():
                a, b = b, a
            if points[a].ord() == points[b].ord():
                continue
            if (values[a] - values[b]).norm_exponent() != points[b].ord().value:
                return (i, j), 0
            if (points[a] - points[b]).norm_exponent() != -points[a].ord().value:
                return (i, j), 1
    return None


# ---------------------------------------------------------------------------
# the scalar kernel on Fractions only


def frac_multiplicity(n, p):
    """Multiplicity of p in the nonzero integer n."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_ord(x, p):
    """ord_p of the rational x, or None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    return frac_multiplicity(x.numerator, p) - frac_multiplicity(x.denominator, p)


def frac_unit_part(x, p):
    """x / p^ord(x) for nonzero x."""
    return Fraction(x) / Fraction(p) ** frac_ord(x, p)


def frac_ac(x, p, n):
    """The angular component residue of x mod p^n; 0 for x = 0."""
    if Fraction(x) == 0:
        return 0
    pn = p**n
    u = frac_unit_part(x, p)
    return (u.numerator * pow(u.denominator, -1, pn)) % pn


def frac_reduce_mod_power(x, p, k):
    """The smallest nonnegative multiple of p^ord(x) congruent to x mod p^k."""
    v = frac_ord(x, p)
    if v is None or v >= k:
        return Fraction(0)
    span = p ** (k - v)
    u = frac_unit_part(x, p)
    r = (u.numerator * pow(u.denominator, -1, span)) % span
    return r * Fraction(p) ** v


FRAC_OPS = {
    "+": lambda a, b: Fraction(a) + Fraction(b),
    "-": lambda a, b: Fraction(a) - Fraction(b),
    "*": lambda a, b: Fraction(a) * Fraction(b),
    "/": lambda a, b: Fraction(a) / Fraction(b),
}


def frac_pow(x, k):
    return Fraction(x) ** k


_TWO_CHAR = ("||", "&&", "<=", "->")
_ONE_CHAR = set("+-*/^()|<>=!%,;{}[]")


def char_tokens(source):
    """(kind, text, line, col) of each token, ending with one eof token.

    Raises ParseError at the first character that starts no token.
    """
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(("op", two, line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens
