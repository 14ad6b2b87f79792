"""Independent exact arithmetic for the benchmark's verdict checks.

Nothing here imports ultralip: values are Python ints and Fractions,
polynomials are coefficient lists evaluated by Horner's rule, and
valuations are counted directly.  Every verdict the benchmark accepts is
re-derived from these helpers, so a wrong answer from the library cannot
check itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional, Sequence


# ---------------------------------------------------------------------------
# valuations, angular components, canonical ball centres


def vp_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int) -> Optional[int]:
    """ord_p of an int or Fraction; None for zero."""
    if x == 0:
        return None
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def ac(x, p: int, n: int) -> int:
    """Unit part of x reduced mod p^n (0 for x = 0)."""
    if x == 0:
        return 0
    v = vp(x, p)
    u = x / Fraction(p) ** v
    pn = p**n
    return (u.numerator * pow(u.denominator, -1, pn)) % pn


def canonical_center(x, p: int, k: int) -> Fraction:
    """Smallest nonnegative multiple of p^ord(x) in x + p^k Z_p (0 when ord x >= k)."""
    v = vp(x, p)
    if v is None or v >= k:
        return Fraction(0)
    return ac(x, p, k - v) * Fraction(p) ** v


def in_ball(x, center, radius: int, p: int) -> bool:
    d = vp(x - center, p)
    return d is None or d >= radius


# ---------------------------------------------------------------------------
# polynomials as coefficient lists (index = degree)


def horner(coeffs: Sequence, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative(coeffs: Sequence) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def format_rational(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(coeffs: Sequence, var: str = "x") -> str:
    """A term string the library's grammar reads back as the same polynomial."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = format_rational(abs(c))
        if i == 0:
            body = mag
        else:
            mono = var if i == 1 else f"{var}^{i}"
            body = mono if mag == "1" else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def format_poly2(monomials: dict) -> str:
    """Bivariate polynomial {(i, j): coeff} in x and y."""
    parts = []
    for (i, j), c in sorted(monomials.items(), reverse=True):
        c = Fraction(c)
        if c == 0:
            continue
        factors = [f for f in (_pow_str("x", i), _pow_str("y", j)) if f]
        mag = format_rational(abs(c))
        if factors:
            body = "*".join(factors if mag == "1" else [mag] + factors)
        else:
            body = mag
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _pow_str(var: str, k: int) -> str:
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def eval_poly2(monomials: dict, x, y):
    return sum(Fraction(c) * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in monomials.items())


# ---------------------------------------------------------------------------
# window representatives and regions


def window_points(p: int, v_min: int, v_max: int, depth: int) -> list:
    """p^v * u for v in the window and units u in [1, p^depth), ascending."""
    pts = []
    for v in range(v_min, v_max + 1):
        scale = p**v if v >= 0 else Fraction(1, p**-v)
        pts.extend(u * scale for u in range(1, p**depth) if u % p != 0)
    return sorted(pts)


class Region:
    """A region condition the benchmark generates: its source text and an
    independent membership test on points (tuples for several variables)."""

    def __init__(self, text: str, test: Callable):
        self.text = text
        self.test = test


def region_all() -> Region:
    return Region("true", lambda pt: True)


def region_coset(var: str, p: int, m: int) -> Region:
    """var in 1*Q(m,1): ac_m(var) = 1."""
    return Region(f"{var} in 1*Q({m},1)", lambda pt: ac(_first(pt), p, m) == 1)


def region_norm_le(var: str, p: int, k: int) -> Region:
    """|var| <= |p^k|, i.e. ord(var) >= k."""
    return Region(f"|{var}| <= |{p**k}|", lambda pt: vp(_first(pt), p) >= k)


def region_ord_congruence(var: str, p: int, modulus: int, residue: int) -> Region:
    return Region(
        f"ord({var}) % {modulus} = {residue}",
        lambda pt: vp(_first(pt), p) % modulus == residue,
    )


def _first(pt):
    return pt[0] if isinstance(pt, tuple) else pt


# ---------------------------------------------------------------------------
# the empirical scan, recomputed by brute force


def scan_oracle(points: Sequence, values: Sequence, p: int):
    """(best ratio exponent, witness) over all pairs in order; the first
    maximum wins, which is the lexicographically least witness."""
    best = None
    witness = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            df = vp(values[i] - values[j], p)
            if df is None:
                continue
            ratio = dist_ord(points[i], points[j], p) - df
            if best is None or ratio > best:
                best = ratio
                witness = (points[i], points[j])
    return best, witness


def dist_ord(x, y, p: int) -> int:
    """ord of x - y; on tuples the max norm, i.e. the least finite ord."""
    if isinstance(x, tuple):
        return min(d for d in (vp(a - b, p) for a, b in zip(x, y)) if d is not None)
    return vp(x - y, p)


def ratio_exponent(fx, fy, x, y, p: int) -> int:
    """log_p of |f(x)-f(y)| / |x-y|, max norm on tuples."""
    return dist_ord(x, y, p) - vp(fx - fy, p)


# ---------------------------------------------------------------------------
# the Jacobian property on a ball, checked exhaustively in the library's order


def jacobian_oracle(coeffs: Sequence, center, radius: int, depth: int, p: int) -> dict:
    """Expected verdict of the Jacobian check on center + p^radius Z_p.

    Returns {"kind": "certificate", "jac_ord", "image_center", "image_radius"}
    or {"kind": <violation>, "witness": (points...)}, following the order
    (c) constant ord f', (a) injectivity and image tiling, (d) distances.
    """
    center = canonical_center(center, p, radius)
    step = Fraction(p) ** radius
    reps = [center + r * step for r in range(p**depth)]
    dcoeffs = derivative(coeffs)
    ords = [vp(horner(dcoeffs, x), p) for x in reps]
    for x, o in zip(reps, ords):
        if o != ords[0]:
            return {"kind": "c_jac_ord_varies", "witness": (reps[0], x)}
    if ords[0] is None:
        return {"kind": "c_jac_ord_varies", "witness": (reps[0],)}
    jac = ords[0]
    images = [Fraction(horner(coeffs, x)) for x in reps]
    seen = {}
    for x, fx in zip(reps, images):
        if fx in seen:
            return {"kind": "a_not_injective", "witness": (seen[fx], x)}
        seen[fx] = x
    image_radius = jac + radius
    classes = {}
    for x, fx in zip(reps, images):
        if not in_ball(fx, images[0], image_radius, p):
            return {"kind": "a_image_not_ball", "witness": (reps[0], x)}
        key = canonical_center(fx, p, image_radius + depth)
        if key in classes:
            return {"kind": "a_image_not_ball", "witness": (classes[key], x)}
        classes[key] = x
    for i, j in itertools.combinations(range(len(reps)), 2):
        lhs = vp(images[i] - images[j], p)
        rhs = vp(reps[i] - reps[j], p) + jac
        if lhs != rhs:
            return {"kind": "d_distance_mismatch", "witness": (reps[i], reps[j])}
    return {
        "kind": "certificate",
        "jac_ord": jac,
        "image_center": canonical_center(images[0], p, image_radius),
        "image_radius": image_radius,
    }


def map_ball_oracle(coeffs: Sequence, center, radius: int, depth: int, p: int) -> dict:
    """Expected image of a ball: the minimal ball of the depth-M images and
    whether they tile its p^M residue classes."""
    center = canonical_center(center, p, radius)
    step = Fraction(p) ** radius
    reps = [center + r * step for r in range(p**depth)]
    images = [Fraction(horner(coeffs, x)) for x in reps]
    dists = [vp(fx - images[0], p) for fx in images[1:]]
    finite = [d for d in dists if d is not None]
    if not finite:
        return {"kind": "not_a_ball"}
    r = min(finite)
    keys = {canonical_center(fx, p, r + depth) for fx in images}
    if len(keys) != len(images):
        return {"kind": "not_a_ball"}
    return {"kind": "ball", "center": canonical_center(images[0], p, r), "radius": r}


def expected_pairs(coeffs: Sequence, p: int, levels: int, k: int) -> list:
    """Ball pairs of f = a x^k + ... (a a unit, higher terms divisible by
    p^2) on the cell 1*Q(1,1) around 0: the ball p^v + p^(v+1) Z_p maps onto
    the ball around f(p^v) of radius k v + 1, for v = 0..levels.

    Each pair is ((centre, radius), (image centre, image radius))."""
    pairs = []
    for v in range(levels + 1):
        r = k * v + 1
        image = canonical_center(Fraction(horner(coeffs, p**v)), p, r)
        pairs.append(((Fraction(p) ** v, v + 1), (image, r)))
    return pairs


# ---------------------------------------------------------------------------
# factored terms u * prod (t - c_i)^(a_i)


def factored_value(unit, factors: Sequence, t) -> Fraction:
    out = Fraction(unit)
    for c, a in factors:
        out *= (Fraction(t) - c) ** a
    return out


def format_factored(unit, factors: Sequence) -> str:
    parts = [format_rational(unit)]
    for c, a in factors:
        c = Fraction(c)
        body = f"(t - {format_rational(c)})" if c >= 0 else f"(t + {format_rational(-c)})"
        parts.append(body if a == 1 else f"{body}^({a})" if a < 0 else f"{body}^{a}")
    return " * ".join(parts)


def piece_contains_oracle(center, level_min: int, level_max, residue: int, m: int, t, p: int) -> bool:
    delta = Fraction(t) - Fraction(center)
    o = vp(delta, p)
    if o is None or o < level_min:
        return False
    if level_max is not None and o > level_max:
        return False
    return ac(delta, p, m) == residue
