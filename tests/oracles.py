"""All-pairs reference scans for the ball-tree algorithms of the library.

Each function visits every pair (i, j), i < j, in index order and keeps the
first pair that decides the answer, which is the lexicographically least
one.  They are quadratic and exist only as oracles for the tests.
"""

from ultralip.qp_core import tuple_norm


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
