"""Reference computations shared by several test files.

Nothing here imports signstab: these are the independent oracles the
engine's answers are checked against.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations


def mutated(b, k):
    """Matrix mutation of the full exchange matrix b at k, from the formula."""
    n = len(b)
    return [
        [
            -b[i][j] if k in (i, j)
            else b[i][j] + max(b[i][k], 0) * max(b[k][j], 0)
            - max(-b[i][k], 0) * max(-b[k][j], 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def relabeled(b, sigma):
    """The relabeled matrix b'_{sigma(i) sigma(j)} = b_ij."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = b[i][j]
    return out


def trop_step(col, kp, x):
    """The tropical step x'_k = -x_k, x'_i = x_i + [s*b_ik]_+ x_k with
    s = sgn(x_k); col is column k of B over the coordinates of x, and kp
    is the position of k among them."""
    xk = x[kp]
    s = (xk > 0) - (xk < 0)
    out = list(x)
    out[kp] = -xk
    for i, b in enumerate(col):
        if i != kp and s * b > 0:
            out[i] = x[i] + s * b * xk
    return tuple(out)


def edge_matrix(col, kp, eps):
    """The linear branch of trop_step on the side sgn(x_k) = eps:
    E_kk = -1, E_ik = [eps*b_ik]_+, identity elsewhere."""
    n = len(col)
    return [[-1 if i == j == kp else max(eps * col[i], 0) if j == kp
             else int(i == j) for j in range(n)] for i in range(n)]


def perm_matrix(sigma):
    """Matrix of the relabeling x'_{sigma(i)} = x_i: entry 1 at (sigma(i), i)."""
    n = len(sigma)
    return tuple(tuple(int(sigma[j] == i) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def moved(v, perm):
    """v relabeled: entry p moves to position perm[p]."""
    out = [None] * len(v)
    for p, q in enumerate(perm):
        out[q] = v[p]
    return tuple(out)


class PathWalk:
    """One walk along a path given as plain data, the form
    ``framed_c_matrix`` takes: b is the full exchange matrix, unfrozen its
    unfrozen indices, and in steps an int k is a flip at k and a tuple
    sigma relabels the indices of B.  B moves by ``mutated`` and
    ``relabeled``; ``bs`` holds it at every vertex.  Each step is kept as a
    move on the unfrozen positions (the unfrozen indices in increasing
    order): (kp, column) at a flip, with kp the position of k and column
    the entries b_ik over the unfrozen i, and (None, perm) at a
    relabeling, with perm[p] the new position of position p.  Points, sign
    cones and presentation matrices walk on these moves."""

    def __init__(self, b, unfrozen, steps):
        order = sorted(unfrozen)
        pos = {idx: p for p, idx in enumerate(order)}
        self.n = len(order)
        self.bs = [tuple(map(tuple, b))]
        self.moves = []
        for step in steps:
            if isinstance(step, int):
                self.moves.append((pos[step], [b[i][step] for i in order]))
                b = mutated(b, step)
            else:
                self.moves.append((None, [pos[step[idx]] for idx in order]))
                b = relabeled(b, step)
            self.bs.append(tuple(map(tuple, b)))

    def points(self, w):
        """(signs, the point before each step, the end point) of the point
        w: at each flip the sign of x_k, decided by comparison, and
        ``trop_step``."""
        signs, before = [], []
        for kp, col in self.moves:
            before.append(w)
            if kp is None:
                w = moved(w, col)
            else:
                signs.append((w[kp] > 0) - (w[kp] < 0))
                w = trop_step(col, kp, w)
        return tuple(signs), before, w

    def branch(self, eps):
        """(cone rows, matrix) of the linear branch of a sign sequence or
        prefix eps, with the edge and permutation matrices multiplied out.
        Row nu is eps_nu times row k_nu of the product before flip nu; the
        matrix is the product up to the first flip past eps, so E^eps for
        a whole sign sequence."""
        m = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        rows = []
        for kp, col in self.moves:
            if kp is None:
                m = mat_mul(perm_matrix(col), m)
            elif len(rows) == len(eps):
                break
            else:
                e = eps[len(rows)]
                rows.append(tuple(e * x for x in m[kp]))
                m = mat_mul(edge_matrix(col, kp, e), m)
        return rows, tuple(map(tuple, m))


def framed_c_matrix(b, unfrozen, steps):
    """C-matrix of a path by matrix mutation of the framed matrix
    [[B, -F^T], [F, 0]], where F puts a 1 in frame row p at the p-th
    unfrozen index (principal coefficients).  In steps an int k is a flip
    at k and a tuple sigma relabels the indices of B.  Row p of the result
    is frame row p; its columns are the unfrozen indices in order."""
    n = len(b)
    order = sorted(unfrozen)
    size = n + len(order)
    framed = [list(row) + [0] * len(order) for row in b]
    framed += [[0] * size for _ in order]
    for p, idx in enumerate(order):
        framed[n + p][idx] = 1
        framed[idx][n + p] = -1
    for step in steps:
        if isinstance(step, int):
            framed = mutated(framed, step)
        else:
            framed = relabeled(framed, tuple(step) + tuple(range(n, size)))
    return tuple(tuple(framed[n + p][idx] for idx in order)
                 for p in range(len(order)))


def unique_solution(a, b):
    """The unique solution of a z = b (Fraction elimination), or None when
    the system is inconsistent or underdetermined."""
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(a, b)]
    cols = len(a[0])
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            return None
        m[rank], m[p] = m[p], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if any(row[-1] != 0 for row in m[rank:]):
        return None
    return [m[i][-1] for i in range(cols)]


def gordan_empty(rows, dim):
    """The open cone {x : r.x > 0} is empty iff 0 is in conv(rows) (Gordan).
    By Caratheodory some affinely independent subset of at most dim + 1 rows
    then has 0 in its convex hull, with unique barycentric coordinates."""
    for size in range(1, min(len(rows), dim + 1) + 1):
        for subset in combinations(rows, size):
            a = [[r[k] for r in subset] for k in range(dim)] + [[1] * size]
            lam = unique_solution(a, [0] * dim + [1])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def inverse(m):
    """The exact inverse of a square matrix, one column per unit vector;
    ZeroDivisionError when m is singular."""
    n = len(m)
    cols = [unique_solution(m, [int(i == j) for i in range(n)])
            for j in range(n)]
    if None in cols:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def det(m):
    """The exact determinant by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def charpoly(m):
    """Coefficients of det(nu*I - M), ascending, by Faddeev-LeVerrier over
    the integers: M_1 = M, c_{n-1} = -tr(M_1), M_{k+1} = M (M_k + c_{n-k} I),
    c_{n-k-1} = -tr(M_{k+1})/(k+1).  Every division is exact for an
    integer M."""
    n = len(m)
    coeffs = [0] * n + [1]
    mk = m
    for k in range(1, n + 1):
        c, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rem == 0, "non-integer characteristic coefficient"
        coeffs[n - k] = c
        if k < n:
            mk = mat_mul(m, [[x + c if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(mk)])
    return tuple(coeffs)


def poly_with_top_modulus(factors):
    """A monic integer polynomial built from known factors, as ascending
    coefficients, and its largest root modulus as a 50-digit Decimal.

    A factor is ("root", a) for nu - a; ("real", b, c) for nu^2 - b nu + c
    with b^2 > 4c, whose roots (b +- sqrt(b^2 - 4c))/2 are real; or
    ("pair", c) for nu^2 + c with c > 0, whose roots +-i sqrt(c) have
    modulus sqrt(c)."""
    coeffs, top = (1,), Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        for kind, *args in factors:
            if kind == "root":
                (a,) = args
                factor, modulus = (-a, 1), Decimal(abs(a))
            elif kind == "real":
                b, c = args
                if b * b <= 4 * c:
                    raise ValueError("a real quadratic needs b^2 > 4c")
                factor = (c, -b, 1)
                modulus = (abs(b) + Decimal(b * b - 4 * c).sqrt()) / 2
            elif kind == "pair":
                (c,) = args
                if c <= 0:
                    raise ValueError("a complex pair needs c > 0")
                factor, modulus = (c, 0, 1), Decimal(c).sqrt()
            else:
                raise ValueError(f"unknown factor kind {kind!r}")
            coeffs, top = poly_mul(coeffs, factor), max(top, modulus)
    return coeffs, top


def poly_mul(p, q):
    """The product of two polynomials as ascending coefficient tuples."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def scalar_json(a, b, d):
    """The JSON form of a + b*sqrt(d) for rationals a, b: an int when the
    value is an integer, else "p/q" or "p/q+r/s*sqrt(d)" text in lowest
    terms, with a coefficient of 1 and a rational part of 0 left out."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a.numerator if a.denominator == 1 else str(a)
    tail = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    if a == 0:
        return tail if b > 0 else "-" + tail
    return f"{a}{'+' if b > 0 else '-'}{tail}"


def quadratic_value(coeffs, a, b, d):
    """p(a + b*sqrt(d)) as the pair (A, B) of Fractions with value
    A + B*sqrt(d), for ascending integer coefficients of p, rationals a, b
    and an integer d: Horner's rule on pairs, (x + y*sqrt(d))(a + b*sqrt(d))
    = (xa + dyb) + (xb + ya)*sqrt(d)."""
    a, b = Fraction(a), Fraction(b)
    x, y = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        x, y = x * a + d * y * b + c, x * b + y * a
    return x, y
