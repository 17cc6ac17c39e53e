"""Closed forms for the integral homology of finite groups, to any degree.

Brown, *Cohomology of Groups* (1982):

- Z/m: H_n = Z/m for odd n and 0 for even n > 0;
- products, by the Künneth formula (ch. V, §5):
  H_n(G×H) = ⊕_{i+j=n} H_i G ⊗ H_j H ⊕ ⊕_{i+j=n−1} Tor(H_i G, H_j H);
- groups with periodic cohomology of period 4 (ch. VI, §9):
  - the dihedral group D_2m of order 2m, for odd m: H_n = Z/2 when n ≡ 1
    and Z/2m when n ≡ 3 (mod 4), and 0 for even n > 0;
  - the generalized quaternion group Q_4n of order 4n: H_n = Z/2 ⊕ Z/2 when
    n ≡ 1 and Z/4n when n ≡ 3 (mod 4), and 0 for even n > 0.

H_0 is Z throughout.  A form is the list of H_0, ..., H_top, each group a
pair (free rank, orders of cyclic summands) in no particular order;
:func:`normalize` brings one to ``HomologyGroup.pair()``'s invariant-factor
form.  The groups themselves are built here too, as one-object groupoids.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

import finstack as fs


def cyclic(m: int, top: int) -> list:
    return [(1, ())] + [(0, (m,) if n % 2 else ()) for n in range(1, top + 1)]


def _periodic(top: int, one: tuple, three: tuple) -> list:
    return [(1, ())] + [(0, {1: one, 3: three}.get(n % 4, ())) for n in range(1, top + 1)]


def dihedral(m: int, top: int) -> list:
    """D_2m for odd m."""
    assert m % 2
    return _periodic(top, (2,), (2 * m,))


def quaternion(n: int, top: int) -> list:
    """Q_4n."""
    return _periodic(top, (2, 2), (4 * n,))


def _tensor(a: tuple, b: tuple) -> tuple:
    (fa, ta), (fb, tb) = a, b
    return (fa * fb, ta * fb + tb * fa + tuple(gcd(x, y) for x in ta for y in tb))


def _tor(a: tuple, b: tuple) -> tuple:
    return tuple(gcd(x, y) for x in a[1] for y in b[1])


def kunneth(h: list, k: list) -> list:
    """The homology of G×H from those of G and H, to the lower of their tops."""
    out = []
    for n in range(min(len(h), len(k))):
        terms = [_tensor(h[i], k[n - i]) for i in range(n + 1)]
        tors = [x for i in range(n) for x in _tor(h[i], k[n - 1 - i])]
        out.append((sum(f for f, _ in terms), tuple(x for _, t in terms for x in t) + tuple(tors)))
    return out


def _prime_powers(m: int) -> dict:
    """prime -> its power in m."""
    out, p = {}, 2
    while m > 1:
        while m % p == 0:
            out[p] = out.get(p, 1) * p
            m //= p
        p += 1
    return out


def normalize(group: tuple) -> tuple:
    """(free rank, invariant factors d_1 | d_2 | ..., each above 1) of a
    sum of Z^free and the cyclic groups of the given orders."""
    free, orders = group
    powers: dict = {}  # prime -> its powers in the orders, largest first
    for m in orders:
        for p, q in _prime_powers(m).items():
            powers.setdefault(p, []).append(q)
    for qs in powers.values():
        qs.sort(reverse=True)
    factors = [prod(column) for column in itertools.zip_longest(*powers.values(), fillvalue=1)]
    return free, tuple(reversed(factors))


def group_groupoid(elements, mult) -> fs.FiniteGroupoid:
    """The one-object groupoid of the group law ``mult(g, h)`` on ``elements``,
    whose first element is the unit."""
    elements = list(elements)
    return fs.groupoid_from_group(elements, {(g, h): mult(g, h) for g in elements for h in elements},
                                  elements[0])


def product_group(*factors: fs.FiniteGroupoid) -> fs.FiniteGroupoid:
    """The direct product of one-object groupoids, on tuples of their arrows."""
    units = tuple(g.ident[g.objects[0]] for g in factors)
    rest = itertools.product(*(g.morphisms for g in factors))
    return group_groupoid([units] + [x for x in rest if x != units],
                          lambda x, y: tuple(g.compose(a, b) for g, a, b in zip(factors, x, y)))


def dihedral_group(m: int) -> fs.FiniteGroupoid:
    """D_2m as pairs (rotation, reflection)."""
    return group_groupoid([(r, f) for f in (0, 1) for r in range(m)],
                          lambda x, y: ((x[0] + (-y[0] if x[1] else y[0])) % m, x[1] ^ y[1]))


def quaternion_group(n: int) -> fs.FiniteGroupoid:
    """Q_4n = <a, b | a^2n = 1, b^2 = a^n, b a b^-1 = a^-1> as pairs (k, f)
    standing for a^k b^f."""
    def mult(x, y):
        (k, f), (l, g) = x, y
        if not f:
            return (k + l) % (2 * n), g
        return (k - l + n * g) % (2 * n), 1 - g
    return group_groupoid([(k, f) for f in (0, 1) for k in range(2 * n)], mult)
