"""The reference action of any matrix on a walked flag variety.

The library moves subspaces only while it walks X_P under G's letters,
and composes every other element's permutation of the points from the
letters'.  This module maps a matrix the direct way instead: its
permutation of the lines of F_q^dim, then the sorted image of each
subspace of X_P, then the image of each point.  Tests compare the
composed permutations with it, and use it to let arbitrary matrices act.
reference_orbits counts orbits on a product of such spaces by plain
union-find, where the library walks one space only.  mat_inv inverts
a matrix for the tests' references, and identity builds the identity
matrix; the library needs neither.
"""

from operator import getitem

from dflag import gfq
from dflag.errors import CrossCheckError
from dflag.orbits import _line_perm, _walk_flags


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inv(a, q):
    """Inverse of a square matrix: the right half of rref([a | I])."""
    n = len(a)
    reduced = gfq.rref([tuple(row) + e for row, e in zip(a, identity(n))], q)
    if tuple(row[:n] for row in reduced) != identity(n):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


class PointAction:
    """X_P as _walk_flags(group, shape, q) walks it, with lookups of its
    subspaces and points."""

    def __init__(self, group, shape, q):
        self.name = f"{group}/{shape} over F_{q}"
        self.subspaces, self.points, _ = _walk_flags(group, shape, q)
        self.q = q
        self.subspace_ids = {sub: i for i, sub in enumerate(self.subspaces)}
        self.index = {pt: i for i, pt in enumerate(self.points)}

    def of_lines(self, lines):
        """The permutation of the points induced by the line permutation
        ``lines``: one lookup per subspace, one per point."""
        image, name = lines.__getitem__, self.name
        try:
            subs = [self.subspace_ids[tuple(sorted(map(image, sub)))] for sub in self.subspaces]
        except KeyError:
            raise CrossCheckError(
                f"the image of a subspace of {name} is not one of its subspaces"
            ) from None
        move = subs.__getitem__
        try:
            return tuple([self.index[tuple(map(move, pt))] for pt in self.points])
        except KeyError:
            raise CrossCheckError(
                f"the image of a point of {name} is not one of its points"
            ) from None

    def perm(self, mat):
        """The permutation of the points induced by mat."""
        return self.of_lines(_line_perm(mat, self.q))

    def space(self, mats):
        """X_P as (size, one permutation per matrix of ``mats``)."""
        return len(self.points), [self.perm(m) for m in mats]


def reference_orbits(spaces):
    """(points, orbits) of the diagonal action on the product of
    ``spaces``, each (size, one permutation per generator), by plain
    union-find over tuples."""
    points = [()]
    for s in spaces:
        points = [pt + (i,) for pt in points for i in range(s[0])]
    parent = {pt: pt for pt in points}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for g in range(len(spaces[0][1])):
        factors = [perms[g] for _, perms in spaces]
        for pt in points:
            parent[find(pt)] = find(tuple(map(getitem, factors, pt)))
    return len(points), sum(1 for pt in points if find(pt) == pt)
