"""The order of a permutation group, by deterministic Schreier-Sims.

A test tool: the group is given by generators, each a tuple that
permutes range(degree), and no step is random, so every run sifts the
same Schreier generators in the same order.  This is SCHREIERSIMS of
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.4.2:
a base and a strong generating set are grown until every Schreier
generator of every level sifts to the identity through the levels
below it; the order is then the product of the basic orbit lengths.
"""


def _mul(a, b):
    """a after b."""
    return tuple(a[x] for x in b)


def _inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class _Chain:
    """A stabilizer chain: level i has a base point, the strong
    generators that fix the base points before it, and its basic orbit,
    each point with a transversal element u, taking the base point to
    it, and u^-1."""

    def __init__(self, degree):
        self.identity = tuple(range(degree))
        self.base, self.gens, self.orbits = [], [], []

    def add_level(self, g):
        """A new base point, the first point that g moves."""
        self.base.append(next(x for x, y in enumerate(g) if x != y))
        self.gens.append([])
        self.orbits.append({})

    def build_orbit(self, i):
        point = self.base[i]
        orbit = {point: (self.identity, self.identity)}
        queue = [point]
        for x in queue:
            u = orbit[x][0]
            for s in self.gens[i]:
                if s[x] not in orbit:
                    v = _mul(s, u)
                    orbit[s[x]] = (v, _inverse(v))
                    queue.append(s[x])
        self.orbits[i] = orbit

    def sift(self, g, start):
        """(residue, level at which it left the chain) of g, sifted from
        level ``start`` on; the level is len(base) if it went through."""
        for i in range(start, len(self.base)):
            entry = self.orbits[i].get(g[self.base[i]])
            if entry is None:
                return g, i
            g = _mul(entry[1], g)
        return g, len(self.base)

    def schreier_generators(self, i):
        """u_(s x)^-1 s u_x for each point x of orbit i and generator s."""
        orbit = self.orbits[i]
        for u, _ in orbit.values():
            for s in self.gens[i]:
                su = _mul(s, u)
                yield _mul(orbit[su[self.base[i]]][1], su)


def order(gens, degree: int) -> int:
    """The order of the group generated by ``gens``, permutations of
    range(degree)."""
    chain = _Chain(degree)
    gens = [g for g in map(tuple, gens) if g != chain.identity]
    for g in gens:
        if all(g[b] == b for b in chain.base):
            chain.add_level(g)
    for i in range(len(chain.base)):
        chain.gens[i] = [g for g in gens if all(g[b] == b for b in chain.base[:i])]
        chain.build_orbit(i)
    i = len(chain.base) - 1
    while i >= 0:
        residues = (chain.sift(h, i + 1) for h in chain.schreier_generators(i))
        found = next(((y, j) for y, j in residues if y != chain.identity), None)
        if found is None:
            i -= 1
            continue
        y, j = found
        if j == len(chain.base):
            chain.add_level(y)
        for level in range(i + 1, j + 1):
            chain.gens[level].append(y)
            chain.build_orbit(level)
        i = j
    total = 1
    for orbit in chain.orbits:
        total *= len(orbit)
    return total
