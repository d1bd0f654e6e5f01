"""Matroid kernel: rank oracles, minors, flats, connectivity, roundness.

Ground sets are dense integer ranges 0..n-1 and subsets are int bit
vectors (see bits.py).  Minor views keep the parent's indexing and carry
a live-element mask, so a set computed before a contraction still names
the same elements afterwards; the density procedures rely on that.

Rank queries are memoized per matroid value.  Minor views delegate to
their base matroid's memo, so a whole tower of contractions built during
a search shares one cache.  Flat levels join the rank memo on the base:
every view of the minor M / C \\ D keeps its levels in one list the base
holds under (C, D), so a level is built once however many views of the
minor ask for it.  A view registers that list with the first level it
builds, so a view that only answers ranks and closures leaves nothing.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from . import gf
from .bits import bits, indices_of, submasks
from .errors import CapExceeded, InputError

MAX_GROUND = 128

# exhaustive rank-axiom validation ceiling; beyond this we sample
EXHAUSTIVE_LIMIT = 14

# flats one level of the lattice may hold: above the 11,811 of PG(6,2)'s
# ranks 3 and 4 (`round` on `pg 7 2`), the largest level known to be
# needed; U(14,28) has 20,475 flats of rank 4 and 98,280 of rank 5,
# which took ten seconds to build
MAX_FLATS = 15_000


class Matroid:
    """Base class: a ground mask plus a memoized rank oracle.

    Three hooks: subclasses implement ``_rank_impl`` on subsets of
    ``ground``, and may override ``_spanned``, all that ``closure``
    asks, and ``_classes``, the step ``flats_of_rank`` takes (see each),
    with something faster than their scans of rank queries.  Uniform,
    linear and direct-sum kinds override both hooks, and minors pass
    both to their base.
    """

    kind = "abstract"

    def __init__(self, n: int, ground: int | None = None):
        if n > MAX_GROUND:
            raise InputError(f"ground size {n} exceeds cap {MAX_GROUND}")
        self.n = n
        self.ground = (1 << n) - 1 if ground is None else ground
        self._rank_memo: dict[int, int] = {}
        self._flat_levels: list[list[int]] | None = None
        # (contracted, deleted) of a minor view -> that minor's flat levels
        self._minor_levels: dict[tuple[int, int], list[list[int]]] = {}
        self._full_rank: int | None = None

    # -- rank ---------------------------------------------------------

    def _rank_impl(self, x: int) -> int:
        raise NotImplementedError

    def rank(self, x: int | None = None) -> int:
        """Rank of the subset x; rank of the whole matroid when x is None."""
        if x is None:
            if self._full_rank is None:
                self._full_rank = self.rank(self.ground)
            return self._full_rank
        if x & ~self.ground:
            raise IndexError("subset contains elements outside the ground set")
        memo = self._rank_memo
        r = memo.get(x)
        if r is None:
            r = self._rank_impl(x)
            memo[x] = r
        return r

    # -- ground handling ----------------------------------------------

    def elements(self) -> Iterator[int]:
        return bits(self.ground)

    def size(self) -> int:
        return self.ground.bit_count()

    # -- derived notions ------------------------------------------------

    def closure(self, x: int) -> int:
        return x | self._spanned(x, self.ground & ~x)

    def _spanned(self, x: int, mask: int) -> int:
        """The elements of mask outside x that lie in cl(x).

        A minor asks this of its base with mask its own live elements, so
        the scan skips the dead ones.
        """
        rx = self.rank(x)
        out = 0
        for e in bits(mask & ~x):
            if self.rank(x | (1 << e)) == rx:
                out |= 1 << e
        return out

    def _classes(self, x: int, mask: int) -> list[int]:
        """[mask & cl(x), then the other elements e of mask grouped by cl(x + e)].

        The first mask may be 0; the groups after it come in the order
        of their least elements.  This default takes `_spanned`, then
        one closure per group.
        """
        first = mask & x | self._spanned(x, mask)
        out = [first]
        mask &= ~first
        while mask:
            g = self.closure(x | (mask & -mask)) & mask
            out.append(g)
            mask &= ~g
        return out

    def loops(self) -> int:
        """cl(∅), read from level 0 of the flat lattice once it is built."""
        if self._flat_levels is not None:
            return self._flat_levels[0][0]
        return self.closure(0)

    def nonloops(self) -> int:
        return self.ground & ~self.loops()

    def local_conn(self, x: int, y: int) -> int:
        """Local connectivity r(X) + r(Y) - r(X u Y); 0 means X, Y are skew."""
        return self.rank(x) + self.rank(y) - self.rank(x | y)

    def flats_of_rank(self, k: int) -> list[int]:
        """All flats of rank exactly k, ascending by bit-vector value.

        Level k is built from level k-1: the flats covering a flat f are
        f plus one class of E - f under e ~ e' iff cl(f + e) = cl(f + e'),
        and those classes partition E - f.  So a covering flat g already
        found from an earlier parent is the whole class g - f, and only
        the rest of E - f goes to ``_classes`` (nothing, if that rest is
        empty), whose first group, the part of the rest in cl(f), is
        empty.  Each rank-k flat is thus reduced from exactly one
        parent, the least of its hyperplanes, and found once.  Found
        flats are indexed by element and looked up by f's least element
        outside cl(∅), so a lookup scans only flats through that element.

        Levels 0 and 1 come from one ``_classes(0, E)``: its first group
        is cl(∅), and each other one, joined to cl(∅), is a point.  A
        rank-0 matroid has the one flat E, found without it.

        Raises CapExceeded as soon as a level grows past MAX_FLATS; a
        level cut off that way is never stored.
        """
        if k < 0 or k > self.rank():
            return []
        levels = self._flat_levels
        if levels is None:
            levels = self._level_store()
            if not levels:
                if self.rank() == 0:
                    levels.append([self.ground])
                else:
                    loops, *points = self._classes(0, self.ground)
                    levels += [[loops], sorted(loops | p for p in points)]
            self._flat_levels = levels
        loops = levels[0][0]
        while len(levels) <= k:
            if len(levels) == self.rank():
                # cl(E) = E is the only flat of rank r
                levels.append([self.ground])
                break
            nxt: list[int] = []
            through: dict[int, list[int]] = {}  # element bit -> found flats on it
            for f in levels[-1]:
                rest = self.ground & ~f
                key = f & ~loops
                for g in through.get(key & -key, ()):
                    if g & f == f:
                        rest &= ~g
                if not rest:
                    continue
                for c in self._classes(f, rest)[1:]:
                    g = f | c
                    nxt.append(g)
                    on = g & ~loops
                    while on:
                        low = on & -on
                        through.setdefault(low, []).append(g)
                        on ^= low
                if len(nxt) > MAX_FLATS:
                    raise CapExceeded(f"flats of rank {len(levels)} exceed cap {MAX_FLATS}")
            levels.append(sorted(nxt))
        return list(levels[k])

    def _level_store(self) -> list[list[int]]:
        """The list this matroid's flat levels grow in, asked for once."""
        return []

    def epsilon(self) -> int:
        """Number of points (rank-1 flats), i.e. parallel classes of nonloops."""
        return len(self.flats_of_rank(1))

    def representatives(self) -> int:
        """The least element of each nonloop parallel class, as a mask.

        These are the points of si(M); every rank-1 flat holds exactly one.
        `tau`, `tau_weighted` and `simplify` take their points from here.
        """
        loops = self.flats_of_rank(0)[0]
        keep = 0
        for p in self.flats_of_rank(1):
            nz = p & ~loops
            keep |= nz & -nz
        return keep

    def simplify(self) -> tuple["Matroid", dict[int, int | None]]:
        """Delete loops and parallel copies, keeping `representatives`.

        Returns the restriction and a mapping element -> representative
        (None for loops).
        """
        keep = self.representatives()
        loops = self.flats_of_rank(0)[0]
        mapping: dict[int, int | None] = {e: None for e in bits(loops)}
        for p in self.flats_of_rank(1):
            rep = (p & keep).bit_length() - 1
            for e in bits(p & ~loops):
                mapping[e] = rep
        return self.delete(self.ground & ~keep), mapping

    def is_weakly_round(self) -> tuple[bool, tuple[int, int] | None]:
        """Check weak roundness; on failure return a violating pair (A, B).

        M fails iff some hyperplane H has r(E - H) <= r(M) - 2: the pair
        (E - H, H) then covers E with ranks <= r-2 and r-1.  Conversely a
        violating pair (A, B) can be closed and B extended to a
        hyperplane, so scanning hyperplanes is exhaustive.  The returned
        hyperplane minimizes the complement's rank (ties: least H).
        """
        r = self.rank()
        if r <= 2:
            return True, None
        best: tuple[int, int, int] | None = None
        for h in self.flats_of_rank(r - 1):
            comp = self.ground & ~h
            rc = self.rank(comp)
            if rc <= r - 2 and (best is None or rc < best[0]):
                best = (rc, comp, h)
        if best is None:
            return True, None
        return False, (best[1], best[2])

    # -- minors ---------------------------------------------------------

    def contract(self, c: int) -> "Matroid":
        return self.minor(c, 0)

    def delete(self, d: int) -> "Matroid":
        return self.minor(0, d)

    def restrict(self, x: int) -> "Matroid":
        return self.minor(0, self.ground & ~x)

    def minor(self, contract: int, delete: int) -> "Matroid":
        if contract & delete:
            raise InputError("contract and delete sets overlap")
        if (contract | delete) & ~self.ground:
            raise IndexError("minor sets contain dead elements")
        if contract == 0 and delete == 0:
            return self
        return MinorMatroid(self, contract, delete)

    def basis_of(self, x: int) -> int:
        """Greedy (least-index) basis of the subset x."""
        b = 0
        r = 0
        for e in bits(x):
            if self.rank(b | (1 << e)) > r:
                b |= 1 << e
                r += 1
        return b

    def __repr__(self):
        return f"<{self.kind} matroid r={self.rank()} n={self.size()}>"


class UniformMatroid(Matroid):
    """U_{r,n}: every subset of size <= r is independent."""

    kind = "uniform"

    def __init__(self, r: int, n: int):
        if r < 0 or n < 0 or r > n:
            raise InputError(f"bad uniform parameters r={r}, n={n}")
        super().__init__(n)
        self.r = r

    def _rank_impl(self, x: int) -> int:
        return min(x.bit_count(), self.r)

    def _spanned(self, x: int, mask: int) -> int:
        return mask & ~x if x.bit_count() >= self.r else 0

    def _classes(self, x: int, mask: int) -> list[int]:
        """By rule, with no rank query: cl(x) is E when |x| >= r, else x."""
        k = x.bit_count()
        if k >= self.r:
            return [mask]
        rest = mask & ~x
        if k == self.r - 1:
            return [mask & x, rest] if rest else [mask & x]
        return [mask & x, *(1 << e for e in bits(rest))]


class LinearMatroid(Matroid):
    """Column matroid of a matrix over GF(q)."""

    kind = "linear"

    def __init__(self, matrix: gf.Matrix):
        super().__init__(matrix.cols)
        self.matrix = matrix
        self.field = matrix.field
        self._vecs = tuple(gf.vector(self.field, col) for col in matrix.columns())

    def _rank_impl(self, x: int) -> int:
        return len(gf.echelon(self.field, self._vecs, x))

    def _spanned(self, x: int, mask: int) -> int:
        """Span membership test against an echelon basis of x's columns."""
        f, vecs = self.field, self._vecs
        return gf.spanned(f, gf.echelon(f, vecs, x), vecs, mask & ~x)

    def _classes(self, x: int, mask: int) -> list[int]:
        """One elimination of x, then each column of mask reduced once."""
        f, vecs = self.field, self._vecs
        return gf.classes(f, gf.echelon(f, vecs, x), vecs, mask)


class MinorMatroid(Matroid):
    """View M / contract \\ delete with the parent's element indexing.

    Nested minors flatten: contracting a minor composes the contraction
    sets on the original base, so rank queries stay two base lookups.
    """

    kind = "minor"

    def __init__(self, base: Matroid, contract: int, delete: int):
        if isinstance(base, MinorMatroid):
            contract = base.contracted | contract
            delete = base.deleted | delete
            base = base.base
        super().__init__(base.n, base.ground & ~contract & ~delete)
        self.base = base
        self.contracted = contract
        self.deleted = delete
        self._rc = base.rank(contract)

    def _rank_impl(self, x: int) -> int:
        return self.base.rank(x | self.contracted) - self._rc

    def rank(self, x: int | None = None) -> int:
        # delegate memoization to the base matroid
        if x is None:
            if self._full_rank is None:
                self._full_rank = self._rank_impl(self.ground)
            return self._full_rank
        if x & ~self.ground:
            raise IndexError("subset contains elements outside the ground set")
        return self._rank_impl(x)

    def _level_store(self) -> list[list[int]]:
        """The levels every view of this minor of the base shares."""
        key = (self.contracted, self.deleted)
        return self.base._minor_levels.setdefault(key, [])

    def _spanned(self, x: int, mask: int) -> int:
        return self.base._spanned(x | self.contracted, mask)

    def _classes(self, x: int, mask: int) -> list[int]:
        return self.base._classes(x | self.contracted, mask)


class DirectSumMatroid(Matroid):
    """Direct sum; parts are reindexed consecutively by live element order.

    Part i's live elements, in increasing order, become the elements
    offset_i, offset_i + 1, ... of the sum.  A closure of the sum is the
    union of its parts' closures, and the flats covering a flat add one
    class of one part, so `_spanned` and `_classes` split their sets by
    part, ask each part for its own answer (a linear part eliminates, a
    uniform one closes in O(1)) and map the answers back through tables
    built once.  Minors of a sum reach both through their base.
    """

    kind = "direct_sum"

    def __init__(self, parts: Sequence[Matroid]):
        if not parts:
            raise InputError("direct sum needs at least one part")
        self.parts = tuple(parts)
        super().__init__(sum(part.size() for part in self.parts))
        # per part: its block's offset and width mask, the local bit of
        # each block position, and the global bit of each local element
        self._blocks = []
        off = 0
        for part in self.parts:
            live = indices_of(part.ground)
            to_global = [0] * part.n
            for j, e in enumerate(live):
                to_global[e] = 1 << (off + j)
            self._blocks.append((off, (1 << len(live)) - 1, [1 << e for e in live], to_global))
            off += len(live)

    def _split(self, x: int) -> list[int]:
        local = []
        for off, width, to_local, _ in self._blocks:
            chunk = (x >> off) & width
            lm = 0
            while chunk:
                low = chunk & -chunk
                lm |= to_local[low.bit_length() - 1]
                chunk ^= low
            local.append(lm)
        return local

    def _lift(self, i: int, lm: int) -> int:
        """Part i's local subset lm as a subset of the sum."""
        to_global = self._blocks[i][3]
        out = 0
        while lm:
            low = lm & -lm
            out |= to_global[low.bit_length() - 1]
            lm ^= low
        return out

    def _rank_impl(self, x: int) -> int:
        return sum(part.rank(lm) for part, lm in zip(self.parts, self._split(x)))

    def _spanned(self, x: int, mask: int) -> int:
        out = 0
        for i, (part, xl, ml) in enumerate(zip(self.parts, self._split(x), self._split(mask))):
            if ml:
                out |= self._lift(i, part._spanned(xl, ml))
        return out

    def _classes(self, x: int, mask: int) -> list[int]:
        # parts occupy ascending blocks and keep their elements' order,
        # so part by part their groups stay in order of least elements
        spanned, out = 0, []
        for i, (part, xl, ml) in enumerate(zip(self.parts, self._split(x), self._split(mask))):
            if ml:
                first, *groups = part._classes(xl, ml)
                spanned |= self._lift(i, first)
                out.extend(self._lift(i, g) for g in groups)
        return [spanned, *out]


def direct_sum(parts: Sequence[Matroid]) -> DirectSumMatroid:
    return DirectSumMatroid(parts)


def validate_rank_axioms(m: Matroid, samples: int = 2000, seed: int = 0) -> bool:
    """Check the rank axioms, exhaustively for small ground sets.

    Exhaustive mode checks normalization plus, for every subset X and
    elements e, f outside X, unit increase and the local exchange
    inequality r(X+e) + r(X+f) >= r(X+e+f) + r(X); together these are
    equivalent to monotonicity and full submodularity.  Larger matroids
    get a seeded sample of subset pairs checked directly.
    """
    if m.rank(0) != 0:
        return False
    live = indices_of(m.ground)
    if len(live) <= EXHAUSTIVE_LIMIT:
        for x in submasks(m.ground):
            rx = m.rank(x)
            rest = live if x == 0 else [e for e in live if not (x >> e) & 1]
            singles = {}
            for e in rest:
                re = m.rank(x | (1 << e))
                if not rx <= re <= rx + 1:
                    return False
                singles[e] = re
            for i, e in enumerate(rest):
                be = 1 << e
                for f in rest[i + 1:]:
                    ref = m.rank(x | be | (1 << f))
                    if singles[e] + singles[f] < ref + rx:
                        return False
        return True
    rng = random.Random(seed)
    full = m.ground
    for _ in range(samples):
        x = 0
        y = 0
        for e in live:
            roll = rng.random()
            if roll < 0.4:
                x |= 1 << e
            if 0.2 < roll < 0.6:
                y |= 1 << e
        rx, ry = m.rank(x), m.rank(y)
        if rx + ry < m.rank(x | y) + m.rank(x & y):
            return False
        if x & y == x and rx > ry:
            return False
        e = rng.choice(live)
        re = m.rank(x | (1 << e))
        if not rx <= re <= rx + 1:
            return False
        if m.rank(full) < rx:
            return False
    return True
