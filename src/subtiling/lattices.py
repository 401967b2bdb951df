"""Finitely generated subgroups of Q(beta) as integer lattices.

A ZModule stores a Hermite-normal-form basis over a common denominator:
the rows of `basis`, divided by `denom`, are coordinate vectors of field
elements in the power basis.  The pair (denom, basis) is canonical, so
equality of modules is equality of the representation.  Quotients of
nested modules are computed through the Smith normal form of the
change-of-basis matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NotASubmodule
from .suspension import reference_point_sets


def _lcm(a, b):
    return a * b // gcd(a, b)


def hermite_normal_form(rows, width):
    """Row-style HNF of the integer row span: pivot columns increase,
    pivots are positive, entries above a pivot are reduced mod the pivot.

    Rows are inserted one at a time; a row is only ever combined with the
    pivot row of its own leading column, so leading columns never move
    left and the echelon structure is preserved.
    """
    pivot_of = {}               # leading column -> row
    for row in rows:
        row = list(row)
        while True:
            c = next((i for i, v in enumerate(row) if v), None)
            if c is None:
                break
            existing = pivot_of.get(c)
            if existing is None:
                pivot_of[c] = row
                break
            a, b = existing[c], row[c]
            if b % a == 0:
                q = b // a
                for t in range(c, width):
                    row[t] -= q * existing[t]
            else:
                g, x, y = _xgcd(a, b)
                qa, qb = a // g, b // g
                combined = [x * u + y * v for u, v in zip(existing, row)]
                row = [qa * v - qb * u for u, v in zip(existing, row)]
                existing[:] = combined
    basis = [pivot_of[c] for c in sorted(pivot_of)]
    # pivots positive, then reduce entries above each pivot; applying the
    # lower rows in increasing pivot order never disturbs earlier columns
    for r in basis:
        j = next(i for i, v in enumerate(r) if v)
        if r[j] < 0:
            for t in range(width):
                r[t] = -r[t]
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            rk = basis[k]
            j = next(t for t, v in enumerate(rk) if v)
            q = basis[i][j] // rk[j]
            if q:
                for t in range(width):
                    basis[i][t] -= q * rk[t]
    return [tuple(r) for r in basis]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(matrix):
    """Diagonal invariant factors d1 | d2 | ... of an integer matrix."""
    mat = [list(r) for r in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    diag = []
    top = 0
    while top < rows and top < cols:
        # find a nonzero entry of least absolute value
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for r in mat:
            r[top], r[bj] = r[bj], r[top]
        again = False
        for i in range(top + 1, rows):
            if mat[i][top]:
                q = mat[i][top] // mat[top][top]
                for t in range(cols):
                    mat[i][t] -= q * mat[top][t]
                if mat[i][top]:
                    again = True
        for j in range(top + 1, cols):
            if mat[top][j]:
                q = mat[top][j] // mat[top][top]
                for r in mat:
                    r[j] -= q * r[top]
                if mat[top][j]:
                    again = True
        if again:
            continue
        diag.append(abs(mat[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


@dataclass(frozen=True)
class ZModule:
    """Canonical lattice: rows of basis / denom span the module over Z."""

    denom: int
    basis: tuple
    width: int

    @property
    def rank(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains_vector(self, coords):
        """Membership of a rational coordinate vector."""
        return self.coordinates_of(coords) is not None

    def contains(self, elem):
        return self.contains_vector(elem.coords)

    def coordinates_of(self, coords):
        """Integer coordinates in the basis, or None."""
        scaled = []
        for c in coords:
            v = Fraction(c) * self.denom
            if v.denominator != 1:
                return None
            scaled.append(int(v))
        out = []
        for row in self.basis:
            j = next(i for i, v in enumerate(row) if v)
            if scaled[j] % row[j]:
                return None
            q = scaled[j] // row[j]
            out.append(q)
            scaled = [a - q * b for a, b in zip(scaled, row)]
        if any(scaled):
            return None
        return out

    def describe(self):
        return {
            "denominator": self.denom,
            "basis": [list(r) for r in self.basis],
        }


def module_from_vectors(vectors, width):
    """Canonical ZModule spanned by rational coordinate vectors."""
    denom = 1
    rat = [[Fraction(c) for c in v] for v in vectors]
    for v in rat:
        for c in v:
            denom = _lcm(denom, c.denominator)
    rows = [[int(c * denom) for c in v] for v in rat]
    basis = hermite_normal_form(rows, width)
    if not basis:
        return ZModule(1, (), width)
    g = denom
    for row in basis:
        for c in row:
            g = gcd(g, abs(c))
    basis = tuple(tuple(c // g for c in row) for row in basis)
    return ZModule(denom // g, basis, width)


def module_from(elems, width=None):
    """Z-span of a finite set of field elements as a canonical lattice."""
    elems = list(elems)
    if width is None:
        if not elems:
            raise ValueError("cannot infer width from an empty set")
        width = len(elems[0].coords)
    return module_from_vectors([e.coords for e in elems], width)


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form of a finitely generated abelian group."""

    invariant_factors: tuple
    free_rank: int = 0

    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    def order(self):
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + [
            f"Z/{d}Z" for d in self.invariant_factors
        ]
        return " + ".join(parts) if parts else "trivial"


def quotient(sup: ZModule, sub: ZModule) -> AbelianGroup:
    """The group sup / sub for nested lattices."""
    if sup.width != sub.width:
        raise NotASubmodule("lattices live in different spaces")
    change = []
    for row in sub.basis:
        coords = [Fraction(c, sub.denom) for c in row]
        expressed = sup.coordinates_of(coords)
        if expressed is None:
            raise NotASubmodule("basis vector escapes the larger lattice")
        change.append(expressed)
    if not change:
        return AbelianGroup((), free_rank=sup.rank)
    diag = smith_normal_form(change)
    nonzero = [d for d in diag if d]
    factors = tuple(d for d in nonzero if d > 1)
    free = sup.rank - len(nonzero)
    return AbelianGroup(factors, free_rank=free)


# ---------------------------------------------------------------------------
# Height groups and eventual return vectors
# ---------------------------------------------------------------------------


@dataclass
class HeightGroupResult:
    group: AbelianGroup
    stabilized_at: int | None
    windows_used: tuple
    sup: ZModule
    sub: ZModule

    @property
    def unstable(self):
        return self.stabilized_at is None


DEFAULT_WINDOW_SCHEDULE = (16, 32, 64, 128)


def return_lattices(system, refpoints, size):
    """Cross-difference and same-color difference lattices of the
    reference points in the window of the given size.

    Each lattice is spanned by the differences x - x0 to one base point x0
    of its point set: every pairwise difference x - y is
    (x - x0) - (y - x0), and the canonical form makes the result equal to
    the lattice of all pairwise differences.
    """
    lo, hi = system.window(size)
    patch = system.patch_covering(lo, hi)
    pts = reference_point_sets(patch, refpoints, (lo, hi))

    def span(point_sets):
        return module_from_vectors(
            [(x - p[0]).coords for p in point_sets for x in p[1:]],
            system.field.degree,
        )

    return span([pts.union()]), span(pts.per_color)


def height_group(system, refpoints, schedule=DEFAULT_WINDOW_SCHEDULE):
    """Quotient of the cross-difference lattice by the same-color one.

    Both lattices are sampled on a growing window schedule; the result is
    taken at the first window whose lattices agree with the next window's,
    and flagged unstable when no two consecutive windows agree.
    """
    samples = [(size,) + return_lattices(system, refpoints, size)
               for size in schedule]
    for (size, sup_mod, sub_mod), (_, sup_next, sub_next) in zip(
        samples, samples[1:]
    ):
        if sup_mod == sup_next and sub_mod == sub_next:
            return HeightGroupResult(
                quotient(sup_mod, sub_mod), size, tuple(schedule),
                sup_mod, sub_mod,
            )
    size, sup_mod, sub_mod = samples[-1]
    return HeightGroupResult(
        quotient(sup_mod, sub_mod), None, tuple(schedule), sup_mod, sub_mod
    )


def eventual_membership(elem, lattice: ZModule, beta, kmax):
    """Least k <= kmax with beta^k * elem in the lattice, else None.

    Non-membership is never asserted: exhausting kmax only reports the
    bound that was tried.
    """
    current = elem
    for k in range(kmax + 1):
        if lattice.contains(current):
            return k
        current = current * beta
    return None


@dataclass
class ReturnModuleResult:
    status: str                 # "HOLDS" or "UNKNOWN"
    max_power: int | None
    bound: int
    generators: tuple
    witnesses: tuple
    sup: ZModule
    sub: ZModule


def differences_in_return_module(system, refpoints, kmax, window_size):
    """Check that every sampled cross difference eventually returns.

    For each basis generator v of the cross-difference lattice, search the
    least k with beta^k * v inside the same-color difference lattice.
    HOLDS when all generators succeed; otherwise UNKNOWN at the bound.
    """
    sup_mod, sub_mod = return_lattices(system, refpoints, window_size)
    witnesses = []
    generators = []
    all_found = True
    for row in sup_mod.basis:
        coords = [Fraction(c, sup_mod.denom) for c in row]
        elem = system.field.element(coords)
        generators.append(elem)
        k = eventual_membership(elem, sub_mod, system.beta, kmax)
        witnesses.append(k)
        if k is None:
            all_found = False
    status = "HOLDS" if all_found else "UNKNOWN"
    max_power = max((k for k in witnesses if k is not None), default=0)
    return ReturnModuleResult(
        status, max_power if all_found else None, kmax,
        tuple(generators), tuple(witnesses), sup_mod, sub_mod,
    )
