"""Finitely generated subgroups of Q(beta) as integer lattices.

A ZModule stores a Hermite-normal-form basis over a common denominator:
the rows of `basis`, divided by `denom`, are coordinate vectors of field
elements in the power basis.  The pair (denom, basis) is canonical, so
equality of modules is equality of the representation.  Quotients of
nested modules are computed through the Smith normal form of the
change-of-basis matrix, which alternates Hermite normal forms of its rows
and of its columns: one integer elimination serves both.

Everything past setup is an integer vector over a denominator: the
reference points come as the (vectors, denominator) pair of
`suspension.control_points`, a window's lattices are spanned by the
distinct neighbour steps of its point sets (`return_lattices`), the steps
and the basis rows are integer rows, membership is
`ZModule.coordinates_of(ints, denom)`, and eventual return multiplies by
beta with `NumberField.times_beta`.  No field element is made.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import NotASubmodule
from .suspension import reference_point_sets


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
    """Diagonal invariant factors d1 | d2 | ... of an integer matrix.

    `hermite_normal_form` runs on the rows and on the columns in turn
    until one nonzero entry is left in each row.  Each pass multiplies by
    a unimodular matrix on one side, and the passes end: a pass makes the
    first pivot the gcd of its column, so it falls to a proper divisor at
    every pass until its row and column hold nothing else, and the rows
    below follow in turn.  The nonzero entries are then brought into a
    divisibility chain."""
    rows, width = matrix, len(matrix[0]) if matrix else 0
    while True:
        rows = hermite_normal_form(rows, width)
        if all(sum(1 for v in row if v) == 1 for row in rows):
            break
        rows, width = list(zip(*rows)), len(rows)
    diag = [next(v for v in row if v) for row in rows]
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

    def coordinates_of(self, ints, denom):
        """Integer coordinates in the basis of the vector ints / denom, or
        None when it is not in the module."""
        scaled = []
        for a in ints:
            q, r = divmod(a * self.denom, denom)
            if r:
                return None
            scaled.append(q)
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


def module_from_int_rows(rows, denom, width):
    """Canonical ZModule spanned by integer rows over a denominator: the
    vectors row / denom.  Any common denominator gives the same module."""
    basis = hermite_normal_form(rows, width)
    if not basis:
        return ZModule(1, (), width)
    g = gcd(denom, *(c for row in basis for c in row))
    basis = tuple(tuple(c // g for c in row) for row in basis)
    return ZModule(denom // g, basis, width)


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form of a finitely generated abelian group."""

    invariant_factors: tuple
    free_rank: int = 0

    def __str__(self):
        parts = ["Z"] * self.free_rank + [
            f"Z/{d}Z" for d in self.invariant_factors
        ]
        return " + ".join(parts) if parts else "trivial"


def quotient(sup: ZModule, sub: ZModule) -> AbelianGroup:
    """The group sup / sub for nested lattices.  A ZModule is canonical,
    so equal lattices compare equal and their quotient is trivial."""
    if sup == sub:
        return AbelianGroup(())
    if sup.width != sub.width:
        raise NotASubmodule("lattices live in different spaces")
    change = []
    for row in sub.basis:
        expressed = sup.coordinates_of(row, sub.denom)
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
    stabilized_at: int | None   # None when no two windows agreed
    sup: ZModule
    sub: ZModule


WINDOW_SCHEDULE = (16, 32, 64, 128)
# the largest power of beta that eventual return tries
POWER_BOUND = 16


def return_lattices(system, refpoints, size):
    """Cross-difference and same-color difference lattices of the
    reference points in the window of the given size.

    Each lattice is spanned by the distinct neighbour steps of its point
    set, in patch order (`_step_span`): the cross lattice by the steps
    between consecutive points of any colors, the same-color one by the
    return vectors between consecutive points of one color.  The
    differences are integer vectors over the sample's denominator.
    """
    lo, hi = system.window(size)
    patch = system.patch_covering(lo, hi)
    pts = reference_point_sets(patch, refpoints, (lo, hi))
    width = system.field.degree
    # every point of the sample in patch order
    union = [x for _, x in sorted(
        (k, x) for indices, points in zip(pts.indices, pts.points)
        for k, x in zip(indices, points))]
    return (_step_span([union], pts.denom, width),
            _step_span(pts.points, pts.denom, width))


def _step_span(point_sets, denom, width):
    """The lattice spanned by all differences within each point set, from
    its distinct neighbour steps x_(i+1) - x_i alone: by telescoping,
    x_j - x_i is a sum of the steps between them, so the steps span every
    difference, and the canonical form is that of all of them."""
    steps = {tuple(map(operator.sub, y, x)): None
             for points in point_sets for x, y in zip(points, points[1:])}
    return module_from_int_rows(list(steps), denom, width)


def height_group(system, refpoints):
    """The height group's lattices: the cross-difference and same-color
    lattices of the first window of WINDOW_SCHEDULE that agrees with the
    next one, and that window; the last window's lattices, and None, when
    no two consecutive windows agree.  Sampling stops at the next window,
    the one that agrees.  A report's `windows` names the schedule, not the
    windows sampled."""
    pair = prev_size = None
    for size in WINDOW_SCHEDULE:
        prev, pair = pair, return_lattices(system, refpoints, size)
        if pair == prev:
            return HeightGroupResult(prev_size, *pair)
        prev_size = size
    return HeightGroupResult(None, *pair)


def eventual_membership(ints, denom, lattice: ZModule, field):
    """Least k <= POWER_BOUND with beta^k * ints / denom in the lattice,
    else None.

    beta is an algebraic integer, so each step is `NumberField.times_beta`
    on the integer vector over the same denominator.  Non-membership is
    never asserted: exhausting POWER_BOUND only reports the bound tried.
    """
    for k in range(POWER_BOUND + 1):
        if lattice.coordinates_of(ints, denom) is not None:
            return k
        ints = field.times_beta(ints)
    return None


@dataclass
class ReturnModuleResult:
    witnesses: tuple            # the least power per basis row of sup
    sup: ZModule
    bound_hit: str | None = None


def differences_in_return_module(system, res: HeightGroupResult):
    """Check that every cross difference eventually returns.

    For each basis generator v of the cross-difference lattice of a
    height group `res`, search the least k <= POWER_BOUND with beta^k * v
    inside its same-color lattice; None where there is none.  The result
    names the window read when none is stable or its same-color lattice
    is zero, else the power bound when some generator has no k.
    """
    witnesses = tuple(
        eventual_membership(row, res.sup.denom, res.sub, system.field)
        for row in res.sup.basis)
    window = res.stabilized_at or WINDOW_SCHEDULE[-1]
    return ReturnModuleResult(witnesses, res.sup, bound_hit=(
        f"window {window}" if res.stabilized_at is None or res.sub.is_zero()
        else f"power bound {POWER_BOUND}" if None in witnesses else None))
