"""Suspension tilings of the line for a primitive substitution.

Prototile i is the interval [0, len_i) where the lengths form the left
eigenvector of the substitution matrix for the dominant eigenvalue beta,
normalized so the last letter has unit length.  A two-sided fixed point
of sigma^k, found by fixed_point_seed, realizes the tiling; patches list
tiles as (position, color) with exact positions in Q(beta) obtained by
prefix sums.  Reference points per prototile turn a patch into a colored
point set.  All values are immutable and all comparisons certified.
"""

from __future__ import annotations

from fractions import Fraction

from . import algebraic, words
from .errors import EigenvectorDefect, WindowNotCovered
from .words import DEFAULT_WORD_CAP, Substitution


def _solve_kernel(rows, field):
    """Spanning vector of the one-dimensional kernel of a matrix over the
    field, with a one at its free column.

    Gauss-Jordan elimination with exact pivoting; raises EigenvectorDefect
    unless the kernel has dimension exactly one.  It also solves a square
    system A x = b with a unique solution: that is the kernel of the
    augmented matrix [A | -b], and its free column is the last one.
    """
    m = len(rows)
    width = len(rows[0])
    mat = [list(row) for row in rows]
    pivots = {}
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, m):
            if not mat[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(m):
            if i != r and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(width) if c not in pivots]
    if len(free) != 1:
        raise EigenvectorDefect(
            f"kernel dimension {len(free)} (expected 1)"
        )
    fc = free[0]
    vec = [field.zero()] * width
    vec[fc] = field.one()
    for col, row in pivots.items():
        vec[col] = -mat[row][fc]
    return vec


def prototile_lengths(sub: Substitution, field: algebraic.NumberField):
    """Left beta-eigenvector of the substitution matrix, entries in
    Q(beta), last entry normalized to 1, every entry certified positive."""
    matrix = words.substitution_matrix(sub)
    m = sub.size
    beta = field.beta()
    rows = [
        [field.rational(matrix[i][j]) - (beta if i == j else 0)
         for i in range(m)]
        for j in range(m)
    ]
    vec = _solve_kernel(rows, field)
    last = vec[-1]
    if last.is_zero():
        raise EigenvectorDefect("eigenvector has zero final entry")
    inv = last.inverse()
    lengths = [v * inv for v in vec]
    for length in lengths:
        if length.sign() <= 0:
            raise EigenvectorDefect("eigenvector is not strictly positive")
    return tuple(lengths)


class SuspensionSystem:
    """A substitution together with its exact geometric realization."""

    def __init__(self, sub: Substitution, word_cap=DEFAULT_WORD_CAP):
        matrix = words.substitution_matrix(sub)
        if not words.is_primitive(matrix):
            raise ValueError("substitution is not primitive")
        self.sub = sub
        self.matrix = matrix
        self.char_poly = algebraic.char_poly(matrix)
        self.field = algebraic.perron_factor(self.char_poly)
        self.beta = self.field.beta()
        self.lengths = prototile_lengths(sub, self.field)
        self.seed = words.fixed_point_seed(sub)
        self.word_cap = word_cap
        self._patch_cache = {}
        # exact left offsets of each subtile within the inflated prototile
        offs = []
        for letter in range(1, sub.size + 1):
            acc = self.field.zero()
            row = []
            for c in sub.rule(letter):
                row.append(acc)
                acc = acc + self.lengths[c - 1]
            offs.append(tuple(row))
        self.subtile_offsets = tuple(offs)

    @property
    def size(self):
        return self.sub.size

    def length_of(self, letter):
        return self.lengths[letter - 1]

    def max_length_bound(self):
        """Deterministic rational upper bound on the prototile lengths."""
        sixteenth = Fraction(1, 16)
        for length in self.lengths:
            while length.interval().width > sixteenth:
                self.field._refine_once()
        return max(length.interval().hi for length in self.lengths)

    def window(self, size_in_tiles):
        """Symmetric window of the given total width in tile-length units."""
        half = Fraction(size_in_tiles, 2) * self.max_length_bound()
        return (-half, half)

    # -- patches ---------------------------------------------------------

    def patch_from_word(self, word, start):
        """Tiles of a word laid out left to right from an exact start."""
        tiles = []
        pos = start
        for c in word:
            tiles.append((pos, c))
            pos = pos + self.lengths[c - 1]
        return Patch(self, tiles, end=pos)

    def prototile_patch(self, letter, level, cap=None):
        """The level-fold inflation of prototile `letter` anchored at 0.

        Cached on the system; patches are immutable once built."""
        key = (letter, level)
        cached = self._patch_cache.get(key)
        if cached is not None:
            return cached
        word = self.sub.iterate(letter, level, cap or self.word_cap)
        patch = self.patch_from_word(word, self.field.zero())
        self._patch_cache[key] = patch
        return patch

    def two_sided_patch(self, steps, cap=None):
        """Inflate the fixed-point seed `steps` times by sigma^k; the
        junction of the two seed tiles sits at 0."""
        k, left, right = self.seed
        return generate_patch(self, (left, right), k * steps, cap)

    def patch_covering(self, lo, hi, cap=None):
        """Smallest fixed-point patch whose support contains [lo, hi]."""
        cap = cap or self.word_cap
        steps = 1
        while True:
            patch = self.two_sided_patch(steps, cap)
            if patch.covers(lo, hi):
                return patch
            steps += 1


class Patch:
    """A finite list of tiles (position, color), contiguous and sorted."""

    def __init__(self, system, tiles, end=None):
        self.system = system
        self.tiles = tiles
        self.end = end
        self.junction_index = None

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    @property
    def start(self):
        return self.tiles[0][0]

    def support_end(self):
        if self.end is not None:
            return self.end
        pos, c = self.tiles[-1]
        return pos + self.system.length_of(c)

    def total_length(self):
        return self.support_end() - self.start

    def covers(self, lo, hi):
        start = self.start - lo
        end = self.support_end() - hi
        return start.sign() <= 0 and end.sign() >= 0


def generate_patch(system: SuspensionSystem, seed, n, cap=None):
    """Inflate a seed n times.

    A one-sided seed is a letter; its patch is anchored with the left
    endpoint at 0.  A two-sided seed is a (left, right) letter pair; the
    junction sits at 0.
    """
    cap = cap or system.word_cap
    if isinstance(seed, int):
        return system.prototile_patch(seed, n, cap)
    left, right = seed
    left_word = system.sub.iterate(left, n, cap)
    right_word = system.sub.iterate(right, n, cap)
    left_len = system.field.zero()
    for c in left_word:
        left_len = left_len + system.lengths[c - 1]
    patch = system.patch_from_word(left_word + right_word, -left_len)
    patch.junction_index = len(left_word)
    return patch


# ---------------------------------------------------------------------------
# Tile maps, control points, admissibility
# ---------------------------------------------------------------------------


def leftmost_tile_map(sub: Substitution):
    """Tile map choosing the first subtile of every inflated prototile."""
    return tuple(1 for _ in range(sub.size))


def validate_tile_map(sub: Substitution, tile_map):
    if len(tile_map) != sub.size:
        raise ValueError("tile map must choose one subtile per letter")
    for letter, idx in enumerate(tile_map, start=1):
        if not 1 <= idx <= len(sub.rule(letter)):
            raise ValueError(
                f"tile map index {idx} outside rule of letter {letter}"
            )


def control_points(system: SuspensionSystem, tile_map):
    """Fixed point of the subtile-selection contraction.

    With o_j the exact left offset of the chosen subtile of the inflated
    prototile j and g(j) its color, the reference points solve
    beta*c_j = o_j + c_g(j); the system is invertible because the
    selection matrix has spectral radius 1 < beta.
    """
    validate_tile_map(system.sub, tile_map)
    m = system.size
    field = system.field
    beta = system.beta
    offsets, targets = [], []
    for letter in range(1, m + 1):
        idx = tile_map[letter - 1]
        offsets.append(system.subtile_offsets[letter - 1][idx - 1])
        targets.append(system.sub.rule(letter)[idx - 1])
    rows = []
    for j in range(m):
        row = [field.zero()] * m
        row[j] = row[j] + beta
        g = targets[j] - 1
        row[g] = row[g] - field.one()
        rows.append(row + [-offsets[j]])
    vec = _solve_kernel(rows, field)
    if vec[-1].is_zero():
        raise EigenvectorDefect("singular system")
    return tuple(vec[:-1])


def left_endpoint_points(system: SuspensionSystem):
    """Reference points at the left endpoints (all zero)."""
    return tuple(system.field.zero() for _ in range(system.size))


def is_admissible(system: SuspensionSystem, refpoints) -> bool:
    """True iff the prototiles shifted by their reference points still
    share an interval of positive length: max(-c_i) < min(len_i - c_i)."""
    lower = max(-c for c in refpoints)
    upper = min(length - c for length, c in zip(system.lengths, refpoints))
    return (upper - lower).sign() > 0


# ---------------------------------------------------------------------------
# Point sets and return vectors
# ---------------------------------------------------------------------------


class PointSets:
    """Per-color sorted reference points of a patch within a window."""

    def __init__(self, per_color, window):
        self.per_color = per_color
        self.window = window

    def color(self, letter):
        return self.per_color[letter - 1]

    def union(self):
        merged = []
        for pts in self.per_color:
            merged.extend(pts)
        return merged

    def count(self):
        return sum(len(p) for p in self.per_color)


def reference_point_sets(patch: Patch, refpoints, window) -> PointSets:
    """Points p + c_color for patch tiles, filtered to the window.

    The window must lie inside the patch support (reference shifts are
    allowed to move points slightly past the edge tiles, so coverage is
    checked on tile supports).
    """
    lo, hi = window
    if not patch.covers(lo, hi):
        raise WindowNotCovered("window exceeds the computed patch")
    system = patch.system
    per_color = [[] for _ in range(system.size)]
    for pos, c in patch.tiles:
        x = pos + refpoints[c - 1]
        if (x - lo).sign() >= 0 and (x - hi).sign() <= 0:
            per_color[c - 1].append(x)
    return PointSets(tuple(tuple(p) for p in per_color), window)


def return_vectors(points: PointSets):
    """Per-color difference sets and the cross difference set, deduplicated.

    Same-color differences sample the translation vectors between equal
    tiles; the cross set samples differences across all colors.
    """
    per_color = []
    for pts in points.per_color:
        seen = {}
        for i, x in enumerate(pts):
            for y in pts[i:]:
                d = y - x
                seen[d.coords] = d
                nd = -d
                seen[nd.coords] = nd
        per_color.append(tuple(seen.values()))
    union = points.union()
    cross = {}
    for i, x in enumerate(union):
        for y in union[i:]:
            d = y - x
            cross[d.coords] = d
            nd = -d
            cross[nd.coords] = nd
    return tuple(per_color), tuple(cross.values())
