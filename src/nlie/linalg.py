"""Exact rational vectors, matrices and sparse fraction-free elimination.

Vectors are dense tuples of Fractions; a ``Matrix`` stores sparse rows,
so a differential assembled as sparse rows is eliminated with no dense copy.

Rank, nullspace and solve share one elimination over sparse integer rows
({column: int}): ``kernel`` and ``Factorization`` take such rows, and
``rank_nullspace`` and ``solve_linear`` first scale each row of a
rational matrix by the lcm of its denominators.  Columns go leftmost
first, the pivot is the shortest row with an entry in the column, and
only rows with an entry there are updated, to the gcd-reduced integer row
piv*r - h*p.  These pivots are those of the reduced row echelon form, so
the nullspace (one vector per free column, that coordinate 1, other free
coordinates 0) and the solution (free coordinates 0) are canonical.
Every vector returned is checked exactly against the integer rows
(M·v = 0, M·x = b); a failure raises ArithmeticError.

``kernel`` and the factorization eliminate in sampled rounds, a Las
Vegas elimination: a random choice moves only the time, and an exact
certificate decides the answer.  On a tall matrix the first round
eliminates a seeded sample of about 1.3·ncols + 16 of its rows; every
row of M is multiplied once by the canonical nullspace read off the
reduced rows, exactly, in packed integers (``nonzero_counts``), and the
rows that fail join the reduced rows in the next round.  When no row
fails, M annihilates the nullspace, so the reduced rows span the row
space of M, and its reduced echelon form, which is unique, gives the same
rank, pivots and nullspace as eliminating every row.  A failing row lies
outside the span of the reduced rows, so a correct round raises the rank;
a round that does not raises ArithmeticError, so there are at most
rank + 1 rounds.

``Factorization`` is the one solver.  It eliminates the matrix once, at
construction, with the rows it eliminates tagged by index; each solve is
then a product and the exact M·x = b check on every row.  An
inconsistent right side is refused only with a left witness y
(yᵀM = 0, yᵀb != 0) checked exactly.

One trust rule covers both: what depends on the input is checked at run
time, and what holds by construction is tested.  The certificate gives
rank <= r on every row of M, and M·x = b and a refusal's witness are
checked exactly.  That the reduced rows are r independent rows of the
row space (rank >= r), and that a tagged row's tags are the combination
of rows of M it is (E·M_S = R), hold because ``_rref`` applies the same
integer operations to every entry of a row; the tests hold both to the
Gauss-Jordan oracle, and no run re-proves them.

``kernel``'s certificate bounds the rank from above only.  ``rank_mod_p``
bounds it from below: it reads the nonzero integer rows in a seeded order
and keeps each row independent of those kept modulo a prime p, by a plain
elimination of {column: int} rows mod p, until the rank reaches a given
bound or a row cap is read.  A minor that is nonzero mod p is nonzero
over Z, so rank_Fp <= rank_Q.  The bound is not re-checked at run time:
the tests hold it to a dense elimination mod p on random rows, and
``tests/mutants.py`` plants faults in it.

Scaling lemma: multiplying a row by a constant L > 0 keeps its length, so
the pivot choice, and ``_cancel`` of a positive multiple is the same
primitive row.  So the rows of L·M give the rank, pivots and nullspace of
M, and the rows of L·[M | b] its solution; ``cohomology.Complex`` hands
over L·d_k, assembled in integers, with no rational copy in between.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .record import Record
from .trace import row_counters, traced

Vector = tuple[Fraction, ...]
Support = list[tuple[int, Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec_zero(m: int) -> Vector:
    return (_ZERO,) * m


def basis_vec(m: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(m))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction | int, a: Vector) -> Vector:
    if c == -1:
        # negation skips the gcd a Fraction product pays
        return tuple(-x for x in a)
    return tuple(c * x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return not any(a)


def support(v: Vector) -> Support:
    """The nonzero coordinates of v as (index, value) pairs."""
    return [(i, c) for i, c in enumerate(v) if c]


def multilinear(supports: Sequence[Iterable[tuple[Hashable, Fraction | int]]],
                term: Callable[[tuple], Iterable[tuple[int, Fraction]]],
                acc: dict[int, Fraction] | None = None) -> dict[int, Fraction]:
    """Expand a multilinear map over its arguments' coordinates.

    ``supports`` gives, per argument, its nonzero (label, coefficient)
    pairs, such as ``support(v)`` or a wedge's ``coords.items()``;
    ``term(labels)`` gives the (index, value) pairs of the image of one
    tuple of labels, zero values skipped, so a dense vector passes as
    ``enumerate(v)``.  Adds c_1 * .. * c_k * term((label_1, .., label_k))
    over the product of the supports into ``acc`` (a new dict if None) and
    returns it, so only products of nonzero coordinates are visited, and
    their coefficient is multiplied out only where the image is not empty.
    Entries may cancel to zero; ``densify`` gives the vector.
    """
    if acc is None:
        acc = {}
    for combo in itertools.product(*supports):
        image = term(tuple([label for label, _ in combo]))
        if not image:
            continue
        coeff = 1
        # a product with 1 still costs a full Fraction operation: skip it
        for _, c in combo:
            coeff = c if coeff == 1 else coeff * c
        for i, x in image:
            if x:
                if coeff != 1:
                    x = coeff * x
                acc[i] = acc[i] + x if i in acc else x
    return acc


def densify(acc: dict[int, Fraction], m: int) -> Vector:
    """The length-m vector of a sparse {index: value} accumulator."""
    return tuple(acc.get(i, _ZERO) for i in range(m))


class Matrix(Record):
    """Immutable rational matrix.  Row i is stored as ``data[i]``, a dict
    {column: Fraction} with zeros absent and keys ascending; the
    constructor, ``from_rows`` and ``from_cols`` take dense input, and
    ``entries`` is a dense view built on each read."""

    __slots__ = ("rows", "cols", "data")
    rows: int
    cols: int
    data: tuple[dict[int, Fraction], ...]

    def __init__(self, rows: int, cols: int,
                 entries: Sequence[Sequence[Fraction | int]]):
        if len(entries) != rows:
            raise DimensionMismatch("row count mismatch")
        if any(len(r) != cols for r in entries):
            raise DimensionMismatch("column count mismatch")
        super().__init__(rows, cols, tuple(
            {j: x for j, x in enumerate(r) if x} for r in entries))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols,
                     tuple(tuple(r.items()) for r in self.data)))

    @staticmethod
    def from_sparse_rows(rows: Iterable[Mapping[int, Fraction]],
                         ncols: int) -> Matrix:
        """The matrix of rows {column: value}, zeros dropped, keys sorted."""
        data = tuple({j: x for j, x in sorted(r.items()) if x} for r in rows)
        if any(r and (next(iter(r)) < 0 or next(reversed(r)) >= ncols)
               for r in data):
            raise DimensionMismatch("column index out of range")
        mat = Matrix.__new__(Matrix)
        Record.__init__(mat, len(data), ncols, data)
        return mat

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
        ent = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if not ent:
            raise DimensionMismatch("matrix needs at least one row")
        return Matrix(len(ent), len(ent[0]), ent)

    @staticmethod
    def from_cols(cols: Sequence[Vector], nrows: int) -> Matrix:
        if any(len(col) != nrows for col in cols):
            raise DimensionMismatch("column length mismatch")
        data: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in support(col):
                data[i][j] = x
        return Matrix.from_sparse_rows(data, len(cols))

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix.from_sparse_rows(({i: _ONE} for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix.from_sparse_rows([{}] * rows, cols)

    @property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(densify(r, self.cols) for r in self.data)

    @property
    def is_zero(self) -> bool:
        return not any(self.data)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix/vector size mismatch")
        return tuple(sum((x * v[j] for j, x in row.items() if v[j]), _ZERO)
                     for row in self.data)

    def mul(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product size mismatch")
        return Matrix.from_sparse_rows(
            [multilinear([row.items()], lambda k: other.data[k[0]].items())
             for row in self.data], other.cols)

    def column(self, j: int) -> Vector:
        return tuple(row.get(j, _ZERO) for row in self.data)


def column_supports(mat: Matrix) -> list[Support]:
    """``support(mat.column(j))`` for every column j, in one pass over the
    stored rows."""
    out: list[Support] = [[] for _ in range(mat.cols)]
    for i, row in enumerate(mat.data):
        for j, x in row.items():
            out[j].append((i, x))
    return out


class RankNullspace(Record):
    """Rank, canonical nullspace and pivots; ``sample_rows`` and ``rounds``
    count the work of the elimination that found them (rows of M
    eliminated, ``_rref`` calls) and take no part in equality."""

    __slots__ = ("rank", "nullspace", "pivots", "sample_rows", "rounds")
    _fields = ("rank", "nullspace", "pivots")
    rank: int
    nullspace: tuple[Vector, ...]
    pivots: tuple[int, ...]
    sample_rows: int
    rounds: int

    def __init__(self, rank, nullspace, pivots, sample_rows=0, rounds=0):
        super().__init__(rank, nullspace, pivots, sample_rows, rounds)


Row = dict[int, int]


def integer_row(row: Mapping[int, Fraction | int]) -> Row:
    """The row as {column: int}, scaled by the lcm of its denominators."""
    mult = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (mult // x.denominator) for j, x in row.items()}


def integer_rows(m: Matrix) -> tuple[int, list[Row]]:
    """(D, the rows of D·m as {column: int}), D the lcm of the
    denominators of all of m's entries."""
    den = lcm(*(x.denominator for row in m.data for x in row.values()))
    return den, [{j: x.numerator * (den // x.denominator)
                  for j, x in row.items()} for row in m.data]


def _cancel(r: Row, p: Row, c: int) -> Row:
    """The primitive integer row of p[c]*r - r[c]*p; column c cancels."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {j: a * x for j, x in r.items()} if a != 1 else dict(r)
    for j, y in p.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced echelon rows (up to scale) and pivot columns of the rows
    (empty rows skipped), pivoting on columns < ncols only; a row left
    with entries at columns >= ncols alone (a tagged row's dependency) is
    dropped.

    Rows wait in groups by leading column; at column c the shortest row of
    its group is the pivot and only the rest of that group is updated.
    """
    heads: dict[int, list[Row]] = {}
    for r in rows:
        if r:
            heads.setdefault(min(r), []).append(r)
    red: list[Row] = []
    pivots: list[int] = []
    for c in range(ncols):
        group = heads.pop(c, None)
        if group is None:
            continue
        p = min(group, key=len)
        for r in group:
            if r is not p:
                r = _cancel(r, p, c)
                if r:
                    heads.setdefault(min(r), []).append(r)
        red.append(p)
        pivots.append(c)
    # back-substitution: clear each pivot column above its row, last first
    where = {c: i for i, c in enumerate(pivots)}
    for i in range(len(red) - 1, -1, -1):
        for c in [j for j in red[i] if where.get(j, i) > i]:
            red[i] = _cancel(red[i], red[where[c]], c)
    return red, pivots


def nonzero_counts(outer: Sequence[Row], inner: Sequence[Row]) -> list[int]:
    """The number of nonzero entries of each row of outer·inner, exactly;
    column j of an outer row meets inner row j.

    Inner row j is packed into one int, entry c at bit w·c (Kronecker
    substitution; Harvey, JSC 2009), and outer row r gives the sum of r_j
    times packed row j.  Every product entry has |e| <= A·B < 2^(w-1) for
    w = bitlen(A·B) + 1, A the largest sum of |r_j| over the outer rows
    and B the largest |entry| of the inner rows, so the sum is the
    balanced base-2^w expansion of the product row: zero exactly when the
    row is.  Adding H, 2^(w-1) in every digit, gives the digits
    e + 2^(w-1) in [1, 2^w) with no carry, so the digits of (sum + H) XOR
    H are nonzero exactly at the row's nonzero entries.  Adding
    2^(w-1) - 1 to the low w - 1 bits of each such digit, again with no
    carry, sets its top bit where the digit is nonzero, and the top bits
    are counted: a few operations per row, not one pass per digit."""
    a = max((sum(map(abs, r.values())) for r in outer), default=0)
    b = max((abs(x) for r in inner for x in r.values()), default=0)
    w = (a * b).bit_length() + 1
    packed = [sum(x << w * c for c, x in r.items()) for r in inner]
    digits = max((max(r) + 1 for r in inner if r), default=0)
    lows = ((1 << w * digits) - 1) // ((1 << w) - 1)  # bit 0 of each digit
    high = lows << (w - 1)  # H, the top bit of each digit
    rest = high - lows  # the low w - 1 bits of each digit
    counts = []
    for r in outer:
        acc = 0
        for j, x in r.items():
            acc += x * packed[j]
        if acc:
            acc = (acc + high) ^ high
            acc = ((((acc & rest) + rest) | acc) & high).bit_count()
        counts.append(acc)
    return counts


def _failing(rows: Sequence[Row], vectors: Iterable[Mapping[int, Fraction]],
             ncols: int) -> list[int]:
    """The indices of the integer rows with a nonzero entry in M·V, V the
    vectors, each scaled by the lcm of its denominators, as columns."""
    inner: list[Row] = [{} for _ in range(ncols)]
    for k, v in enumerate(vectors):
        for j, x in integer_row(v).items():
            inner[j][k] = x
    return [i for i, n in enumerate(nonzero_counts(rows, inner)) if n]


def _nullspace(red: list[Row], pivots: list[int],
               ncols: int) -> dict[int, dict[int, Fraction]]:
    """The canonical nullspace of reduced rows: for each free column f,
    the vector with coordinate 1 at f, 0 at the other free columns."""
    pivot_set = set(pivots)
    null = {f: {f: _ONE} for f in range(ncols) if f not in pivot_set}
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j != pc:
                null[j][pc] = Fraction(-x, row[pc])
    return null


# The sampled elimination: the first round eliminates a seeded sample of
# _SAMPLE_SLOPE·ncols + _SAMPLE_BASE nonzero rows, unless the matrix has
# fewer than _SAMPLE_RATIO times as many, which are eliminated whole.  The
# seed is a constant of the algorithm, so the work counters repeat.
# Measured on the catalog d_k: a sample cuts the elimination of the dense
# Levi-Civita conjugate's 576×96 d_3 and of Levi-Civita's 3456×576 d_4 by
# 40–50%; on the 729×243 d_5 of sl(2) and Heisenberg, about 2.2 samples'
# worth of rows, it ran 10% faster on sl(2) and 20% slower on Heisenberg,
# so they go whole.
_SAMPLE_SEED = 1
_SAMPLE_SLOPE, _SAMPLE_BASE = 1.3, 16
_SAMPLE_RATIO = 3


# A lookup that a wrong update trips (KeyError, ValueError) fails the check.
_LOST = "the elimination lost an entry it relies on"


def _eliminate(rows: Sequence[Row], ncols: int, tagged: bool = False
               ) -> tuple[list[Row], list[int], dict[int, dict[int, Fraction]],
                          int, int]:
    """(reduced rows, pivots, canonical nullspace, rows eliminated, rounds)
    of the integer rows, certified on every row: M annihilates the
    nullspace.  With ``tagged``, row i enters as itself plus 1 at column
    ncols + i, so each reduced row keeps its combination of rows of M.

    Each round runs ``_rref`` on the reduced rows so far and a batch of
    rows of M (first a seeded sample), reads the nullspace off the result
    and multiplies every row of M by it once; the rows that fail are the
    next batch.  A failing row lies outside the span of the reduced rows,
    so a correct round strictly raises the rank, and a round that does not
    raises ArithmeticError: there are at most rank + 1 rounds.
    """
    nonzero = [i for i, r in enumerate(rows) if r]
    size = int(_SAMPLE_SLOPE * ncols) + _SAMPLE_BASE
    batch = nonzero if len(nonzero) < _SAMPLE_RATIO * size else \
        sorted(random.Random(_SAMPLE_SEED).sample(nonzero, size))
    red: list[Row] = []
    rank, done, rounds = -1, 0, 0
    while True:
        try:
            red, pivots = _rref(red + [{**rows[i], ncols + i: 1} if tagged
                                       else rows[i] for i in batch], ncols)
            done += len(batch)
            rounds += 1
            if len(pivots) <= rank:
                raise ArithmeticError("a round of the sampled elimination "
                                      "did not raise the rank")
            rank = len(pivots)
            null = _nullspace([{j: x for j, x in r.items() if j < ncols}
                               for r in red] if tagged else red, pivots, ncols)
            batch = _failing(rows, null.values(), ncols)
        except (KeyError, ValueError) as exc:
            raise ArithmeticError(_LOST) from exc
        if not batch:
            return red, pivots, null, done, rounds


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _kernel_counters(args, res: RankNullspace) -> dict[str, int]:
    rows = args[0]
    return {**row_counters(*args), "rank": res.rank,
            "sample_rows": res.sample_rows, "rounds": res.rounds,
            "max_input_bits": max((x.bit_length() for row in rows
                                   for x in row.values()), default=0),
            "max_nullspace_bits": max((_bits(x) for v in res.nullspace
                                       for x in v), default=0)}


@traced("linalg.rank_nullspace", _kernel_counters)
def kernel(rows: Sequence[Row], ncols: int) -> RankNullspace:
    """Rank, pivots and canonical nullspace basis of the matrix with these
    integer rows (empty rows allowed).  Scaling a row by a nonzero constant
    changes none of them, so the rows of L·M give the answer for M.

    The sampled elimination finds them; its certificate, M·v = 0 on every
    row of M for every nullspace vector v, bounds the rank from above.
    ``sample_rows`` and ``rounds`` of the result count its work."""
    _, pivots, null, done, rounds = _eliminate(rows, ncols)
    return RankNullspace(len(pivots), tuple(
        densify(v, ncols) for v in null.values()), tuple(pivots),
        done, rounds)


class RankBound(Record):
    """What ``rank_mod_p`` returns: ``rank`` ≤ the rank over Q of the
    integer rows, since the rows ``kept`` are independent modulo
    ``prime``; they were found among the first ``read`` nonzero rows of
    the seeded order."""

    __slots__ = ("rank", "kept", "read", "prime")
    rank: int
    kept: tuple[int, ...]
    read: int
    prime: int


def _bound_counters(_, res: RankBound) -> dict[str, int]:
    return {"rows_read": res.read, "rank": res.rank, "max_prime": res.prime}


@traced("linalg.rank_mod_p", _bound_counters)
def rank_mod_p(rows: Sequence[Row], p: int, bound: int,
               cap: int) -> RankBound:
    """A lower bound on the rank of the integer rows: their rank modulo
    the prime p.  The nonzero rows are read in a seeded order and each is
    reduced, by a plain elimination of {column: int} rows mod p, against
    the rows kept so far, each pivot on its row's last column; a row that
    does not reduce to zero is kept.  The pass stops once ``bound`` rows
    are kept or ``cap`` rows are read."""
    order = [i for i, r in enumerate(rows) if r]
    random.Random(_SAMPLE_SEED).shuffle(order)
    pivots: dict[int, Row] = {}
    kept: list[int] = []
    read = 0
    for i in order:
        if len(kept) >= bound or read >= cap:
            break
        read += 1
        r = {j: x % p for j, x in rows[i].items() if x % p}
        while r:
            c = max(r)
            q = pivots.get(c)
            if q is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                kept.append(i)
                break
            f = r[c]
            for j, x in q.items():
                v = (r.get(j, 0) - f * x) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
            if c in r:  # so the loop cannot spin
                raise ArithmeticError("the elimination mod p kept the pivot")
    return RankBound(len(kept), tuple(kept), read, p)


class Refusal(Record):
    """A certified inconsistent system M x = b: ``witness`` is the integer
    left vector y, sparse over row indices, with yᵀM = 0 and yᵀb != 0
    checked exactly.  A record like the package's other results, so it
    is immutable once its checks have passed."""

    __slots__ = ("witness",)
    witness: dict[int, int]


def _factor_counters(args, _) -> dict[str, int]:
    fac = args[0]
    return {**row_counters(fac.rows, fac.ncols), "rank": fac.rank,
            "sample_rows": fac._work[0], "rounds": fac._work[1]}


class Factorization:
    """Exact solves of M x = b on integer rows M (empty rows allowed;
    right sides are indexed by row): M is factored once, at construction,
    and serves every right side that follows.

    Factoring runs the sampled elimination (see the module docstring) with
    each row it eliminates, a seeded sample S of M's rows and then the
    rows that fail, tagged with its own index i: 1 at column ncols + i.
    Pivoting stops at ncols, so the tags record each reduced row as an
    integer combination of those rows: E·M_S = R, with R[:, J] = D
    diagonal on the r pivot columns J.  That holds by construction
    (module docstring) and gives rank >= r, trusted here as ``kernel``
    trusts it; the tests recompute E·M_S.  The last round's certificate,
    M annihilates the ncols − r nullspace vectors read off R on every
    row of M, gives rank <= r, so R spans the row space of M; a failed
    certificate raises ArithmeticError.  Only this path pays for the
    tags, and only on the rows it eliminates; ``kernel`` eliminates
    untagged rows.

    A solve sets x_J = D⁻¹E·b and every other coordinate 0 (the canonical
    solution, since J are the reduced-echelon pivots), then checks
    M·x = b on every row in integers.  If row i fails, M x = b has no
    solution: y = e_i − M[i, J]·D⁻¹E has yᵀM = 0, since row i lies in the
    span of R, and yᵀb = b_i − (M x)_i ≠ 0.  Both are checked exactly
    before a ``Refusal`` carries y; a failed check raises ArithmeticError.
    """

    @traced("linalg.factor", _factor_counters)
    def __init__(self, rows: Sequence[Row], ncols: int):
        self.rows = list(rows)
        self.ncols = n = ncols
        red, pivots, _, *self._work = _eliminate(self.rows, n, tagged=True)
        self._elim = [[(j - n, x) for j, x in row.items() if j >= n]
                      for row in red]
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        self._diag = [row[pc] for row, pc in zip(red, pivots)]
        self._den = lcm(*self._diag)

    @traced("linalg.solve_linear",
            lambda args, res: {**row_counters(args[0].rows, args[0].ncols),
                               "solved": int(not isinstance(res, Refusal))})
    def solve(self, b: Sequence[Fraction | int]) -> Vector | Refusal:
        """The canonical solution of M x = b, or a certified ``Refusal``."""
        if len(b) != len(self.rows):
            raise DimensionMismatch("right side has wrong length")
        # bb = B·b in ints, B the lcm of b's denominators
        mult = lcm(*(x.denominator for x in b))
        bb = [x.numerator * (mult // x.denominator) for x in b]
        # X = D_lcm·x_J in ints: M X = D_lcm·bb is the check
        nums = [sum(e * bb[i] for i, e in row) for row in self._elim]
        big = {pc: num * (self._den // d)
               for pc, num, d in zip(self.pivots, nums, self._diag) if num}
        for i, r in enumerate(self.rows):
            if sum(a * big[j] for j, a in r.items() if j in big) \
                    != self._den * bb[i]:
                return self._refuse(i, bb)
        return densify({pc: Fraction(num, d * mult) for pc, num, d
                        in zip(self.pivots, nums, self._diag) if num},
                       self.ncols)

    def _refuse(self, i: int, bb: list[int]) -> Refusal:
        """The left witness of a failing row i, checked exactly."""
        row = self.rows[i]
        y = {i: self._den}
        for pc, d, elim in zip(self.pivots, self._diag, self._elim):
            if pc in row:
                c = row[pc] * (self._den // d)
                for s, e in elim:
                    y[s] = y.get(s, 0) - c * e
        y = {s: v for s, v in y.items() if v}
        left: dict[int, int] = {}
        for s, v in y.items():
            for j, a in self.rows[s].items():
                left[j] = left.get(j, 0) + v * a
        if any(left.values()) or not sum(v * bb[s] for s, v in y.items()):
            raise ArithmeticError("refusal fails the exact yᵀM = 0, "
                                  "yᵀb != 0 check")
        return Refusal(y)


def rank_nullspace(m: Matrix) -> RankNullspace:
    """Exact rank and canonical nullspace basis of a rational matrix."""
    return kernel([integer_row(r) for r in m.data], m.cols)


def solve_linear(m: Matrix, b: Vector) -> Vector | None:
    """One exact solution of m @ x = b, or None if inconsistent.

    The solution is canonical: all free coordinates are 0.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right side has wrong length")
    rows = [integer_row({**r, m.cols: x} if x else r)
            for r, x in zip(m.data, b)]
    rhs = [r.pop(m.cols, 0) for r in rows]
    sol = Factorization(rows, m.cols).solve(rhs)
    return None if isinstance(sol, Refusal) else sol
