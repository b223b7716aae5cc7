"""Learnability dimensions of finite concept classes and their inequalities.

Four quantities per class:

  vc   largest shattered point subset;
  ld   optimal mistake-tree depth: ld(H) = max over points x splitting H
       into two nonempty restrictions of 1 + min(ld(H0), ld(H1)).  It is
       the largest d passing the decision ld(H) >= d, which refuses any
       restriction of fewer than 2^d rows before splitting it;
  cd   sup of m with clique number omega_m = 2^m;
  cd*  sup of m with fractional clique number omega*_m = 2^m.

cd / cd* report the largest passing m up to m_max together with an exactness
flag.  Exactness uses three analytic facts so the infinite sup can be pinned
by finitely many searches:

  (1) ceiling: omega_m <= omega*_m <= min(2^m, |H|).  For each row h of
      H the datasets h labels correctly form an independent set V_h, and
      these |H| sets cover every vertex.  A clique takes at most one vertex
      from each, and weight 1 on each is a fractional coloring, so
      omega*_m <= |H|; hence every m > floor(log2 |H|) separates
      automatically.  The rows are distinct, so |H| <= 2^|X| and this
      subsumes the bound m <= |X|.  Weight 2^(m-|X|) on each of the 2^|X|
      labelings of the universe is a fractional coloring too (a dataset of
      m examples agrees with at least 2^(|X|-m) of them), so
      omega*_m <= 2^m.  A complete shattered tree of depth m maps to a
      2^m-clique, so ld >= m gives omega_m = omega*_m = 2^m with no graph
      or LP, and a maximum clique that reaches the ceiling settles
      omega*_m as well;
  (2) growth cutoff for cd: once m_c satisfies (2m_c+1)^ld < 2^(m_c) and
      m_c >= ld/ln2 (checked with the rational bound 693147/10^6 < ln 2),
      every m >= m_c has (2m+1)^ld < 2^m, and omega_m <= (2m+1)^ld always;
  (3) omega*_m = 1 only when |H| = 1 (two rows differing at x make m copies
      of (x,0) and m copies of (x,1) adjacent vertices), where (1) already
      ends the sweep at m = 0.

Whatever remains in (m_max, cutoff] is searched directly when the graphs
fit under the caps; otherwise the flag honestly degrades to
lower-bound-at-m-max.  No m past the cutoff is tried.

Each (cls, m) has one record.  It holds the order |V(G_m)|, counted without
a build; the core of G_m (for m <= |X|, its vertices with m distinct
points, which has the same omega_m and omega*_m: `graph` module docstring)
and the full G_m, each built on first read; omega*_m once exact; and the
full graph's LP certificate once solved, and nothing derived from it:
`boosting` normalizes mu* where it reads it.  omega_m is not kept: it stays
in the call that searched for it.  omega*_m has three writers: a record of
an m >= |X| settles |H| from (cls, m) alone when it is made (`graph`
module docstring), so no core past |X| is ever built; an LP settles it
wherever it runs, the full graph's in `_certificate` and the core's in
`_settled_omega_star`; and `_settled_omega_star` settles an exact omega_m
of the reading call at the ceiling min(2^m, |H|), which is omega*_m too.
`dimension_report` finds omega_m of each row itself and hands these values
to its cd and cd* sweeps: min(2^m, |H|) for m <= ld or m >= |X|, with no
search, and otherwise its own exact `max_clique` on the core, run on every
call.  It writes no record itself: its rows up to m_max_lp and its sweeps
read omega*_m through `_settled_omega_star`, so a record none of them
reads gets no omega*_m from the report.  cd reads omega*_m before it
searches, whenever |X| is within the pattern cap, since omega*_m < 2^m
fails m with no search; past that cap it searches.  The full graph is built
only by the readers of its vertices or of a full LP certificate:
`cached_graph`, `cached_omega_star` and `smallest_separating_m0`, which
reads the full LP at every m0 it tries because boost reads that
certificate for the m0 it finds.  A value settled twice must agree, or
InvariantError is raised, so a core LP, a ceiling clique or a value read
off the class that a later full LP contradicts is an internal error.  The
record holds only what a fresh run of the reading call would compute again
under its own caps, so emptying or evicting a record changes the work
done, never an answer: the vertex cap applies to the counted order
whenever G_m is read (and to the count's table while it counts), and the
LP's pattern cap to every certificate and to every omega*_m below |X| that
the reading call does not take from its own omega_m.

The boosting-exponent cutoff `fcd_alpha_cutoff` never binds for cd*, so it
is not computed: a margin eps = 1/omega*_m - 2^-m = p/q in (0, 1) has
q >= 2, so alpha > 32 * 3 * ln2_hi > 66 and every cutoff is at least
ceil(67 * 10^6 / 693147) = 97.  Each omega* enumerates all 2^|X| labelings
(refused beyond the pattern cap, 20 by default), so any call that finishes
has |X| far below 97 and the bound from (1), at most |X|, is the tighter
one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .cliques import clique_ceiling, has_clique_of_size, max_clique, validate_clique
from .concepts import ConceptClass
from .errors import InvariantError, ResourceLimitError
from .fractional import DualityCertificate, omega_star
from .graph import Caps, ContradictionGraph, DEFAULT_CAPS, build_core, build_graph, count_vertices
from .trees import MistakeLeaf, MistakeNode, MistakeTree

EXACT = "exact"
LOWER_BOUND = "lower-bound-at-m-max"

# rational brackets of ln 2, used whenever an exactness argument needs it
LN2_LO = Fraction(693147, 10**6)
LN2_HI = Fraction(693148, 10**6)

# The record memo, the module's only memo, keys on (cls, m) and holds at
# most MEMO_SIZE entries (oldest dropped first).  `count_vertices`,
# `build_core`, `build_graph` and `omega_star` are called through this
# module's globals, so a wrapper installed on those names sees every miss.
# ld is decided afresh on each call: a decision memoises only within that
# call, and `dimension_report` hands its one decision, like the omega_m it
# finds, to its cd and cd* sweeps.
MEMO_SIZE = 256
_records: dict = {}


@dataclass(eq=False)
class _Record:
    """What is known of G_m of one class, all of it what a fresh run would
    compute again: its order |V(G_m)|, counted without a build; its
    core (read only below |X|) and the full graph, each built on first
    read; omega*_m once exact; and the full graph's LP certificate once
    solved.  omega_m is not kept: it stays in the call that searched."""

    cls: ConceptClass
    m: int
    order: int
    omega_star: Optional[Fraction] = None
    cert: Optional[DualityCertificate] = None

    @cached_property
    def core(self) -> ContradictionGraph:
        return build_core(self.cls, self.m)

    @cached_property
    def graph(self) -> ContradictionGraph:
        # `_record` has applied the caller's vertex cap to the exact order
        return build_graph(self.cls, self.m, Caps(max_vertices=math.inf))


def _record(cls: ConceptClass, m: int, caps: Caps) -> _Record:
    """The record of G_m, with `caps`' vertex cap applied to the counted
    order on every call, as a build under `caps` would apply it, and to
    the count's own table while it counts.  A new record of an m >= |X|
    settles omega*_m = |H| from the class alone (`graph` module
    docstring), with no build or LP."""
    rec = _records.get((cls, m))
    if rec is None:
        if len(_records) >= MEMO_SIZE:
            del _records[next(iter(_records))]
        star = Fraction(len(cls.hypotheses)) if m >= cls.universe_size else None
        rec = _records[cls, m] = _Record(cls, m, count_vertices(cls, m, caps), star)
    caps.check_vertices(rec.order, m)
    return rec


def _settle(rec: _Record, value: Fraction) -> None:
    """Record the exact omega*_m of G_m, found by an LP (`_certificate`,
    `_settled_omega_star`) or read off the reading call's own omega_m at the
    ceiling (`_settled_omega_star`); a value settled before, by one of these
    or by |X| when the record was made, must be the same."""
    if rec.omega_star is not None and rec.omega_star != value:
        raise InvariantError(f"omega_star of G_{rec.m} settled as {rec.omega_star} and as {value}")
    rec.omega_star = value


def _certificate(rec: _Record, caps: Caps) -> DualityCertificate:
    """The LP certificate of the full G_m, solved under `caps` on the first
    call, with the LP's pattern cap applied on every later one."""
    if rec.cert is None:
        cert = omega_star(rec.graph, caps)
        _settle(rec, cert.value)
        rec.cert = cert
    else:
        caps.check_universe(rec.cls.universe_size)
    return rec.cert


def _settled_omega_star(rec: _Record, caps: Caps, omegas: dict) -> Fraction:
    """omega*_m of G_m.  `omegas` maps m to the exact omega_m the reading
    call settled itself; one at the ceiling min(2^m, |H|) is omega*_m too,
    and is settled here, the one place a call's own omega_m becomes the
    record's omega*_m.  Otherwise the record's value is read, under the
    LP's pattern cap below |X|, or the LP of the core is solved."""
    if omegas.get(rec.m) == min(1 << rec.m, len(rec.cls.hypotheses)):
        _settle(rec, Fraction(omegas[rec.m]))
    elif rec.omega_star is None:
        _settle(rec, omega_star(rec.core, caps).value)
    elif rec.m < rec.cls.universe_size:
        caps.check_universe(rec.cls.universe_size)
    return rec.omega_star


def cached_graph(cls: ConceptClass, m: int, caps: Caps):
    """G_m of `cls`, built once until `clear_caches()`, with `caps` applied
    on every call."""
    return _record(cls, m, caps).graph


def cached_omega_star(cls: ConceptClass, m: int, caps: Caps) -> DualityCertificate:
    """Certified omega*_m of `cls`, solved once until `clear_caches()`, with
    `caps` applied on every call as `omega_star` would apply them.  The LP
    runs even when omega*_m is already settled, and must agree with it."""
    return _certificate(_record(cls, m, caps), caps)


def vc_dimension(cls: ConceptClass) -> int:
    """Largest d such that some d point subset is shattered (all 2^d label
    patterns realized).  d <= log2 |H| bounds the subset size searched, and
    each point of a shattered d-set takes each label on 2^(d-1) rows or more."""
    cls.require_nonempty()
    rows = len(cls.hypotheses)
    for d in range(min(cls.universe_size, _log2_rows(cls)), 0, -1):
        half = 1 << (d - 1)
        wide = [p for p, ones in enumerate(cls.point_masks) if half <= ones.bit_count() <= rows - half]
        for points in itertools.combinations(wide, d):
            seen = {tuple(row[p] for p in points) for row in cls.hypotheses}
            if len(seen) == 1 << d:
                return d
    return 0


def _ld_decision(cls: ConceptClass):
    """(ld(H), at_least, splits).  A restriction of `cls` is an int mask of
    row indices; the memoised at_least(rows, d) decides ld(rows) >= d, and
    splits(rows) yields (x, H0, H1) for each point x splitting `rows` into
    two nonempty parts.  A depth-d shattered tree has 2^d leaves, each
    realized by its own row, so fewer rows fail at once and the recursion is
    at most log2 |H| + 1 calls deep."""
    cls.require_nonempty()

    def splits(rows: int):
        for x, ones in enumerate(cls.point_masks):
            h1 = rows & ones
            if h1 and h1 != rows:
                yield x, rows ^ h1, h1

    @lru_cache(maxsize=None)
    def at_least(rows: int, d: int) -> bool:
        if rows.bit_count() < 1 << d:
            return False
        return d == 0 or any(
            at_least(h0, d - 1) and at_least(h1, d - 1) for _, h0, h1 in splits(rows)
        )

    every = (1 << len(cls.hypotheses)) - 1
    ld = 0
    while at_least(every, ld + 1):
        ld += 1
    return ld, at_least, splits


def _log2_rows(cls: ConceptClass) -> int:
    """floor(log2 |H|): the largest m with 2^m <= |H|, past which omega_m
    and omega*_m cannot reach 2^m (fact (1) of the module docstring)."""
    return len(cls.hypotheses).bit_length() - 1


def littlestone_dimension(cls: ConceptClass) -> int:
    return _ld_decision(cls)[0]


def littlestone_witness(cls: ConceptClass) -> MistakeTree:
    """A complete shattered mistake tree of depth ld.  At every internal node
    both restrictions are nonempty and can still support depth-1 below, so
    each branch stays realizable."""
    ld, at_least, splits = _ld_decision(cls)

    def build(rows: int, d: int) -> MistakeTree:
        if d == 0:
            return MistakeLeaf()
        for x, zeros, ones in splits(rows):
            if at_least(zeros, d - 1) and at_least(ones, d - 1):
                return MistakeNode(x, build(zeros, d - 1), build(ones, d - 1))
        raise InvariantError("no splitting point although depth budget remains")

    return build((1 << len(cls.hypotheses)) - 1, ld)


def tech_cd_cutoff(d: int) -> int:
    """Smallest m_c certified (big-integer arithmetic) to satisfy
    (2m+1)^d < 2^m for every m >= m_c."""
    m = 1
    while True:
        if (2 * m + 1) ** d < 2**m and m * LN2_LO >= d:
            return m
        m += 1


def fcd_alpha_cutoff(epsilon: Fraction) -> Optional[int]:
    """Smallest m_c certified to satisfy m^alpha < 2^m for all m >= m_c,
    where alpha upper-bounds the boosting exponent (32/eps^2) ln(2/eps).

    Uses ln(2q/p) <= bitlength(2q) * ln2_hi and requires m_c >= A/ln2 so the
    step ratio (1+1/m)^A stays <= 2.  Returns None when no cutoff is
    certified: eps <= 0, A > 10^5, or the search passes 10^7.  cd* does not
    use it: the module docstring shows why it can never bind there.
    """
    if epsilon <= 0:
        return None
    p, q = epsilon.numerator, epsilon.denominator
    ln_ub = (2 * q).bit_length() * LN2_HI
    alpha_ub = Fraction(32) * q * q / (p * p) * ln_ub
    a = -(-alpha_ub.numerator // alpha_ub.denominator)  # ceil
    if a > 10**5:
        return None
    m = max(3, -(-a // LN2_LO))  # ceil(A / ln2_lo)
    # monotone region: binary search after one doubling pass
    lo, hi = m, m
    while hi**a >= 2**hi:
        lo = hi + 1
        hi *= 2
        if hi > 10**7:
            return None
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**a < 2**mid:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class DimensionValue:
    value: int
    exactness: str  # EXACT | LOWER_BOUND

    def __str__(self) -> str:
        rel = "=" if self.exactness == EXACT else ">="
        return f"{rel}{self.value} {self.exactness}"


def _sweep(m_max: int, upper: int, passes) -> DimensionValue:
    """The largest m <= m_max with passes(m), exact when no m in
    (m_max, upper] passes; a pass there or a cap hit anywhere leaves a lower
    bound.  Every m > upper must fail analytically, so none is tried."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    value = 0
    try:
        for m in range(1, min(m_max, upper) + 1):
            if passes(m):
                value = m
        for m in range(m_max + 1, upper + 1):
            if passes(m):
                # the true dimension exceeds the m_max-capped value
                return DimensionValue(value, LOWER_BOUND)
    except ResourceLimitError:
        return DimensionValue(value, LOWER_BOUND)
    return DimensionValue(value, EXACT)


def clique_dimension(cls: ConceptClass, m_max: int, caps: Caps = DEFAULT_CAPS) -> DimensionValue:
    """Largest m <= m_max with omega_m = 2^m, plus exactness.

    An m is decided by the first of: the mistake-tree fast path (ld >= m
    certifies a 2^m-clique; no graph is built), then, when |X| is within
    the pattern cap, omega*_m (read from the record, or the LP of the core
    of G_m solved when open): omega*_m < 2^m fails m with no search.  Only
    an m that is left runs targeted branch-and-bound on the core, and a
    budget hit there stands.  Facts (1) and (2) end the sweep, so 2^m <=
    |H|.  Under a pattern cap below |X| no omega*_m is read, not even one
    an earlier call settled, so the answer is the one a fresh run gives.
    Within `dimension_report` the report's own exact omega_m decides each
    m it settled, before any of these.
    """
    cls.require_nonempty()
    return _clique_dimension(cls, m_max, caps, littlestone_dimension(cls), {})


def _clique_dimension(cls: ConceptClass, m_max: int, caps: Caps, ld: int, omegas: dict) -> DimensionValue:
    """`clique_dimension` of a nonempty class whose ld is known, read by a
    call that settled the exact omega_m of each m in `omegas` itself."""
    top = _log2_rows(cls)

    def passes(m: int) -> bool:
        if ld >= m:
            return True
        if m in omegas:
            return omegas[m] == 1 << m
        rec = _record(cls, m, caps)
        if cls.universe_size <= caps.max_pattern_universe and _settled_omega_star(rec, caps, omegas) < 1 << m:
            return False  # omega_m <= omega*_m < 2^m
        return has_clique_of_size(rec.core, 1 << m, caps)

    return _sweep(m_max, min(top, tech_cd_cutoff(ld) - 1), passes)


def fractional_clique_dimension(
    cls: ConceptClass, m_max: int, caps: Caps = DEFAULT_CAPS
) -> DimensionValue:
    """Largest m <= m_max with omega*_m = 2^m (exact LPs), plus exactness.

    No LP runs for an m with ld >= m, which passes, with 2^m > |H|, which
    cannot pass (fact (1)), or whose omega*_m is already settled.  Every
    other m, past m_max too, solves the LP of the core of G_m under `caps`.
    The sweep searches no clique, so below |X| a settled omega*_m is read
    under the LP's pattern cap, as a fresh sweep would solve its LP.
    Within `dimension_report` an m whose omega_m the report found at the
    ceiling min(2^m, |H|) reads omega*_m off that value with no LP.
    """
    cls.require_nonempty()
    return _fractional_clique_dimension(cls, m_max, caps, littlestone_dimension(cls), {})


def _fractional_clique_dimension(cls: ConceptClass, m_max: int, caps: Caps, ld: int, omegas: dict) -> DimensionValue:
    """`fractional_clique_dimension` of a nonempty class whose ld is known,
    read by a call that settled the exact omega_m of each m in `omegas`."""
    top = _log2_rows(cls)

    def passes(m: int) -> bool:
        return ld >= m or _settled_omega_star(_record(cls, m, caps), caps, omegas) == 1 << m

    return _sweep(m_max, top, passes)


def smallest_separating_m0(cls: ConceptClass, caps: Caps = DEFAULT_CAPS) -> int:
    """Least m0 with omega*_{m0} < 2^{m0}.  Every m0 <= ld has omega*_{m0}
    = 2^{m0} and every m0 > floor(log2 |H|) separates (fact (1)), so only
    the m0 between are read.  omega*_{m0} is read from the full LP at every
    m0, as a fresh run solves it, under the LP's pattern cap; `boost_config`
    reads its certificate for the m0 found, and a value settled before must
    agree with it."""
    top = _log2_rows(cls)
    for m0 in range(littlestone_dimension(cls) + 1, top + 1):
        if _certificate(_record(cls, m0, caps), caps).value < 1 << m0:
            return m0
    return top + 1


@dataclass(frozen=True)
class PerMRow:
    m: int
    num_vertices: int
    omega: Optional[int]
    omega_exact: Optional[bool]
    omega_star: Optional[Fraction]

    @property
    def two_pow_m(self) -> int:
        return 1 << self.m


@dataclass(frozen=True)
class DimensionReport:
    cls: ConceptClass
    vc: int
    ld: int
    cd: DimensionValue
    cd_star: DimensionValue
    rows: tuple  # tuple[PerMRow, ...]


def _check_ceiling_clique(g, clique) -> None:
    """Check again a maximum clique of a G_m, or of its core, that reaches
    clique_ceiling(g), and so makes omega*_m its size: the clique is a
    fractional clique of that size, and the uniform coloring (2^m) or the
    row coloring (|H|) a fractional coloring of the same total.  The clique
    and the row coloring's cover are checked."""
    try:
        validate_clique(g, clique.members)
    except (IndexError, ValueError) as exc:
        raise InvariantError(f"ceiling clique at m={g.m} is not a clique: {exc}") from exc
    if clique.size == len(g.cls.hypotheses) and not all(g.realizers):
        raise InvariantError(f"a vertex of G_{g.m} has no realizing row")


def dimension_report(
    cls: ConceptClass,
    m_max_clique: int = 4,
    m_max_lp: int = 3,
    caps: Caps = DEFAULT_CAPS,
) -> DimensionReport:
    """Per-m table plus the four dimensions.  omega is exact unless the
    node budget ran out (then the best clique found is reported, flagged).
    The report settles omega_m of each row itself and hands the exact
    values to its cd and cd* sweeps: m <= ld or m >= |X| gives omega_m =
    omega*_m = min(2^m, |H|) with no search, and every other m up to
    m_max_clique runs `max_clique` on the core, even when an earlier call
    searched it; a budget hit leaves that m to the sweeps.  A clique at
    the ceiling is checked again.  The report writes no record: every
    omega*_m it reads, in its rows up to m_max_lp and in its sweeps, goes
    through `_settled_omega_star`, which settles an exact omega_m at the
    ceiling min(2^m, |H|) as omega*_m (fact (1)); only an omega*_m left
    open solves an LP, on the core, or is read from the record under the
    LP's pattern cap.  `num_vertices` is the counted order of the full
    G_m."""
    cls.require_nonempty()
    vc = vc_dimension(cls)
    ld = littlestone_dimension(cls)
    omegas = {}
    rows = []
    for m in range(1, max(m_max_clique, m_max_lp) + 1):
        rec = _record(cls, m, caps)
        omega = omega_exact = None
        if m <= ld or m >= cls.universe_size:
            omegas[m] = min(1 << m, len(cls.hypotheses))
        elif m <= m_max_clique:
            g = rec.core
            try:
                clique = max_clique(g, caps)
            except ResourceLimitError as exc:
                omega = len(exc.best) if exc.best else 0
                omega_exact = False
            else:
                if clique.size == clique_ceiling(g):
                    _check_ceiling_clique(g, clique)
                omegas[m] = clique.size
        if m <= m_max_clique and m in omegas:
            omega, omega_exact = omegas[m], True
        star = _settled_omega_star(rec, caps, omegas) if m <= m_max_lp else None
        rows.append(
            PerMRow(m=m, num_vertices=rec.order, omega=omega,
                    omega_exact=omega_exact, omega_star=star)
        )
    cd = _clique_dimension(cls, m_max_clique, caps, ld, omegas)
    cd_star = _fractional_clique_dimension(cls, m_max_lp, caps, ld, omegas)
    return DimensionReport(cls=cls, vc=vc, ld=ld, cd=cd, cd_star=cd_star, rows=tuple(rows))


def check_inequalities(report: DimensionReport) -> list:
    """Exact evaluation of every inequality the theory promises for the
    computed values.  Returns [(name, passed, detail)]; comparisons on
    lower-bound dimensions are skipped rather than half-checked."""
    out = []
    vc, ld = report.vc, report.ld
    out.append(("vc<=ld", vc <= ld, f"vc={vc} ld={ld}"))
    if report.cd.exactness == EXACT:
        out.append(
            ("ld<=cd", ld <= report.cd.value, f"ld={ld} cd={report.cd.value}")
        )
        if ld >= 2:
            # log2(ld) is rational only for powers of two; compare via
            # 2^(cd) vs ld^(2*ld) to keep it exact: cd <= 2*ld*log2(ld)
            # iff 2^cd <= ld^(2*ld).  The 300 floor is checked directly.
            cap_ok = report.cd.value <= 300 or 2 ** report.cd.value <= ld ** (2 * ld)
            out.append(
                (
                    "cd<=max(2*ld*log2(ld),300)",
                    cap_ok,
                    f"cd={report.cd.value} ld={ld}",
                )
            )
    for row in report.rows:
        if row.omega is not None and row.omega_exact:
            if row.omega_star is not None:
                out.append(
                    (
                        f"omega<=omega_star<=2^m@m={row.m}",
                        row.omega <= row.omega_star <= row.two_pow_m,
                        f"omega={row.omega} omega*={row.omega_star} 2^m={row.two_pow_m}",
                    )
                )
            bound = (2 * row.m + 1) ** ld
            out.append(
                (
                    f"omega<=(2m+1)^ld@m={row.m}",
                    row.omega <= bound,
                    f"omega={row.omega} (2m+1)^ld={bound}",
                )
            )
    return out


def clear_caches() -> None:
    _records.clear()
