"""Fractional clique number, fractional colorings, and duality certificates.

The fractional clique number of a contradiction graph is the optimum of the
packing LP over the deduplicated inclusion-maximal consistency sets V_h:

    max sum delta(v)   s.t.  sum_{v in V_h} delta(v) <= 1  per maximal V_h,
                             delta >= 0.

Restricting to consistency sets is sound because every independent set of a
contradiction graph extends to some V_h (merge the members' constraints and
complete arbitrarily), and restricting to maximal ones drops only dominated
constraints.  The dual optimum is a fractional coloring by the same sets;
finite LP strong duality makes the two optima coincide exactly, so every
solve can hand back a matched clique/coloring certificate pair.

All values are exact rationals.  Certificates are revalidated against the
full maximal family before being returned, with each side's weights scaled
once to integers over the lcm of their denominators, so every constraint
sum is an exact integer sum.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .concepts import mask_to_pattern, pattern_to_mask
from .errors import InvariantError, ZeroColoringError
from .graph import Caps, ContradictionGraph, DEFAULT_CAPS, independent_sets


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def parse_frac(text: str) -> Fraction:
    """Inverse of `frac_str`: an optional minus, digits 0-9, a slash and
    digits 0-9 naming a nonzero denominator."""
    parts = re.fullmatch("(-?[0-9]+)/([0-9]+)", text)
    if not parts:
        raise ValueError(f"{text!r} is not a fraction -?[0-9]+/[0-9]+")
    num, den = int(parts.group(1)), int(parts.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


@dataclass(frozen=True)
class FractionalClique:
    """Vertex weights delta >= 0 feasible for every maximal V_h constraint."""

    weights: dict  # vertex index -> Fraction, nonzero entries only
    size: Fraction


@dataclass(frozen=True)
class FractionalColoring:
    """Pattern weights w >= 0 covering every vertex with total at least 1."""

    weights: dict  # HypothesisPattern -> Fraction, nonzero entries only
    colors: Fraction


@dataclass(frozen=True)
class DualityCertificate:
    value: Fraction
    clique: FractionalClique
    coloring: FractionalColoring


def validate_packing(g: ContradictionGraph, fc: FractionalClique, caps: Caps = DEFAULT_CAPS) -> None:
    """Exact feasibility against the full maximal-V_h family (not only the
    constraints the solver happened to touch), derived here from `g`."""
    _check_packing(g, fc, lambda: independent_sets(g, maximal_only=True, caps=caps))


def _check_packing(g: ContradictionGraph, fc: FractionalClique, family) -> None:
    """`validate_packing` against the maximal family that `family()`
    returns, asked for only once the weights themselves check out."""
    for v, w in fc.weights.items():
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"weight on unknown vertex {v}")
        if w < 0:
            raise ValueError(f"negative weight on vertex {v}")
    scale, scaled = _common_denominator(fc.weights)
    size_num, size_den = fc.size.as_integer_ratio()
    if sum(scaled.values()) * size_den != size_num * scale:
        raise ValueError("declared size differs from the weight total")
    fam = family()
    for pattern, mask in zip(fam.patterns, fam.masks):
        total = sum(w for v, w in scaled.items() if (mask >> v) & 1)
        if total > scale:
            raise ValueError(
                f"packing constraint violated on V_h for h={pattern}: "
                f"{Fraction(total, scale)} > 1"
            )


def validate_cover(g: ContradictionGraph, col: FractionalColoring) -> None:
    """Every vertex must be covered with total weight >= 1 by the consistent
    full 0/1 labelings; exact arithmetic."""
    for pattern, w in col.weights.items():
        if w < 0:
            raise ValueError(f"negative weight on pattern {pattern}")
        if len(pattern) != g.cls.universe_size:
            raise ValueError(f"pattern {pattern} has wrong length")
        if any(b not in (0, 1) for b in pattern):
            raise ValueError(f"pattern {pattern} has an entry other than 0 or 1")
    scale, scaled = _common_denominator(col.weights)
    colors_num, colors_den = col.colors.as_integer_ratio()
    if sum(scaled.values()) * colors_den != colors_num * scale:
        raise ValueError("declared color total differs from the weight total")
    masks = [(pattern_to_mask(pattern), w) for pattern, w in scaled.items()]
    for v in range(g.num_vertices):
        ones, zeros = g.ones[v], g.zeros[v]
        total = sum(w for hm, w in masks if (ones & ~hm) == 0 and (zeros & hm) == 0)
        if total < scale:
            raise ValueError(
                f"cover constraint violated at vertex {v} "
                f"({g.vertices[v].render()}): {Fraction(total, scale)} < 1"
            )


def _common_denominator(weights: dict) -> tuple:
    """(L, {key: w * L}) with L the lcm of the weights' denominators, so
    the weight sums are exact integer sums over the one denominator L."""
    ratios = {k: w.as_integer_ratio() for k, w in weights.items()}
    scale = math.lcm(*(den for _, den in ratios.values()))
    return scale, {k: num * (scale // den) for k, (num, den) in ratios.items()}


def omega_star(g: ContradictionGraph, caps: Caps = DEFAULT_CAPS) -> DualityCertificate:
    """Exact fractional clique number with matching primal/dual certificates.

    The primal optimum is a fractional clique, the dual a fractional coloring
    of equal total weight; both are revalidated before returning, the primal
    against the LP's own maximal family, and a failed check is InvariantError.
    """
    from .simplex import solve_packing_lp

    fam = independent_sets(g, maximal_only=True, caps=caps)
    value, primal, dual = solve_packing_lp(g.num_vertices, fam.masks)
    fc = FractionalClique(
        weights={v: w for v, w in enumerate(primal) if w}, size=value
    )
    weights = {fam.patterns[i]: w for i, w in enumerate(dual) if w}
    col = FractionalColoring(weights=weights, colors=sum(weights.values(), Fraction(0)))
    if col.colors != value:
        raise InvariantError(f"strong duality mismatch: dual total {col.colors} != value {value}")
    try:
        _check_packing(g, fc, lambda: fam)
        validate_cover(g, col)
    except ValueError as exc:
        raise InvariantError(f"LP certificate at m={g.m} fails its check: {exc}") from exc
    return DualityCertificate(value=value, clique=fc, coloring=col)


def uniform_coloring_witness(g: ContradictionGraph, caps: Caps = DEFAULT_CAPS) -> FractionalColoring:
    """Weight 2^(m-|X|) on every full labeling: a dataset with k distinct
    points is consistent with 2^(|X|-k) labelings, so its cover totals
    2^(m-k) >= 1.  Total weight 2^m, certifying chi* <= 2^m for every m."""
    n = g.cls.universe_size
    caps.check_universe(n)
    w = Fraction(2) ** (g.m - n)
    col = FractionalColoring(
        weights={mask_to_pattern(hm, n): w for hm in range(1 << n)},
        colors=Fraction(2) ** g.m,
    )
    try:
        validate_cover(g, col)
    except ValueError as exc:
        raise InvariantError(f"uniform coloring at m={g.m} fails its check: {exc}") from exc
    return col


def coloring_to_distribution(col: FractionalColoring) -> dict:
    """Normalize a fractional coloring into a distribution over patterns.
    Every vertex then has consistency probability >= 1/colors."""
    if col.colors == 0:
        raise ZeroColoringError("cannot normalize a zero-weight coloring")
    return {h: w / col.colors for h, w in col.weights.items() if w}


# ─── certificate text format ─────────────────────────────────────────────


def format_certificate(cert: DualityCertificate) -> str:
    """Deterministic text form:

        value <num>/<den>
        primal
        <vertex-index> <num>/<den>
        dual
        <pattern-bits> <num>/<den>

    Nonzero entries only, sorted by vertex index / pattern bits.
    """
    lines = [f"value {frac_str(cert.value)}", "primal"]
    for v in sorted(cert.clique.weights):
        lines.append(f"{v} {frac_str(cert.clique.weights[v])}")
    lines.append("dual")
    for h in sorted(cert.coloring.weights):
        bits = "".join(str(b) for b in h)
        lines.append(f"{bits} {frac_str(cert.coloring.weights[h])}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> DualityCertificate:
    """Inverse of `format_certificate`.  Comments after `#` and blank lines
    are skipped.  Every other line is a section name or exactly two fields;
    the value line comes once, a vertex is written in the digits 0-9, every
    pattern has one length and no vertex or pattern repeats.  Anything else
    raises `ValueError` naming the line, so no text reads ambiguously."""
    value = None
    width = 0  # the length of every dual pattern
    primal: dict = {}
    dual: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("primal", "dual"):
            section = line
            continue
        fields = line.split()
        if not (fields[0] == "value" or section):
            raise ValueError(f"unexpected certificate line: {line!r}")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 fields, got {len(fields)}")
            key, weight = fields[0], parse_frac(fields[1])
            if key == "value":
                if value is not None:
                    raise ValueError("a second value line")
                value = weight
            elif section == "primal":
                if not re.fullmatch("[0-9]+", key):
                    raise ValueError(f"vertex {key!r} is not a string of digits 0-9")
                v = int(key)
                if v in primal:
                    raise ValueError(f"vertex {v} repeats")
                primal[v] = weight
            else:
                if set(key) - {"0", "1"}:
                    raise ValueError(f"pattern {key!r} is not a string of 0s and 1s")
                h = tuple(int(c) for c in key)
                if dual and len(h) != width:
                    raise ValueError(f"pattern {key} has {len(h)} labels, not {width}")
                if h in dual:
                    raise ValueError(f"pattern {key} repeats")
                width = len(h)
                dual[h] = weight
        except ValueError as exc:
            raise ValueError(f"bad certificate line {line!r}: {exc}") from None
    if value is None:
        raise ValueError("certificate missing value line")
    return DualityCertificate(
        value=value,
        clique=FractionalClique(weights=primal, size=sum(primal.values(), Fraction(0))),
        coloring=FractionalColoring(weights=dual, colors=sum(dual.values(), Fraction(0))),
    )
