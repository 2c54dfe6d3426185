"""Density statistics and table rendering for census rows.

All ratios are computed from exact integer counts and rounded once, to
five places, with round half to even, so rendered tables are
reproducible bit for bit.  The unnormalized deviation statistic
((2/3)|C3| - |CL|) / sqrt(|C3|) is reported verbatim next to the
conventional binomial z-score, which differs by the sqrt(p(1-p))
normalization; the two must never be conflated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

PLACES = 5


def format_ratio(num: int, den: int, places: int = PLACES) -> str:
    """Fixed-point num/den with round half to even."""
    if den <= 0:
        raise ValueError("ratio denominator must be positive")
    if num < 0:
        raise ValueError("ratio numerator must be nonnegative")
    scale = 10**places
    q, r = divmod(num * scale, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return f"{q // scale}.{q % scale:0{places}d}"


def format_fraction(x: Fraction, places: int = PLACES) -> str:
    return format_ratio(x.numerator, x.denominator, places)


def deviation_metric(c3: int, c_lambda: int) -> float:
    """Unnormalized lambda-density deviation: ((2/3) c3 - c_lambda) / sqrt(c3).

    Not a z-score: the denominator is sqrt(c3), not the binomial
    standard deviation sqrt(c3 * (2/3) * (1/3)).
    """
    if c3 <= 0:
        raise ValueError("deviation metric needs a positive C3 count")
    return (2 * c3 - 3 * c_lambda) / (3 * math.sqrt(c3))


def binomial_z(count: int, n: int, p0) -> float:
    """Conventional one-sample z-score of `count` successes in n trials."""
    if n <= 0:
        raise ValueError("binomial z needs a positive trial count")
    p0 = Fraction(p0)
    if not 0 < p0 < 1:
        raise ValueError("null probability must be strictly between 0 and 1")
    mean = n * p0
    var = n * p0 * (1 - p0)
    return float(count - mean) / math.sqrt(var)


def independence_chi2(n11: int, n10: int, n01: int, n00: int) -> float:
    """Pearson chi-square on a 2x2 table, one degree of freedom.

    No continuity correction.  Degenerate margins are an error, not a
    zero: a table where one condition never varies carries no
    information about independence.
    """
    r1, r0 = n11 + n10, n01 + n00
    c1, c0 = n11 + n01, n10 + n00
    if min(r1, r0, c1, c0) <= 0:
        raise ValueError("degenerate margins in the 2x2 table")
    n = r1 + r0
    num = n * (n11 * n00 - n10 * n01) ** 2
    return float(Fraction(num, r1 * r0 * c1 * c0))


# ---------------------------------------------------------------------------
# Row rendering.  Rows are duck-typed: n, c3, c_lambda, c_taubar, c_both.

CSV_HEADER = "n,c3,c_lambda,c_taubar,c_both,r_lambda,r_taubar,r_product,r_both"

MISSING = "—"  # em dash marks ratios over an empty C3


def _ratio_cells(row, missing: str):
    if row.c3 == 0:
        return [missing] * 4
    return [
        format_ratio(row.c_lambda, row.c3),
        format_ratio(row.c_taubar, row.c3),
        format_fraction(Fraction(row.c_lambda * row.c_taubar, row.c3 * row.c3)),
        format_ratio(row.c_both, row.c3),
    ]


def census_csv(rows) -> str:
    """CSV with integer counts and the four derived ratio columns.

    The ratio columns are recomputed from the integer columns on every
    render (the product from the exact fraction, before any rounding),
    so a CSV can never carry ratios inconsistent with its counts.
    """
    lines = [CSV_HEADER]
    for row in rows:
        cells = [str(row.n), str(row.c3), str(row.c_lambda), str(row.c_taubar), str(row.c_both)]
        cells += _ratio_cells(row, "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_table(rows) -> str:
    """Aligned text table in the layout of the source density tables."""
    header = ["n", "C3", "lambda", "taubar", "product", "both"]
    body = []
    for row in rows:
        body.append([f"{row.n:,}", str(row.c3)] + _ratio_cells(row, MISSING))
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(header)]
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in body:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CountRow:
    """Integer census counts parsed back from a CSV."""

    n: int
    c3: int
    c_lambda: int
    c_taubar: int
    c_both: int


def read_census_csv(text: str):
    """Parse counts out of a census CSV; ratio columns are ignored.

    Ratios are always recomputed from the counts, so a hand-edited
    ratio cell can never leak into downstream statistics.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or not lines[0].startswith("n,"):
        raise ValueError("not a census CSV: missing header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) < 5:
            raise ValueError(f"short census CSV row: {ln!r}")
        rows.append(CountRow(*(int(c) for c in cells[:5])))
    return rows


@dataclass(frozen=True)
class DensityReport:
    """Hypothesis checks for the final census row."""

    n: int
    c3: int
    z_lambda: float  # |CL|/|C3| against 2/3
    z_taubar: float  # |Ctau|/|C3| against 1/3
    z_both: float  # intersection against 2/9
    deviation: float  # unnormalized metric, shown verbatim
    chi2: float  # independence of the two conditions; None for degenerate margins


def density_report(row) -> DensityReport:
    """z-scores, deviation and chi2 of one row with nonempty C3.

    When one condition holds for none or for all of C3 (c_lambda or
    c_taubar is 0 or c3) the independence table has an empty margin:
    the z-scores and the deviation are still reported and chi2 is None.
    """
    if row.c3 <= 0:
        raise ValueError("density report needs a row with nonempty C3")
    n11 = row.c_both
    n10 = row.c_lambda - row.c_both
    n01 = row.c_taubar - row.c_both
    n00 = row.c3 - row.c_lambda - row.c_taubar + row.c_both
    degenerate = row.c_lambda in (0, row.c3) or row.c_taubar in (0, row.c3)
    return DensityReport(
        n=row.n,
        c3=row.c3,
        z_lambda=binomial_z(row.c_lambda, row.c3, Fraction(2, 3)),
        z_taubar=binomial_z(row.c_taubar, row.c3, Fraction(1, 3)),
        z_both=binomial_z(row.c_both, row.c3, Fraction(2, 9)),
        deviation=deviation_metric(row.c3, row.c_lambda),
        chi2=None if degenerate else independence_chi2(n11, n10, n01, n00),
    )


def render_report(rep: DensityReport) -> str:
    chi2 = "undefined (degenerate margins)" if rep.chi2 is None else f"{rep.chi2:.4f}"
    lines = [
        f"n = {rep.n:,}, |C3| = {rep.c3}",
        f"lambda density vs 2/3:  z = {rep.z_lambda:+.3f}  (conventional z-score)",
        f"taubar density vs 1/3:  z = {rep.z_taubar:+.3f}",
        f"joint density vs 2/9:   z = {rep.z_both:+.3f}",
        f"table deviation metric: {rep.deviation:+.5f}"
        "  (((2/3)|C3| - |CL|)/sqrt(|C3|), not a z-score)",
        f"independence chi2 (1 dof, no continuity correction): {chi2}",
    ]
    return "\n".join(lines) + "\n"
