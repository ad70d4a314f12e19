"""Independent reference verdicts for the benchmark jobs.

Nothing here imports ``collapsing``.  Seeded families are checked by brute
force over ``itertools.combinations`` with exact integers (rationals are
scaled by the lcm of their denominators) or, for binary64 families, with
numpy floats.  Constructed families take their verdict from the theorem
that built them; where the gauge is a maximum of linear functionals, the
worst subset-sum norm is an exact rational and is recomputed here too.

Every ``check_*`` function takes the job's exit code and stdout and
returns ``None`` when they agree with the reference, or a one-line
description of the disagreement.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

FLOAT_TOLERANCE = 1e-9  # the documented float-mode slack of the verifiers
CHUNK = 8192  # subsets per vectorised block; keeps reference memory small
INT64_SAFE = 2**62


def parse_scalar(s):
    """JSON scalar as written by the CLI: 'p/q' strings, ints or floats."""
    if isinstance(s, str):
        return Fraction(s)
    return s


def scaled_int_columns(columns):
    """Scale rational columns to integers; returns (array, scale).

    The array has shape (m, r): row i holds the pairings of vector i.
    int64 is used when every subset sum provably fits, else Python ints.
    """
    values = [Fraction(c) for col in columns for c in col]
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    ints = [[int(Fraction(c) * scale) for c in col] for col in columns]
    peak = max((abs(c) for col in ints for c in col), default=0)
    dtype = np.int64 if peak * len(columns) < INT64_SAFE else object
    return np.array(ints, dtype=dtype), scale


def _combination_blocks(m: int, k: int):
    it = itertools.combinations(range(m), k)
    while True:
        block = list(itertools.islice(it, CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def kscan_linear(columns, k: int):
    """Worst k-subset-sum norm of a linear gauge, and the lex-smallest
    violating subset (1-based) or None.

    ``columns[i]`` lists the pairings of vector i with every functional of
    the gauge; the norm of a sum is the largest absolute pairing.
    """
    table, scale = scaled_int_columns(columns)
    worst = None
    witness = None
    for block in _combination_blocks(len(columns), k):
        norms = np.abs(table[block].sum(axis=1)).max(axis=1)
        top = max(norms.tolist())
        worst = top if worst is None else max(worst, top)
        if witness is None:
            bad = np.nonzero(norms > scale)[0]
            if bad.size:
                witness = tuple(int(i) + 1 for i in block[bad[0]])
    return Fraction(worst, scale), witness


def kscan_l2_exact(vectors, k: int):
    """(holds, witness) for the exact Euclidean norm: squared sums vs 1."""
    table, scale = scaled_int_columns(vectors)
    peak = int(np.abs(table).max()) if table.dtype != object else 0
    if peak**2 * k * k * table.shape[1] >= INT64_SAFE:
        table = table.astype(object)
    witness = None
    for block in _combination_blocks(len(vectors), k):
        sums = table[block].sum(axis=1)
        sq = (sums * sums).sum(axis=1)
        bad = np.nonzero(sq > scale * scale)[0]
        if bad.size:
            witness = tuple(int(i) + 1 for i in block[bad[0]])
            break
    return witness is None, witness


def kscan_float_sup(vectors, k: int):
    """(holds, witness) for a binary64 family in the sup norm."""
    table = np.array(vectors, dtype=float)
    for block in _combination_blocks(len(vectors), k):
        norms = np.abs(table[block].sum(axis=1)).max(axis=1)
        bad = np.nonzero(norms > 1.0 + FLOAT_TOLERANCE)[0]
        if bad.size:
            return False, tuple(int(i) + 1 for i in block[bad[0]])
    return True, None


def full_l1(vectors):
    """Worst l1 norm over all nonempty subset sums, and the
    lexicographically smallest violating subset (as a sorted tuple)."""
    table, scale = scaled_int_columns(vectors)
    m = len(vectors)
    masks = np.arange(1, 1 << m)
    member = ((masks[:, None] >> np.arange(m)) & 1).astype(table.dtype)
    norms = np.abs(member @ table).sum(axis=1)
    worst = Fraction(int(max(norms.tolist())), scale)
    bad = [tuple(i + 1 for i in range(m) if mask >> i & 1) for mask in masks[norms > scale].tolist()]
    return worst, (min(bad) if bad else None)


def slab_rows(space: dict):
    """Normalised slab rows of a JSON slab space: the ball is |<f,x>| <= 1."""
    rows = [[parse_scalar(c) for c in f] for f in space["functionals"]]
    cap = space.get("cap")
    if cap:
        bound = parse_scalar(cap["bound"])
        rows.append([parse_scalar(c) / bound for c in cap["direction"]])
    return rows


def pairing_columns(rows, vectors):
    """columns[i][j] = <rows[j], vectors[i]> in exact arithmetic."""
    return [[sum(Fraction(a) * b for a, b in zip(f, x)) for f in rows] for x in vectors]


def rank_exact(rows) -> int:
    """Rank of a rational matrix by plain Gauss elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Checks on CLI output


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def check_report(code, out, holds, witness=None, margin=None, margin_at_most=None, sampled=False):
    """Compare a ``verify`` report with the reference verdict.

    Exit code, verdict and witness are always compared; the margin only
    when the reference supplies an exact rational for it.
    """
    want_code = 0 if holds else 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    rep = _json(out)
    if rep is None:
        return "stdout is not a JSON report"
    if rep.get("holds") is not holds:
        return f"holds={rep.get('holds')}, reference says {holds}"
    got_witness = tuple(rep["witness"]) if rep.get("witness") else None
    if got_witness != witness:
        return f"witness {got_witness}, reference {witness}"
    if bool(rep.get("sampled")) != sampled:
        return f"sampled={rep.get('sampled')}, expected {sampled}"
    if margin is not None or margin_at_most is not None:
        got = rep.get("margin")
        if isinstance(got, float):
            return f"margin {got!r} is a float for an exact linear gauge"
        got = Fraction(got)
        if margin is not None and got != margin:
            return f"margin {got}, reference {margin}"
        if margin_at_most is not None and got > margin_at_most:
            return f"sampled margin {got} exceeds {margin_at_most}"
    return None


def _kcollapsing_tuple(values, k: int) -> bool:
    """1-D k-collapsing test by brute force over k-subsets."""
    return all(abs(sum(c)) <= 1 for c in itertools.combinations(values, k))


def check_oracle_single(code, out, m, k, p, balanced):
    """Closed form vs the vertex oracle for one (m, k, p).

    Balanced: the maximum is 1, attained at (0, ..., 0, -1), for every p,
    because a k-collapsing tuple containing 1 has every entry in [-1, 1].
    Unbalanced: an exact closed form equals the oracle; an upper bound is
    at least it.  The printed vertex must be sorted, feasible and attain
    the printed oracle value.
    """
    if code != 0:
        return f"exit code {code}, expected 0"
    rep = _json(out)
    if rep is None:
        return "stdout is not JSON"
    closed, oracle = Fraction(rep["closed_form"]), Fraction(rep["oracle"])
    vertex = [Fraction(c) for c in rep["oracle_vertex"]]
    if (rep["m"], rep["k"], rep["p"], rep["balanced"]) != (m, k, p, balanced):
        return "echoed parameters differ from the job"
    if len(vertex) != m - 1 or vertex != sorted(vertex, reverse=True):
        return "oracle vertex is not a sorted (m-1)-tuple"
    if sum(x ** (2 * p) for x in vertex) != oracle:
        return "oracle value does not match its vertex"
    if not _kcollapsing_tuple(vertex + [Fraction(1)], k):
        return "oracle vertex is not k-collapsing"
    if balanced:
        if sum(vertex) != -1:
            return "balanced oracle vertex does not sum to -1"
        if oracle != 1 or closed != 1 or vertex != [0] * (m - 2) + [-1]:
            return f"balanced maximum {oracle} (closed {closed}), expected 1 at (0,...,0,-1)"
        return None
    if rep["exactness"] == "exact" and closed != oracle:
        return f"exact closed form {closed} != oracle {oracle}"
    if rep["exactness"] != "exact" and oracle > closed:
        return f"oracle {oracle} exceeds the upper bound {closed}"
    return None


def check_oracle_grid(code, out, mmax, p_values):
    """Every grid row obeys the closed-form/oracle relation, and the rows
    are exactly the (m, k, p, balanced) cells the grid promises."""
    if code != 0:
        return f"exit code {code}, expected 0"
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["m", "k", "p", "balanced", "closed_form", "oracle", "exactness"]:
        return "missing CSV header"
    cells = []
    for m_, k_, p_, bal, closed, oracle, exactness in rows[1:]:
        m_, k_, p_ = int(m_), int(k_), int(p_)
        balanced = bal == "True"
        closed, oracle = Fraction(closed), Fraction(oracle)
        cells.append((m_, k_, p_, balanced))
        if balanced and (oracle != 1 or closed != 1):
            return f"balanced row {m_},{k_}: oracle {oracle}, closed {closed}, expected 1"
        if exactness == "exact" and closed != oracle:
            return f"row {m_},{k_},{p_}: exact closed form {closed} != oracle {oracle}"
        if exactness != "exact" and oracle > closed:
            return f"row {m_},{k_},{p_}: oracle {oracle} exceeds the bound {closed}"
    expected = []
    for m_ in range(4, mmax + 1):
        for k_ in range(2, m_ - 1):
            expected += [(m_, k_, p_, False) for p_ in p_values if p_ == 1 or 2 * k_ <= m_ + 1]
            expected.append((m_, k_, 1, True))
    if sorted(cells) != sorted(expected):
        return "grid rows differ from the promised (m, k, p) cells"
    return None


def check_search(code, out, d, k):
    """Largest k-collapsing set of nonzero sign vectors has max(k+1, 2d)
    members; the printed witness must be such a set."""
    if code != 0:
        return f"exit code {code}, expected 0"
    rep = _json(out)
    if rep is None:
        return "stdout is not JSON"
    target = max(k + 1, 2 * d)
    chosen = [tuple(v) for v in rep["witness"]]
    if rep["max_size"] != target or len(chosen) != target:
        return f"max_size {rep['max_size']}, theorem says {target}"
    if len(set(chosen)) != len(chosen) or any(
        len(v) != d or not any(v) or set(v) - {-1, 0, 1} for v in chosen
    ):
        return "witness is not a set of distinct nonzero sign vectors"
    for subset in itertools.combinations(chosen, min(k, len(chosen))):
        if max(abs(sum(col)) for col in zip(*subset)) > 1:
            return f"witness subset {subset} has a sum of sup norm above 1"
    return None


def gram_reference(space: dict, vectors):
    """Row-normalised pairing matrix of a slab family and its certificate.

    The dual unit vector of x is the signed first normalised slab row that
    attains the norm (the documented lowest-index tie-break).
    """
    rows = slab_rows(space)
    cols = pairing_columns(rows, vectors)
    duals = []
    for col in cols:
        norm = max(abs(c) for c in col)
        j = next(j for j, c in enumerate(col) if abs(c) == norm)
        sign = 1 if col[j] > 0 else -1
        duals.append([sign * c for c in rows[j]])
    a = [[sum(f_i * x_i for f_i, x_i in zip(f, x)) for x in vectors] for f in duals]
    a = [[v / row[i] for v in row] for i, row in enumerate(a)]
    m = len(a)
    trace = sum(a[i][i] for i in range(m))
    frob = sum(v * v for row in a for v in row)
    r = rank_exact(a)
    symmetric = all(a[i][j] == a[j][i] for i in range(m) for j in range(i))
    equality = symmetric and all(
        sum(a[i][t] * a[t][j] for t in range(m)) == trace / r * a[i][j]
        for i in range(m)
        for j in range(m)
    )
    return {
        "entries": a,
        "trace": trace,
        "frobenius_sq": frob,
        "rank": r,
        "rank_lower_bound": trace * trace / frob,
        "equality_case": equality,
    }


def check_gram(code, out, ref):
    if code != 0:
        return f"exit code {code}, expected 0"
    rep = _json(out)
    if rep is None:
        return "stdout is not JSON"
    entries = [[Fraction(v) for v in row] for row in rep["entries"]]
    if entries != ref["entries"]:
        return "pairing matrix entries differ from the reference"
    cert = rep["certificate"]
    for key in ("trace", "frobenius_sq", "rank_lower_bound"):
        if Fraction(cert[key]) != ref[key]:
            return f"certificate {key} {cert[key]}, reference {ref[key]}"
    if cert["rank"] != ref["rank"] or cert["equality_case"] is not ref["equality_case"]:
        return "certificate rank or equality case differs from the reference"
    return None
