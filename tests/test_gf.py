import pytest

from collapsing.errors import PreconditionError
from collapsing.gf import PrimePowerField, irreducible_poly, _is_irreducible


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms(q):
    field = PrimePowerField(q)
    elems = list(field.elements())
    assert len(elems) == q
    # additive and multiplicative identities
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
    # commutativity + associativity on a few triples
    sample = elems[: min(q, 5)]
    for a in sample:
        for b in sample:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in sample:
                assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
    # every nonzero element is invertible (product hits 1)
    for a in elems[1:]:
        assert any(field.mul(a, b) == 1 for b in elems[1:])


def test_not_prime_power_rejected():
    with pytest.raises(PreconditionError):
        PrimePowerField(6)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_irreducible_polys_are_irreducible(p, e):
    f = list(irreducible_poly(p, e))
    assert len(f) == e + 1 and f[-1] == 1
    assert _is_irreducible(f, p)
    # no roots in F_p implies no linear factors
    for x in range(p):
        value = 0
        for c in reversed(f):
            value = (value * x + c) % p
        assert value != 0


def test_poly_eval_matches_horner():
    field = PrimePowerField(9)
    coeffs = [2, 5, 7]  # c0 + c1 x + c2 x^2
    for x in field.elements():
        expected = field.add(
            coeffs[0],
            field.add(field.mul(coeffs[1], x), field.mul(coeffs[2], field.mul(x, x))),
        )
        assert field.poly_eval(coeffs, x) == expected


def test_distinct_polynomials_agree_rarely():
    # two distinct degree-<=s polynomials agree on at most s points
    field = PrimePowerField(7)
    import itertools

    s = 2
    tables = {}
    for coeffs in itertools.product(range(7), repeat=s + 1):
        tables[coeffs] = tuple(field.poly_eval(list(coeffs), x) for x in range(7))
    keys = list(tables)[:40]
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            agree = sum(x == y for x, y in zip(tables[a], tables[b]))
            assert agree <= s


def test_gf_does_not_import_the_bound_engine():
    # The package __init__ imports everything, so stand the package up
    # without running it and import only gf and what gf itself imports.
    import subprocess
    import sys
    from pathlib import Path

    import collapsing

    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('collapsing')\n"
        f"pkg.__path__ = [{str(Path(collapsing.__file__).parent)!r}]\n"
        "sys.modules['collapsing'] = pkg\n"
        "import collapsing.gf\n"
        "assert collapsing.gf.is_prime_power(9) == (3, 2)\n"
        "print(sorted(m for m in sys.modules if m.startswith('collapsing.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert "collapsing.gf" in out
    assert "collapsing.bounds" not in out
