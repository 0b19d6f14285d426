import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from skewcube.errors import (
    BadModulus,
    BadSubsetSize,
    DegreeTooHigh,
    DimensionMismatch,
    MissingValue,
    SkewcubeError,
)
from skewcube.cube import CubePoint
from skewcube.fourier import MultilinearPoly, inverse_wht, random_poly, w_set, wht
from skewcube.interpolation import (
    ChunkLayout,
    InterpolationScheme,
    build_scheme,
    check_recovery_size,
    chunk_layout,
    recover_coefficient,
    vanishing_dimension,
)
from skewcube.subsets import labels_of, mask_of


# The chunk product distribution's support in plain Fraction arithmetic: the
# oracle that reference_scheme and the distribution tests read, while
# build_scheme works on integer numerators.
def _chunk_states(layout: ChunkLayout) -> list[list[tuple[int, Fraction]]]:
    """Per chunk, the support states as (mask of -1 labels, probability)."""
    m = layout.m
    plus_prob = Fraction(1, m)
    heavy_prob = Fraction(1, 2 * math.comb(m - 2, m // 2 - 1))
    per_chunk = []
    for chunk in layout.chunks:
        states = [(0, plus_prob)]
        for negatives in itertools.combinations(chunk[:-1], m // 2):
            states.append((mask_of(negatives), heavy_prob))
        per_chunk.append(states)
    return per_chunk


def _support_distribution(layout: ChunkLayout) -> list[tuple[int, Fraction]]:
    """The product distribution's support as (point mask, probability) pairs."""
    extra_mask = mask_of(layout.extra)
    out = []
    for combo in itertools.product(*_chunk_states(layout)):
        prob = Fraction(1)
        base = 0
        for mask, p in combo:
            prob *= p
            base |= mask
        if base.bit_count() % layout.m:
            base |= extra_mask
        out.append((base, prob))
    return out


def test_layout_canonical_small():
    lay = chunk_layout(3, 2, 1, {2})
    assert lay.chunks == ((1, 2),)
    assert lay.extra == (3,)
    assert lay.rest == ()
    assert lay.canonical_order == (1, 2, 3)


def test_layout_two_chunks():
    lay = chunk_layout(5, 2, 2, {2, 4})
    assert lay.chunks == ((1, 2), (3, 4))
    assert lay.extra == (5,)
    assert lay.rest == ()


def test_layout_relabels_general_subset():
    lay = chunk_layout(7, 2, 2, {1, 7})
    # subset elements land at the chunk ends, everything else fills ascending
    assert lay.chunks == ((2, 1), (3, 7))
    assert lay.extra == (4,)
    assert lay.rest == (5, 6)
    assert sorted(sum(lay.chunks, ()) + lay.extra + lay.rest) == list(range(1, 8))


def test_layout_degree_too_high():
    with pytest.raises(DegreeTooHigh):
        chunk_layout(3, 2, 2, {1, 2})


def test_layout_odd_modulus():
    with pytest.raises(BadModulus):
        chunk_layout(6, 3, 1, {3})


def test_layout_bad_subset():
    with pytest.raises(BadSubsetSize):
        chunk_layout(6, 2, 2, {1})
    with pytest.raises(BadSubsetSize):
        chunk_layout(6, 2, 1, {9})


def test_scheme_atoms_match_hand_enumeration():
    # the four atoms of the (n=3, m=2, d=1, S={2}) measure, derived by hand
    # from the chunk law: support {(+,+,+) w.p. 1/2, (-,+,-) w.p. 1/2},
    # then expanded over the chunk sign twist
    scheme = build_scheme(3, 2, 1, {2})
    got = {(pt.coords(), w, s) for pt, w, s in scheme.atoms}
    q = Fraction(1, 4)
    assert got == {
        ((1, 1, 1), q, 1),
        ((-1, -1, 1), q, -1),
        ((-1, 1, -1), q, 1),
        ((1, -1, -1), q, -1),
    }


def test_support_distribution_hand_case():
    lay = chunk_layout(3, 2, 1, {2})
    supp = dict(_support_distribution(lay))
    assert supp == {0b000: Fraction(1, 2), 0b101: Fraction(1, 2)}


def test_scheme_weights_and_support():
    for n, m, d in [(3, 2, 1), (5, 2, 2), (6, 4, 1), (7, 2, 3), (10, 4, 2)]:
        for S in itertools.islice(itertools.combinations(range(1, n + 1), d), 5):
            scheme = build_scheme(n, m, d, S)
            assert sum(w for _, w, _ in scheme.atoms) == 1
            assert all(pt.weight % m == 0 for pt, _, _ in scheme.atoms)
            w_bits = {p.bits for p in w_set(n, m)}
            assert all(pt.bits in w_bits for pt, _, _ in scheme.atoms)


def test_scheme_atom_count_is_product_of_states():
    # the chunk sign twist is recoverable from the point (the chunk-end
    # coordinate is +1 in every state), so no two atoms ever merge
    for n, m, d in [(5, 2, 2), (6, 4, 1), (10, 4, 2)]:
        states = 1 + math.comb(m - 1, m // 2)
        scheme = build_scheme(n, m, d, tuple(range(m, m * d + 1, m)))
        assert len(scheme.atoms) == (states**d) * (2**d)


def reference_scheme(n, m, d, subset):
    """The scheme built by merging atoms that land on one point.

    No two atoms ever meet (see ``atom_count``), so ``build_scheme`` appends
    them directly; this keeps the merging construction as an oracle.
    """
    layout = chunk_layout(n, m, d, subset)
    chunk_masks = [mask_of(c) for c in layout.chunks]
    y_scale = Fraction(1, 1 << d)
    merged = {}
    for base, prob in _support_distribution(layout):
        weight = prob * y_scale
        for ybits in range(1 << d):
            point = base
            for j in range(d):
                if (ybits >> j) & 1:
                    point ^= chunk_masks[j]
            sign = -1 if ybits.bit_count() & 1 else 1
            entry = merged.get(point)
            if entry is None:
                merged[point] = [weight, sign]
            else:
                assert entry[1] == sign, f"point mask 0x{point:x} merged with both signs"
                entry[0] += weight
    atoms = tuple((CubePoint(bits, n), w, s) for bits, (w, s) in sorted(merged.items()))
    return InterpolationScheme(n, m, d, layout.subset, atoms)


def _reference_grid():
    # m in {2, 4, 6, 8}, d <= 3, the three smallest feasible n, five subsets
    # each; (m, d) = (8, 3) has 373,248 atoms per scheme and is left out
    for m in (2, 4, 6, 8):
        for d in range(4 if m < 8 else 3):
            for n in range(d * m + m // 2, d * m + m // 2 + 3):
                subsets = list(itertools.combinations(range(1, n + 1), d))
                rng = random.Random(1000 * m + 100 * d + n)
                for subset in rng.sample(subsets, min(5, len(subsets))):
                    yield n, m, d, subset


def test_scheme_equals_merging_reference():
    cases = list(_reference_grid())
    assert len(cases) == 174
    for n, m, d, subset in cases:
        assert build_scheme(n, m, d, subset) == reference_scheme(n, m, d, subset), (n, m, d, subset)


def test_odd_modulus_is_bad_modulus_everywhere():
    for m in (3, 5, 1, 0, -2):
        with pytest.raises(BadModulus):
            build_scheme(9, m, 1, (1,))
        with pytest.raises(BadModulus):
            check_recovery_size(9, 1, m, (1,))
        with pytest.raises(BadModulus):
            vanishing_dimension(5, m, 1)


def test_scheme_deterministic():
    a = build_scheme(7, 2, 3, {2, 4, 6})
    b = build_scheme(7, 2, 3, {2, 4, 6})
    assert a == b


def test_single_coordinate_balance():
    # under the product distribution, every non-end chunk coordinate has
    # expectation exactly zero
    for n, m, d in [(3, 2, 1), (6, 4, 1), (10, 4, 2)]:
        lay = chunk_layout(n, m, d, tuple(range(m, m * d + 1, m)))
        supp = _support_distribution(lay)
        assert sum(p for _, p in supp) == 1
        for chunk in lay.chunks:
            for label in chunk[:-1]:
                bit = 1 << (label - 1)
                exp = sum(
                    (-p if bits & bit else p) for bits, p in supp
                )
                assert exp == 0
            end_bit = 1 << (chunk[-1] - 1)
            assert all(not bits & end_bit for bits, _ in supp)


def test_monomial_expectations_identify_target():
    # E[x^T] over the distribution is 1 for T = S and 0 for any other T
    # meeting each chunk exactly once
    n, m, d = 6, 2, 2
    S = (2, 4)
    lay = chunk_layout(n, m, d, S)
    supp = _support_distribution(lay)
    for t1 in lay.chunks[0]:
        for t2 in lay.chunks[1]:
            T = mask_of([t1, t2])
            exp = sum(
                (-p if (bits & T).bit_count() & 1 else p) for bits, p in supp
            )
            assert exp == (1 if (t1, t2) == S else 0)


def test_recover_examples():
    scheme = build_scheme(3, 2, 1, {2})
    x2 = {mask_of([2]): (Fraction(1),)}
    x1 = {mask_of([1]): (Fraction(1),)}
    const = {0: (Fraction(5),)}
    from skewcube.fourier import MultilinearPoly

    for coeffs, want in [(x2, 1), (x1, 0), (const, 0)]:
        poly = MultilinearPoly(3, 1, coeffs)
        got = recover_coefficient(scheme, lambda p: poly.value_at(p.bits))
        assert got == (Fraction(want),)


def test_recover_from_value_table_and_callback_agree():
    poly = random_poly(5, 2, 2, seed=7)
    scheme = build_scheme(5, 2, 2, {1, 4})
    table = inverse_wht(poly)
    via_table = recover_coefficient(scheme, table)
    via_callback = recover_coefficient(scheme, lambda p: poly.value_at(p.bits))
    assert via_table == via_callback
    assert via_table == poly.coeffs.get(mask_of([1, 4]), (Fraction(0),) * 2)


def test_recover_exact_small_grid():
    # both transform directions in the loop: coefficients are read back
    # through wht(inverse_wht(poly)) rather than trusted from construction
    for m, d, n in [(2, 1, 3), (2, 1, 4), (2, 2, 5), (2, 2, 6), (4, 1, 6)]:
        subsets = list(itertools.combinations(range(1, n + 1), d))[:6]
        for S in subsets:
            scheme = build_scheme(n, m, d, S)
            for seed in range(3):
                poly = random_poly(n, d if seed else max(d - 1, 0), 1, seed)
                table = inverse_wht(poly)
                direct = wht(table).coeffs.get(mask_of(S), (Fraction(0),))
                assert recover_coefficient(scheme, table) == direct


def test_recover_rational_polys_through_value_at():
    # Every coefficient divided by 3: value_at returns Fraction(a, 3)s, most
    # of them read back from the polynomial's map of values.
    zero = (Fraction(0),) * 2
    polys = []
    for seed in range(8):
        ints = random_poly(14, 3, 2, seed)
        polys.append(MultilinearPoly(14, 2, {mask: tuple(x / 3 for x in vec) for mask, vec in ints.coeffs.items()}))
    assert all(p._den == 3 for p in polys)
    masks = [max(mask for mask in p.coeffs if mask.bit_count() == 3) for p in polys]
    for mask in masks:
        scheme = build_scheme(14, 4, 3, labels_of(mask))
        for p in polys:
            got = recover_coefficient(scheme, lambda pt, p=p: p.value_at(pt.bits))
            assert got == p.coeffs.get(mask, zero), (mask, got)


def test_recover_missing_value():
    scheme = build_scheme(3, 2, 1, {2})
    with pytest.raises(MissingValue):
        recover_coefficient(scheme, lambda p: None)


def test_recover_table_dimension_mismatch():
    scheme = build_scheme(3, 2, 1, {2})
    table = inverse_wht(random_poly(4, 1, 1, seed=0))
    with pytest.raises(DimensionMismatch):
        recover_coefficient(scheme, table)


def test_scheme_depends_only_on_shape():
    # same inputs, same scheme; the function being recovered never enters
    assert build_scheme(5, 2, 2, (2, 4)) == build_scheme(5, 2, 2, [4, 2])


def test_vanishing_dimension_examples():
    assert vanishing_dimension(3, 2, 1) == 0
    assert vanishing_dimension(6, 2, 2) == 0
    # two points, three unknowns, two independent constraints
    assert vanishing_dimension(2, 2, 1) == 1


def test_vanishing_dimension_bad_modulus():
    with pytest.raises(BadModulus):
        vanishing_dimension(4, 3, 1)
    with pytest.raises(BadModulus):
        vanishing_dimension(4, 1, 1)


def test_vanishing_dimension_matches_bruteforce_nullity():
    from gram_oracle import exact_nullity

    for n, m, d in [(4, 2, 2), (5, 4, 1), (4, 4, 2), (3, 2, 2)]:
        cols = []
        for size in range(d + 1):
            cols.extend(mask_of(s) for s in itertools.combinations(range(1, n + 1), size))
        rows = [
            [1 - 2 * ((c & p.bits).bit_count() & 1) for c in cols]
            for p in w_set(n, m)
        ]
        assert vanishing_dimension(n, m, d) == exact_nullity(rows, len(cols))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(2, 3), st.data())
def test_recover_property_random(d, half_m, data):
    m = 2 * half_m
    n = data.draw(st.integers(d * m + m // 2, d * m + m // 2 + 2))
    S = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:d]))
    seed = data.draw(st.integers(0, 50))
    poly = random_poly(n, d, 1, seed)
    scheme = build_scheme(n, m, d, S)
    got = recover_coefficient(scheme, lambda p: poly.value_at(p.bits))
    assert got == poly.coeffs.get(mask_of(S), (Fraction(0),))


def test_vanishing_dimension_matches_evaluation_matrix_grid():
    # brute force on E itself, over tall, square and wide shapes, including
    # rank-deficient ones
    from gram_oracle import exact_nullity

    shapes = set()
    deficient = 0
    for n in range(1, 8):
        for m in (2, 4, 6):
            points = [x for x in range(1 << n) if x.bit_count() % m == 0]
            for d in range(n + 1):
                cols = [
                    mask_of(s)
                    for size in range(d + 1)
                    for s in itertools.combinations(range(1, n + 1), size)
                ]
                rows = [[1 - 2 * ((c & x).bit_count() & 1) for c in cols] for x in points]
                want = exact_nullity(rows, len(cols))
                assert vanishing_dimension(n, m, d) == want, (n, m, d)
                shapes.add((len(rows) > len(cols)) - (len(rows) < len(cols)))
                deficient += len(cols) - want < min(len(rows), len(cols))
    assert shapes == {-1, 0, 1}
    assert deficient > 0


def test_vanishing_dimension_zero_in_the_feasible_range():
    # n >= d*m + m/2: the recovery scheme exists, so no nonzero map vanishes.
    # (16, 2, 7) has a Gram side of 26,333 subsets against 2^15 points.
    assert vanishing_dimension(16, 2, 7) == 0
    assert vanishing_dimension(40, 4, 9) == 0
    assert vanishing_dimension(200, 4, 49) == 0


@pytest.mark.parametrize("n, m", [(30, 4), (30, 2), (40, 8)])
def test_vanishing_dimension_full_degree_closed_form(n, m):
    # at d = n every function on the cube is a multilinear map, so the maps
    # vanishing on W(m) are exactly the functions supported off it
    outside = 2**n - sum(math.comb(n, w) for w in range(0, n + 1, m))
    assert vanishing_dimension(n, m, n) == outside


def test_krawtchouk_rank_lemma():
    # K_t(u; N) has degree exactly t in u, so the first r Krawtchouk
    # polynomials at distinct nodes have rank min(r, nodes): the count
    # vanishing_dimension takes for each block's rank
    from gram_oracle import exact_nullity, krawtchouk

    for N in range(31):
        table = [[krawtchouk(N, t, u) for t in range(N + 1)] for u in range(N + 1)]
        for s in range(1, 7):
            for a in range(N + 1):
                nodes = range(a, N + 1, s)
                for r in range(1, N + 2):
                    got = exact_nullity([table[u][:r] for u in nodes], r)
                    assert got == max(0, r - len(nodes)), (N, s, a, r)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_vanishing_dimension_edge_is_n_equals_d_m_plus_1(m):
    # n = d*m + 1 is the first n at which no nonzero map of degree <= d
    # vanishes on W(m)
    for d in range(1, 8):
        assert vanishing_dimension(d * m + 1, m, d) == 0, (m, d)
        assert vanishing_dimension(d * m, m, d) > 0, (m, d)


def test_vanishing_dimension_matches_gram_oracle():
    from gram_oracle import gram_vanishing_dimension

    for n in range(1, 10):
        for m in (2, 4, 6, 8):
            for d in range(n + 1):
                assert vanishing_dimension(n, m, d) == gram_vanishing_dimension(n, m, d), (n, m, d)


def test_feasibility_edge_prints_golden(capsys):
    # the golden was printed by the Gram-matrix implementation
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "feasibility_edge", root / "scripts" / "feasibility_edge.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    golden = (root / "tests" / "golden" / "feasibility_edge.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _fraction_sum_oracle(scheme, f):
    """The weighted signed sum over the atoms, in plain Fraction arithmetic."""
    acc = None
    for point, weight, sign in scheme.atoms:
        vec = [Fraction(v) for v in f(point)]
        if acc is None:
            acc = [Fraction(0)] * len(vec)
        for i, v in enumerate(vec):
            acc[i] += sign * weight * v
    return tuple(acc)


_SCHEME_SHAPES = [(3, 2, 1, (2,)), (5, 2, 2, (1, 4)), (6, 4, 1, (3,)), (7, 2, 3, (2, 4, 6))]
_big_numerators = st.integers(2**63, 2**90) | st.integers(-(2**90), -(2**63)) | st.integers(-9, 9)
_denominators = st.sampled_from([1, 2, 3, 7, 12, 2**61 - 1, 10**20 + 39])


@st.composite
def _exact_values(draw):
    """An int, a Fraction or a "p/q" string, with large numerators and mixed denominators."""
    num, den = draw(_big_numerators), draw(_denominators)
    q = Fraction(num, den)
    form = draw(st.sampled_from(["int", "fraction", "string"]))
    if form == "int":
        return num
    if form == "fraction":
        return q
    return f"{q.numerator}/{q.denominator}"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SCHEME_SHAPES),
    st.integers(1, 3),
    st.lists(_exact_values(), min_size=1, max_size=16),
    st.integers(1, 10**6),
)
# a column that mixes denominators 1 and 2, so its lcm is 2
@example(_SCHEME_SHAPES[1], 2, [1, Fraction(1, 2), -3, "5/2", 4], 1)
def test_recover_matches_fraction_sum_oracle(shape, k, pool, stride):
    # atom i, component j reads pool[(i * k + j) * stride % len(pool)]
    scheme = build_scheme(*shape)
    table = {
        point.bits: tuple(pool[(i * k + j) * stride % len(pool)] for j in range(k))
        for i, (point, _, _) in enumerate(scheme.atoms)
    }
    f = lambda pt: table[pt.bits]
    assert recover_coefficient(scheme, f) == _fraction_sum_oracle(scheme, f)


def test_recover_accepts_list_and_generator_values():
    scheme = build_scheme(5, 2, 2, (1, 4))
    want = _fraction_sum_oracle(scheme, lambda pt: (pt.bits, Fraction(1, 3)))
    assert recover_coefficient(scheme, lambda pt: [pt.bits, "1/3"]) == want
    assert recover_coefficient(scheme, lambda pt: iter((pt.bits, Fraction(1, 3)))) == want


def test_recover_float_value_raises_type_error():
    scheme = build_scheme(3, 2, 1, {2})
    with pytest.raises(TypeError):
        recover_coefficient(scheme, lambda p: (0.5,))
    with pytest.raises(TypeError):
        recover_coefficient(scheme, lambda p: (1, 0.5) if p.bits else (1, 2))


def test_recover_inconsistent_lengths_is_missing_value():
    scheme = build_scheme(3, 2, 1, {2})
    with pytest.raises(MissingValue):
        recover_coefficient(scheme, lambda p: (1,) * (1 + (p.bits & 1)))


def test_recover_errors_are_raised_at_the_first_bad_atom_in_scheme_order():
    scheme = build_scheme(5, 2, 2, (1, 4))
    masks = [pt.bits for pt, _, _ in scheme.atoms]

    def callback(bad):
        """Values (1, 2) everywhere except the atoms in bad, by index."""
        return lambda pt: bad.get(masks.index(pt.bits), (1, 2))

    with pytest.raises(MissingValue, match="inconsistent dimension"):
        recover_coefficient(scheme, callback({2: (1, 2, 3), 5: None}))
    with pytest.raises(MissingValue, match=rf"point mask 0x{masks[2]:x}$"):
        recover_coefficient(scheme, callback({2: None, 5: (1,)}))
    with pytest.raises(MissingValue, match=rf"point mask 0x{masks[2]:x}$"):
        recover_coefficient(scheme, callback({2: None, 5: (0.5, 1)}))
    with pytest.raises(TypeError):
        recover_coefficient(scheme, callback({5: (1, 0.5)}))
    with pytest.raises(TypeError):
        recover_coefficient(scheme, callback({2: (0.5, 1), 5: None}))
    with pytest.raises(TypeError):
        recover_coefficient(scheme, callback({2: (0.5,), 5: (1,)}))


def test_scheme_integer_weights_reproduce_atoms():
    scheme = build_scheme(10, 4, 2, (4, 8))
    assert list(scheme._points) == [pt for pt, _, _ in scheme.atoms]
    for w, (_, weight, sign) in zip(scheme._nums, scheme.atoms, strict=True):
        assert Fraction(w, scheme._den) == sign * weight


def test_scheme_integer_form_matches_the_reference_on_the_grid():
    # reference_scheme's weights are Fraction products, one object per support point
    for n, m, d, subset in itertools.islice(_reference_grid(), 0, None, 5):
        scheme, want = build_scheme(n, m, d, subset), reference_scheme(n, m, d, subset)
        assert (scheme._den, scheme._points, scheme._nums) == (want._den, want._points, want._nums), (n, m, d, subset)


def _with_weights(scheme, weights):
    """The scheme with atom i's weight replaced by weights[i]."""
    atoms = tuple((pt, w, s) for (pt, _, s), w in zip(scheme.atoms, weights))
    return InterpolationScheme(scheme.n, scheme.m, scheme.d, scheme.subset, atoms)


@pytest.mark.parametrize("shape", _SCHEME_SHAPES + [(14, 4, 3, (4, 8, 12))])
def test_shared_weights_integerize_like_distinct_ones(shape):
    scheme = build_scheme(*shape)
    weights = [w for _, w, _ in scheme.atoms]
    # one Fraction object per number of all-plus chunks
    assert len(set(map(id, weights))) == scheme.d + 1
    distinct = [Fraction(w.numerator, w.denominator) for w in weights]
    assert len(set(map(id, distinct))) == len(weights)
    for form in (distinct, [f"{w.numerator}/{w.denominator}" for w in weights]):
        other = _with_weights(scheme, form)
        assert (other._den, other._points, other._nums) == (scheme._den, scheme._points, scheme._nums)


def test_int_weight_integerizes_like_a_fraction():
    scheme = build_scheme(1, 2, 0, ())
    assert [(pt.bits, w, s) for pt, w, s in scheme.atoms] == [(0, 1, 1)]
    other = _with_weights(scheme, [1])
    assert (other._den, other._points, other._nums) == (scheme._den, scheme._points, scheme._nums)
    assert (scheme._den, scheme._points, scheme._nums) == (1, (CubePoint(0, 1),), (1,))


def test_scheme_checks_hold_with_shared_weights():
    scheme = build_scheme(5, 2, 2, (1, 4))
    assert len(scheme.atoms) == 16
    assert {w for _, w, _ in scheme.atoms} == {Fraction(1, 16)}
    for weight, match in [
        (Fraction(0), "positive"),
        (Fraction(-1, 16), "positive"),
        (Fraction(1, 8), r"sum to 2, expected 1"),
    ]:
        with pytest.raises(SkewcubeError, match=match):
            _with_weights(scheme, [weight] * 16)
    # a bad second weight object, with the weights still summing to 1
    eighth = Fraction(1, 8)
    for second, count in [(Fraction(0), 8), (Fraction(-7, 8), 1)]:
        with pytest.raises(SkewcubeError, match="positive"):
            _with_weights(scheme, [eighth] * (16 - count) + [second] * count)
    atoms = list(scheme.atoms)
    point, weight, sign = atoms[1]
    for replaced, match in [
        ((CubePoint(point.bits, 6), weight, sign), "dimension mismatch"),
        ((atoms[0][0], weight, sign), "duplicate atom point"),
        ((CubePoint(0b1, 5), weight, sign), "outside W"),
        ((point, weight, 0), "signs"),
    ]:
        with pytest.raises(SkewcubeError, match=match):
            InterpolationScheme(5, 2, 2, (1, 4), tuple(atoms[:1] + [replaced] + atoms[2:]))
    with pytest.raises(ValueError):
        InterpolationScheme(5, 2, 2, (1, 4), tuple(atoms[:1] + [atoms[1] + (0,)] + atoms[2:]))


@pytest.mark.parametrize("bad", [None, (0.5, 1), (1, 2, 3), [1, 0.5]])
def test_recover_calls_f_no_further_than_the_first_bad_atom(bad):
    scheme = build_scheme(5, 2, 2, (1, 4))
    calls = []

    def f(pt):
        calls.append(pt.bits)
        return bad if len(calls) == 3 else (1, 2)

    with pytest.raises((MissingValue, TypeError)):
        recover_coefficient(scheme, f)
    assert calls == [pt.bits for pt, _, _ in scheme.atoms[:3]]


@pytest.mark.parametrize("shape", _SCHEME_SHAPES)
def test_recover_tuples_lists_and_generators_agree(shape):
    # tuples of ints and Fractions are summed as they are; lists and
    # generators are converted atom by atom
    scheme = build_scheme(*shape)
    rng = random.Random(len(scheme.atoms))
    rationals = {
        pt.bits: (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7])))
        for pt, _, _ in scheme.atoms
    }
    ints = {bits: (p, 5 * p - 1) for bits, (p, _) in rationals.items()}
    for values in (ints, rationals):
        want = _fraction_sum_oracle(scheme, lambda pt: values[pt.bits])
        assert recover_coefficient(scheme, lambda pt: values[pt.bits]) == want
        assert recover_coefficient(scheme, lambda pt: list(values[pt.bits])) == want
        assert recover_coefficient(scheme, lambda pt: iter(values[pt.bits])) == want
        mixed = lambda pt: list(values[pt.bits]) if pt.bits & 1 else values[pt.bits]
        assert recover_coefficient(scheme, mixed) == want


def _distinct_rationals(scheme):
    """A different (int, Fraction) pair at every atom point, as lists."""
    return {pt.bits: [pt.bits % 11 - 5, Fraction(pt.bits % 7 - 3, 1 + pt.bits % 4)] for pt in scheme._points}


@pytest.mark.parametrize("shape", _SCHEME_SHAPES + [(14, 4, 3, (4, 8, 12))])
def test_recover_fresh_tuples_that_die_after_each_call(shape):
    # Each call builds a new tuple that nothing else holds, so CPython hands
    # the next one the same memory: the id of a freed value is reused.
    scheme = build_scheme(*shape)
    values = _distinct_rationals(scheme)
    f = lambda pt: tuple(values[pt.bits])
    assert recover_coefficient(scheme, f) == _fraction_sum_oracle(scheme, f)


@pytest.mark.parametrize("shape", _SCHEME_SHAPES)
def test_recover_reads_a_mutated_list_at_every_call(shape):
    scheme = build_scheme(*shape)
    values = _distinct_rationals(scheme)
    buffer = [0, 0]

    def f(pt):
        buffer[:] = values[pt.bits]
        return buffer

    assert recover_coefficient(scheme, f) == _fraction_sum_oracle(scheme, lambda pt: values[pt.bits])


@pytest.mark.parametrize("shape", _SCHEME_SHAPES + [(1, 2, 0, ())])
def test_recover_the_same_tuple_at_every_atom(shape):
    scheme = build_scheme(*shape)
    value = (3, Fraction(-7, 2), 2**70)
    calls = []

    def f(pt):
        calls.append(pt.bits)
        return value

    got = recover_coefficient(scheme, f)
    assert calls == [pt.bits for pt in scheme._points]
    assert got == _fraction_sum_oracle(scheme, f)
    # the signed weights sum to 0 when d >= 1 and to 1 when d = 0
    assert got == (value if scheme.d == 0 else (0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SCHEME_SHAPES),
    st.lists(
        st.tuples(st.integers(-(2**70), 2**70), st.fractions(max_denominator=10**20)), min_size=1, max_size=4
    ),
    st.data(),
)
def test_recover_shared_tuples_mixed_with_lists_and_generators(shape, pool, data):
    # Each atom reads one pool entry in one form: the shared tuple itself, a
    # fresh tuple, a list or a generator.
    scheme = build_scheme(*shape)
    forms = {
        "shared": lambda v: v,
        "fresh": lambda v: tuple(list(v)),
        "list": list,
        "generator": lambda v: (x for x in v),
    }
    choice = {
        pt.bits: (data.draw(st.sampled_from(sorted(forms))), data.draw(st.integers(0, len(pool) - 1)))
        for pt in scheme._points
    }
    calls = []

    def f(pt):
        calls.append(pt.bits)
        form, i = choice[pt.bits]
        return forms[form](pool[i])

    assert recover_coefficient(scheme, f) == _fraction_sum_oracle(scheme, lambda pt: pool[choice[pt.bits][1]])
    assert calls == [pt.bits for pt in scheme._points]


def test_atom_count_matches_build_scheme():
    from skewcube.interpolation import atom_count

    for n, m, d in [(1, 2, 0), (3, 2, 1), (7, 2, 3), (6, 4, 1), (14, 4, 3), (15, 6, 2), (12, 8, 1)]:
        subset = tuple(range(1, d + 1))
        assert len(build_scheme(n, m, d, subset).atoms) == atom_count(m, d), (n, m, d)


def test_recovery_cap_counts_atoms_times_width(monkeypatch):
    from skewcube import interpolation
    from skewcube.errors import DimensionTooLarge
    from skewcube.interpolation import MAX_RECOVERY_CELLS, check_recovery_size

    # (m=4, d=3) has 512 atoms, so n + k may reach 2^20 / 512 = 2048
    check_recovery_size(40, 2, 4, (4, 8, 12))
    check_recovery_size(2046, 2, 4, (4, 8, 12))
    check_recovery_size(MAX_RECOVERY_CELLS - 1, 1, 2, ())
    for n, k, m, subset in [
        (2047, 2, 4, (4, 8, 12)),
        (MAX_RECOVERY_CELLS, 1, 2, ()),
        (10**30, 1, 2, (1,)),
        (5, 10**8, 2, (1,)),
    ]:
        with pytest.raises(DimensionTooLarge):
            check_recovery_size(n, k, m, subset)
    # the layout's own preconditions come first, as build_scheme reports them
    with pytest.raises(BadModulus):
        check_recovery_size(10**30, 1, 3, (1,))
    with pytest.raises(BadSubsetSize):
        check_recovery_size(10**30, 1, 2, (0,))

    def no_comb(*args):
        raise AssertionError("binomial of a huge modulus computed")

    # a modulus above half the cap is refused without C(m - 1, m / 2)
    monkeypatch.setattr(interpolation.math, "comb", no_comb)
    with pytest.raises(DimensionTooLarge):
        check_recovery_size(10**30, 1, 2 * 10**20, (1,))
