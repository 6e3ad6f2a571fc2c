"""Riordan matrices: materialization, group law, A/B-sequences, factorization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riordan import (
    EXPONENTIAL,
    FactorizationError,
    NoBSequenceError,
    ORDINARY,
    ParamPoly,
    RiordanMatrix,
    Series,
    catalan,
    exp_series,
    from_a_sequence,
    from_b_sequence,
    geometric,
    one_series,
    rna_series,
    x_series,
)
from conftest import (
    S,
    a_sequence_oracle,
    b_sequence_oracle,
    from_b_sequence_oracle,
    inverse_oracle,
    is_pseudo_involution_oracle,
    is_pseudo_involution_product_oracle,
    ring_series,
    riordan_triangle_oracle,
    rows_of,
    sqrt_factorization_oracle,
)
from riordan._backend import kernels

F = Fraction

# Row fixtures reproduced entry-by-entry by independent hand computation
# of column generating functions f*(xg)^m.
RNA_ROWS = [
    [1],
    [1, 1],
    [1, 2, 1],
    [2, 3, 3, 1],
    [4, 6, 6, 4, 1],
    [8, 13, 13, 10, 5, 1],
    [17, 28, 30, 24, 15, 6, 1],
]

PASCAL_ROWS = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 3, 3, 1],
    [1, 4, 6, 4, 1],
    [1, 5, 10, 10, 5, 1],
]


def pascal(order=6):
    return RiordanMatrix(geometric(order), geometric(order))


class TestMaterialization:
    def test_pascal_rows(self):
        assert rows_of(pascal().triangle()) == PASCAL_ROWS

    def test_rna_rows(self):
        r = rna_series(7)
        tri = RiordanMatrix(r, r).triangle()
        assert rows_of(tri) == RNA_ROWS

    def test_columns_are_f_times_xg_powers(self):
        m = RiordanMatrix(catalan(8), catalan(8))
        tri = m.triangle()
        w = m.xg()
        for j in range(4):
            assert tri.column(j) == m.f * w ** j

    def test_identity_matrix(self):
        ident = RiordanMatrix.identity(5)
        assert rows_of(ident.triangle()) == rows_of(
            RiordanMatrix.identity(5).triangle()
        )
        assert ident.triangle().entry(3, 3) == 1
        assert ident.triangle().entry(3, 1) == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            RiordanMatrix(geometric(4), geometric(4), kind="fancy")

    def test_scalar_inputs_need_order(self):
        m = RiordanMatrix(1, catalan(6))
        assert m.order == 6
        with pytest.raises(ValueError, match="explicit order"):
            RiordanMatrix(1, 1)

    def test_exponential_pascal(self):
        # With f = e^x, g = 1 the exponential rows are plain binomials.
        m = RiordanMatrix(exp_series(6), one_series(6), kind=EXPONENTIAL)
        assert rows_of(m.triangle()) == PASCAL_ROWS

    def test_exponential_lah(self):
        # (1, x/(1-x)) with factorial scaling: entries binom(n-1,m-1) n!/m!.
        m = RiordanMatrix(one_series(5), geometric(5), kind=EXPONENTIAL)
        assert rows_of(m.triangle()) == [
            [1],
            [0, 1],
            [0, 2, 1],
            [0, 6, 6, 1],
            [0, 24, 36, 12, 1],
        ]

    def test_to_exponential_scaling(self):
        m = pascal()
        e = m.to_exponential()
        tri, etri = m.triangle(), e.triangle()
        from math import factorial

        for n in range(m.order):
            for j in range(n + 1):
                assert etri.entry(n, j) == tri.entry(n, j) * F(
                    factorial(n), factorial(j)
                )
        with pytest.raises(ValueError, match="already exponential"):
            e.to_exponential()


class TestGroupLaw:
    def test_multiply_matches_matmul(self):
        a = RiordanMatrix(catalan(7), catalan(7))
        b = pascal(7)
        prod = a * b
        assert prod.triangle() == a.triangle().matmul(b.triangle())

    def test_pascal_square(self):
        # P^2 = (1/(1-2x), x/(1-2x)).
        sq = pascal() * pascal()
        two = 1 / S([1, -2], 6)
        assert sq.f == two and sq.g == two

    def test_inverse_round_trip(self):
        m = RiordanMatrix(catalan(8), catalan(8))
        prod = m * m.inverse()
        ident = RiordanMatrix.identity(8)
        assert prod.f == ident.f and prod.g == ident.g

    def test_catalan_inverse_closed_form(self):
        # (C, xC)^(-1) = (1-x, x(1-x)).
        inv = RiordanMatrix(catalan(8), catalan(8)).inverse()
        assert inv.f == S([1, -1], 8)
        assert inv.g == S([1, -1], 8)

    @pytest.mark.parametrize(
        "f, g, name", [([1, 1], [0, 1], "g"), ([0, 1], [1, 1], "f")]
    )
    def test_inverse_names_a_zero_constant_term(self, f, g, name):
        with pytest.raises(ValueError, match=rf"^the inverse needs {name}\(0\) != 0$"):
            RiordanMatrix(S(f, 6), S(g, 6)).inverse()

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different kinds"):
            pascal() * pascal().to_exponential()

    def test_apply_binomial_transform(self):
        # P applied to (1,1,1,...) doubles: coefficients 2^n.
        out = pascal(8).triangle().apply_vec(list(geometric(8).coeffs))
        assert out == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_apply_is_f_times_composition(self):
        # the fundamental theorem: M a = f * a(xg)
        m = RiordanMatrix(catalan(8), catalan(8))
        a = S([1, 3, 0, 5], 8)
        out = m.triangle().apply_vec(list(a.coeffs))
        assert S(out, 8) == m.f * a.compose(m.xg())

    def test_equality(self):
        assert pascal() == pascal()
        assert pascal() != RiordanMatrix(geometric(6), catalan(6))
        assert pascal() != pascal().to_exponential()


class TestASequence:
    def test_pascal_a_sequence(self):
        # Row rule of the binomial triangle: entry = left + up-left.
        a = pascal(8).a_sequence()
        assert list(a.coeffs) == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_catalan_a_sequence(self):
        # The Catalan triangle rule sums the whole previous row tail.
        a = RiordanMatrix(catalan(8), catalan(8)).a_sequence()
        assert a == geometric(8)

    def test_from_a_sequence_round_trip(self):
        for coeffs in ([1, 1], [1, 1, 1], [1, 2, 0, 1], [2, 1]):
            m = from_a_sequence(coeffs, 10)
            got = m.a_sequence()
            want = S(coeffs, 10)
            assert got == want

    def test_from_a_sequence_quadratic_closed_form(self):
        # A = 1 + a1 x + a2 x^2 forces
        # g = (1 - a1 x - sqrt((1 - a1 x)^2 - 4 a2 x^2)) / (2 a2 x^2).
        for a1, a2 in ((1, 1), (2, 1), (1, 3)):
            order = 10
            m = from_a_sequence([1, a1, a2], order)
            lin = S([1, -a1], order + 2)
            disc = (lin * lin - Series([0, 0, 4 * a2], order + 2)).sqrt()
            closed = (lin - disc).shift_down(2) / (2 * a2)
            assert m.g == closed

    def test_motzkin_from_a_sequence(self):
        m = from_a_sequence([1, 1, 1], 8)
        assert list(m.g.coeffs) == [1, 1, 2, 4, 9, 21, 51, 127]

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="nonzero constant term"):
            from_a_sequence([0, 1], 6)

    def test_rule_rebuilds_triangle_rows(self):
        # d(n+1, m+1) = sum_i a_i d(n, m+i), checked on the whole window.
        m = RiordanMatrix(catalan(9), catalan(9))
        tri = m.triangle()
        a = m.a_sequence()
        for n in range(tri.nrows - 1):
            for j in range(n + 1):
                acc = sum(
                    (a[i] * tri.entry(n, j + i) for i in range(n - j + 1)),
                    F(0),
                )
                assert tri.entry(n + 1, j + 1) == acc


class TestPseudoInvolution:
    def test_positive_cases(self):
        assert pascal(8).is_pseudo_involution()
        r = rna_series(8)
        assert RiordanMatrix(r, r).is_pseudo_involution()
        assert RiordanMatrix(one_series(8), r).is_pseudo_involution()

    def test_negative_cases(self):
        assert not RiordanMatrix(catalan(8), catalan(8)).is_pseudo_involution()
        m = from_a_sequence([1, 1, 1], 8)  # Motzkin Lagrange matrix
        assert not m.is_pseudo_involution()

    def test_singular_input_is_not_pseudo_involution(self):
        r = rna_series(8)
        assert not RiordanMatrix(x_series(8), r).is_pseudo_involution()
        assert not RiordanMatrix(r, x_series(8)).is_pseudo_involution()

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_b_solver_output_is_always_pseudo_involution(self, bs):
        m = from_b_sequence(bs, 9, bell=True)
        assert m.is_pseudo_involution()


class TestBSequence:
    def test_pascal_b_is_one(self):
        b = pascal(9).b_sequence()
        assert list(b.coeffs) == [1, 0, 0, 0]

    def test_rna_b_is_all_ones(self):
        r = rna_series(11)
        b = RiordanMatrix(r, r).b_sequence()
        assert all(c == 1 for c in b.coeffs)
        assert b.order == 5

    def test_lagrange_shape_same_b(self):
        r = rna_series(11)
        b = RiordanMatrix(one_series(11), r).b_sequence()
        assert all(c == 1 for c in b.coeffs)

    def test_from_b_sequence_solves_equation(self):
        for bs in ([1, 1], [1, 2, 0, 1], [3, 1], [2]):
            order = 12
            m = from_b_sequence(bs, order, bell=True)
            g = m.g
            bpad = S(bs, order)
            x = x_series(order)
            x2 = x * x
            assert g == 1 + x * g * bpad.compose(x2 * g)

    def test_b_round_trip(self):
        for bs in ([1, 1], [1, 2, 0, 1], [3, 1], [5, 5, 1]):
            m = from_b_sequence(bs, 14, bell=True)
            got = m.b_sequence()
            want = S(bs, got.order)
            assert got == want

    def test_quadratic_b_closed_form(self):
        # B = b0 + b1 x forces
        # g = (1 - b0 x - sqrt((1 - b0 x)^2 - 4 b1 x^3)) / (2 b1 x^3).
        for b0, b1 in ((1, 1), (2, 1), (1, 2)):
            order = 12
            m = from_b_sequence([b0, b1], order, bell=True)
            lin = S([1, -b0], order + 3)
            disc = (lin * lin - Series([0, 0, 0, 4 * b1], order + 3)).sqrt()
            closed = (lin - disc).shift_down(3) / (2 * b1)
            assert m.g == closed

    def test_non_pseudo_involution_rejected(self):
        with pytest.raises(NoBSequenceError, match="not a pseudo-involution"):
            RiordanMatrix(catalan(8), catalan(8)).b_sequence()

    def test_nonunit_constant_rejected(self):
        two = S([2], 6) + x_series(6)
        with pytest.raises(NoBSequenceError, match="constant term 1"):
            RiordanMatrix(two, two).b_sequence()

    def test_order_one_rejected(self):
        with pytest.raises(NoBSequenceError, match="needs order at least 2"):
            pascal(1).b_sequence()

    def test_exponential_kind_rejected(self):
        m = pascal().to_exponential()
        with pytest.raises(ValueError, match="ordinary"):
            m.b_sequence()

    def test_defining_recurrence_holds_on_triangle(self):
        # d(n+1, m) = d(n, m-1) + sum_i b_i d(n-i, m+i).
        r = rna_series(10)
        m = RiordanMatrix(r, r)
        tri = m.triangle()
        b = m.b_sequence()
        for n in range(tri.nrows - 1):
            for j in range(n + 2):
                acc = tri.entry(n, j - 1) if j >= 1 else F(0)
                for i in range(len(b)):
                    if n - i < j + i:
                        break
                    acc += b[i] * tri.entry(n - i, j + i)
                assert tri.entry(n + 1, j) == acc


def _outcome(call):
    """A result as comparable data: (order, coeffs) of a series, a bool,
    or (exception type, message)."""
    try:
        r = call()
    except Exception as exc:  # type and message are both compared
        return type(exc), str(exc)
    return (r.order, r.coeffs) if isinstance(r, Series) else r


def _singular(outcome):
    """Whether the oracle's group inverse refused a zero f(0) or g(0)."""
    return outcome in (
        (ValueError, "the inverse needs f(0) != 0"),
        (ValueError, "the inverse needs g(0) != 0"),
    )


def _pair(m):
    return (m.f.order, m.f.coeffs, m.g.order, m.g.coeffs)


B_ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=3)
B_LISTS = st.lists(B_ENTRIES, min_size=1, max_size=5)
ORDERS = range(1, 15)


class TestDefiningIdentityOracles:
    """Exact agreement with the definitions the identity-based routines
    replaced (see ``conftest``).  The only divergences allowed: where
    the oracle's inverse meets a zero constant term the new code reports
    a non-pseudo-involution, and at order 1 ``b_sequence`` names the
    order instead of failing to build an empty series."""

    @pytest.mark.parametrize("order", ORDERS)
    @given(bs=B_LISTS, bell=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_from_b_sequence(self, order, bs, bell):
        got = from_b_sequence(Series(bs), order, bell=bell)
        want = from_b_sequence_oracle(Series(bs), order, bell=bell)
        assert _pair(got) == _pair(want)

    @pytest.mark.parametrize("order", [1, 2, 7, 8])
    def test_from_b_sequence_param_poly(self, order):
        phi = ParamPoly.param("phi")
        b = Series([phi, F(1, 2), -phi], 3)
        assert _pair(from_b_sequence(b, order, bell=True)) == _pair(
            from_b_sequence_oracle(b, order, bell=True)
        )

    @pytest.mark.parametrize("order", ORDERS)
    @given(
        bs=B_LISTS,
        shape=st.sampled_from(["bell", "one", "square", "reciprocal"]),
        perturb=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["f", "g"]),
                st.integers(0, 13),
                st.sampled_from([-1, F(1, 2), 1, 3]),
            ),
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_pseudo_involution_and_b_sequence(self, order, bs, shape, perturb):
        g = from_b_sequence_oracle(Series(bs), order).g
        f = {
            "bell": g,
            "one": one_series(order),
            "square": g * g,
            "reciprocal": 1 / g,
        }[shape]
        if perturb is not None:
            which, k, c = perturb
            bump = Series([0] * (k % order) + [c], order)
            if which == "f":
                f = f + bump
            else:
                g = g + bump
        m = RiordanMatrix(f, g)

        want = _outcome(lambda: is_pseudo_involution_oracle(m))
        got = _outcome(m.is_pseudo_involution)
        if _singular(want):
            want = False
        assert got == want

        want = _outcome(lambda: b_sequence_oracle(m))
        got = _outcome(m.b_sequence)
        if _singular(want):
            want = (
                NoBSequenceError,
                "no consistent B-sequence: the matrix is not a "
                f"pseudo-involution to order {order}",
            )
        elif want == (ValueError, "series order must be at least 1"):
            want = (
                NoBSequenceError,
                "no consistent B-sequence: a B-sequence needs order at "
                "least 2",
            )
        assert got == want


COEFF_LISTS = st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)), max_size=14)


class TestTriangleOracle:
    @given(
        f=COEFF_LISTS,
        g=COEFF_LISTS,
        order=st.integers(1, 14),
        kind=st.sampled_from([ORDINARY, EXPONENTIAL]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_row_loop(self, f, g, order, kind):
        m = RiordanMatrix(Series(f, order), Series(g, order), kind=kind)
        assert m.triangle().rows == riordan_triangle_oracle(m).rows


class TestSqrtFactorization:
    def test_double_geometric(self):
        # g = 1/(1-2x) splits with h = x + sqrt(1+x^2), an odd s = x.
        order = 12
        g = 1 / S([1, -2], order)
        h, s = RiordanMatrix(one_series(order), g).sqrt_factorization()
        assert s == x_series(order)
        assert h == x_series(order) + Series([1, 0, 1], order).sqrt()

    def test_scaled_geometric(self):
        # g = 1/(1-4x): same shape with s = 2x.
        order = 12
        g = 1 / S([1, -4], order)
        h, s = RiordanMatrix(one_series(order), g).sqrt_factorization()
        assert s == 2 * x_series(order)

    def test_schroeder_square(self):
        # g the square of the large Schroeder series: h = (1+x)/(1-x).
        order = 12
        disc = Series([1, -6, 1], order + 2).sqrt()
        schroeder = (Series([1, -1], order + 2) - disc).shift_down(1) / 2
        g = (schroeder * schroeder).truncate(order)
        h, s = RiordanMatrix(one_series(order), g).sqrt_factorization()
        assert h == S([1, 1], order) / S([1, -1], order)
        assert s == 2 * x_series(order) / S([1, 0, -1], order)

    def test_product_reassembles(self):
        # (1, x sqrt(g)) (1, x h) multiplies back to (1, x g).
        order = 12
        r = rna_series(order)
        m = RiordanMatrix(one_series(order), r)
        h, s = m.sqrt_factorization()
        left = RiordanMatrix(one_series(order), r.sqrt())
        right = RiordanMatrix(one_series(order), h)
        assert left * right == m

    def test_h_defines_s(self):
        order = 12
        r = rna_series(order)
        h, s = RiordanMatrix(one_series(order), r).sqrt_factorization()
        assert s == (h - 1 / h) / 2
        assert h == s + (s * s + 1).sqrt()

    def test_requires_unit_f(self):
        r = rna_series(8)
        with pytest.raises(FactorizationError, match="first component"):
            RiordanMatrix(r, r).sqrt_factorization()

    def test_requires_pseudo_involution(self):
        with pytest.raises(FactorizationError, match="pseudo-involution"):
            RiordanMatrix(one_series(8), catalan(8)).sqrt_factorization()


def _typed_outcome(call):
    """A result as comparable data: the order and (type, value)
    coefficients of each series in it, or (exception type, message)."""
    try:
        r = call()
    except Exception as exc:  # type and message are both compared
        return type(exc), str(exc)
    if isinstance(r, RiordanMatrix):
        r = (r.f, r.g, r.kind)
    elif isinstance(r, Series):
        r = (r,)
    return [(s.order, [(type(c), c) for c in s.coeffs]) if isinstance(s, Series) else s
            for s in r]


@st.composite
def identity_f(draw, g):
    """f == 1, f == g, or an f != g from ``ring_series``."""
    shape = draw(st.sampled_from(["one", "bell", "other"]))
    if shape == "one":
        return one_series(g.order)
    if shape == "bell":
        return g
    return draw(ring_series(g.order, head=draw(st.sampled_from([1, -2, 3]))))


def _param_g(b, order):
    """g^[phi] from ``from_b_sequence(phi B)``: ``ParamPoly`` coefficients."""
    phi = ParamPoly.param()
    return from_b_sequence(Series([phi * c for c in b]), order).g


class TestReversionIdentities:
    """``inverse``, ``a_sequence`` and ``sqrt_factorization`` read
    u(w) = x/w off w = revert(x u) instead of composing; each equals its
    former body in ``conftest`` exactly: values, coefficient types and
    order, or the same exception."""

    @staticmethod
    def _same_as_oracles(m):
        assert _typed_outcome(m.inverse) == _typed_outcome(lambda: inverse_oracle(m))
        assert _typed_outcome(m.a_sequence) == _typed_outcome(lambda: a_sequence_oracle(m))
        got = _typed_outcome(m.sqrt_factorization)
        assert got == _typed_outcome(lambda: sqrt_factorization_oracle(m))

    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=200, deadline=None)
    def test_rational_rings(self, data, order):
        g = data.draw(ring_series(order, head=data.draw(st.sampled_from([1, -2, 3, 0]))))
        kind = data.draw(st.sampled_from([ORDINARY, EXPONENTIAL]))
        self._same_as_oracles(RiordanMatrix(data.draw(identity_f(g)), g, kind))

    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_rational_pseudo_involutions(self, data, order):
        b = data.draw(ring_series(data.draw(st.integers(1, 5))))
        g = from_b_sequence(b, order).g
        self._same_as_oracles(RiordanMatrix(data.draw(identity_f(g)), g))

    @given(data=st.data(), order=st.integers(1, 12), b=B_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_param_poly(self, data, order, b):
        g = _param_g(b, order)
        self._same_as_oracles(RiordanMatrix(data.draw(identity_f(g)), g))

    def test_param_poly_order_24(self):
        g = _param_g([1], 24)
        for f in (one_series(24), g, S([1, F(1, 2), 3], 24)):
            self._same_as_oracles(RiordanMatrix(f, g))

    def test_makes_no_compose_call(self, monkeypatch):
        # on (1, xg) is_pseudo_involution calls inverse, which composes
        # f = 1, so it is answered up front
        pairs = [
            RiordanMatrix(one_series(24), rna_series(24)),
            RiordanMatrix(one_series(24), from_b_sequence(S([1, F(1, 3), -2]), 24).g),
            RiordanMatrix(one_series(24), 1 / S([1, -3], 24)),
        ]
        assert all(m.is_pseudo_involution() for m in pairs)
        g = 1 / S([1, F(-1, 1000)], 24)
        bell = RiordanMatrix(g, g)
        want = [_typed_outcome(lambda: sqrt_factorization_oracle(m)) for m in pairs]
        want_a = [_typed_outcome(lambda: a_sequence_oracle(m)) for m in pairs + [bell]]
        want_inv = _typed_outcome(lambda: inverse_oracle(bell))
        assert all(isinstance(w, list) for w in want + want_a + [want_inv])  # none raised

        def refuse(*args, **kwargs):
            raise AssertionError("compose called")

        monkeypatch.setattr(kernels, "compose", refuse)
        monkeypatch.setattr(RiordanMatrix, "is_pseudo_involution", lambda self: True)
        assert [_typed_outcome(m.sqrt_factorization) for m in pairs] == want
        assert [_typed_outcome(m.a_sequence) for m in pairs + [bell]] == want_a
        assert _typed_outcome(bell.inverse) == want_inv


class TestPseudoInvolutionByInverse:
    """``is_pseudo_involution`` checks the diagonal f(0)^2 = g(0)^2 = 1
    of M (D M D), then compares M^-1 from ``inverse`` with D M D.  It
    equals its former two-compose body exactly, and the group-inverse
    oracle wherever that oracle's inverse exists."""

    @staticmethod
    def _same_as_oracles(m):
        got = _outcome(m.is_pseudo_involution)
        assert got == _outcome(lambda: is_pseudo_involution_product_oracle(m))
        want = _outcome(lambda: is_pseudo_involution_oracle(m))
        assert got == (False if _singular(want) else want)
        return got

    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=200, deadline=None)
    def test_rational_rings(self, data, order):
        g = data.draw(ring_series(order, head=data.draw(st.sampled_from([1, -1, 2, 0]))))
        f = data.draw(st.one_of(identity_f(g), ring_series(order, head=0)))
        kind = data.draw(st.sampled_from([ORDINARY, EXPONENTIAL]))
        self._same_as_oracles(RiordanMatrix(f, g, kind))

    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_rational_pseudo_involutions(self, data, order):
        b = data.draw(ring_series(data.draw(st.integers(1, 5))))
        g = from_b_sequence(b, order).g
        f = data.draw(identity_f(g))
        kind = data.draw(st.sampled_from([ORDINARY, EXPONENTIAL]))
        got = self._same_as_oracles(RiordanMatrix(f, g, kind))
        if f == g or f == one_series(order):
            assert got is True

    @given(data=st.data(), order=st.integers(1, 12), b=B_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_param_poly(self, data, order, b):
        g = _param_g(b, order)
        self._same_as_oracles(RiordanMatrix(data.draw(identity_f(g)), g))

    def test_param_poly_order_24(self):
        g = _param_g([1], 24)
        for f in (one_series(24), g, S([1, F(1, 2), 3], 24)):
            self._same_as_oracles(RiordanMatrix(f, g))

    @pytest.mark.parametrize("which", ["f", "g", "both"])
    def test_param_poly_constant_term(self, which):
        # f(0) or g(0) = phi: the diagonal phi^2 is not 1, and the group
        # inverse (which would divide by phi) is never formed
        r = rna_series(8)
        phi_head = Series([ParamPoly.param()] + list(r.coeffs[1:]), 8)
        f, g = {"f": (phi_head, r), "g": (r, phi_head), "both": (phi_head, phi_head)}[which]
        m = RiordanMatrix(f, g)
        assert m.is_pseudo_involution() is False
        assert is_pseudo_involution_product_oracle(m) is False

    def test_bell_pair_makes_no_compose_call(self, monkeypatch):
        bells = [
            RiordanMatrix(g, g)
            for g in (
                rna_series(24),
                from_b_sequence(S([1, F(1, 3), -2]), 24).g,
                1 / S([1, -3], 24),
                catalan(24),
            )
        ]
        want = [is_pseudo_involution_product_oracle(m) for m in bells]
        assert want == [True, True, True, False]
        want_b = [_outcome(lambda: b_sequence_oracle(m)) for m in bells]

        def refuse(*args, **kwargs):
            raise AssertionError("compose called")

        monkeypatch.setattr(kernels, "compose", refuse)
        assert [m.is_pseudo_involution() for m in bells] == want
        assert [_outcome(m.b_sequence) for m in bells] == want_b

    def test_bell_product_composes_once(self, monkeypatch):
        calls = []
        compose = kernels.compose

        def counted(*args, **kwargs):
            calls.append(args)
            return compose(*args, **kwargs)

        monkeypatch.setattr(kernels, "compose", counted)
        gs = [rna_series(12), catalan(12), 1 / S([1, -3], 12), S([1, F(1, 2), -2, 3], 12)]
        for a in gs:
            for b in gs:
                for kind in (ORDINARY, EXPONENTIAL):
                    left, right = RiordanMatrix(a, a, kind), RiordanMatrix(b, b, kind)
                    calls.clear()
                    prod = left * right
                    assert len(calls) == 1
                    assert prod.f == prod.g
                    assert prod.triangle() == left.triangle().matmul(right.triangle())

    @given(data=st.data(), order=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_products_match_matmul(self, data, order):
        kind = data.draw(st.sampled_from([ORDINARY, EXPONENTIAL]))
        heads = st.sampled_from([1, -2, 3])
        gs = [data.draw(ring_series(order, head=data.draw(heads))) for _ in range(2)]
        left, right = [RiordanMatrix(data.draw(identity_f(g)), g, kind) for g in gs]
        assert (left * right).triangle() == left.triangle().matmul(right.triangle())


class TestOddPowerFamilies:
    """(1, x B_{m+1}(x)^{2m+1}) has B-sequence b_i = row m of a fixed
    square array; h is an odd power of (x + sqrt(x^2+4))/2."""

    ODD_ROWS = {1: [3, 1], 2: [5, 5, 1], 3: [7, 14, 7, 1]}

    @staticmethod
    def _blocked(m, order):
        # B_{m+1}(x)^(2m+1) via the defining relation B_r = 1 + x B_r^r.
        from riordan import binomial_series

        return binomial_series(m + 1, order).pow_rat(2 * m + 1)

    def test_b_sequences(self):
        for m, row in self.ODD_ROWS.items():
            order = 14
            g = self._blocked(m, order)
            b = RiordanMatrix(one_series(order), g).b_sequence()
            assert b == S(row, b.order)

    def test_square_array_rows(self):
        # The array housing those rows: ((1+x)/(1-x)^2, x/(1-x)^2).
        order = 4
        gm = geometric(order)
        sq = gm * gm
        m = RiordanMatrix(S([1, 1], order) * sq, sq)
        assert rows_of(m.triangle()) == [
            [1],
            [3, 1],
            [5, 5, 1],
            [7, 14, 7, 1],
        ]

    def test_h_closed_form(self):
        # h for the m-th family equals ((x + sqrt(x^2+4))/2)^(2m+1).
        order = 12
        half = x_series(order) / 2 + Series([1, 0, F(1, 4)], order).sqrt()
        for m in (1, 2):
            g = self._blocked(m, order)
            h, _ = RiordanMatrix(one_series(order), g).sqrt_factorization()
            assert h == half ** (2 * m + 1)

    def test_even_aeration_fixtures(self):
        # Companion displays with aerated columns.
        order = 6
        gm2 = 1 / S([1, 0, -1], order)  # 1/(1-x^2)
        first = RiordanMatrix(S([1, 0, 1], order) * gm2, gm2)
        assert rows_of(first.triangle()) == [
            [1],
            [0, 1],
            [2, 0, 1],
            [0, 3, 0, 1],
            [2, 0, 4, 0, 1],
            [0, 5, 0, 5, 0, 1],
        ]
        second = RiordanMatrix(gm2, gm2)
        assert rows_of(second.triangle()) == [
            [1],
            [0, 1],
            [1, 0, 1],
            [0, 2, 0, 1],
            [1, 0, 3, 0, 1],
            [0, 3, 0, 4, 0, 1],
        ]
