import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree
from relbound.bootstrap import dbpt_lcl
from relbound.distributions import WEIBULL, ComponentModel, sample_lifetimes
from relbound.errors import StructureError, StructureParseError
from relbound.structures import (
    MAX_DEPTH,
    ComponentRef,
    KOutOfN,
    Parallel,
    Series,
    eval_reliability,
    eval_reliability_bruteforce,
    eval_structure,
    num_components,
    parse_structure,
    scratch_rows,
    structure_partials,
)


def _reference(node, r):
    """The structure function by plain ``*``, ``+`` and ``-`` on fresh values.

    The evaluator's steps in the same order, so its results must equal this
    bit for bit.
    """
    if isinstance(node, ComponentRef):
        return r[node.index]
    vals = [_reference(child, r) for child in node.children]
    if isinstance(node, Series):
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    if isinstance(node, Parallel):
        out = 1.0 - vals[0]
        for v in vals[1:]:
            out = out * (1.0 - v)
        return 1.0 - out
    dp = [1.0] + [None] * len(vals)
    for i, v in enumerate(vals):
        fail = 1.0 - v
        dp[i + 1] = dp[i] * v
        for j in range(i, 0, -1):
            dp[j] = dp[j] * fail + dp[j - 1] * v
        dp[0] = dp[0] * fail
    out = dp[node.k]
    for p in dp[node.k + 1:]:
        out = out + p
    return out


def _leftmost(node) -> int:
    while not isinstance(node, ComponentRef):
        node = node.children[0]
    return node.index


def _values(rng, s, shape):
    """``s`` float arrays of ``shape``, about one value in ten exactly 0 or 1."""
    return [np.where(rng.random(shape) < 0.1, rng.integers(0, 2, shape), rng.random(shape))
            for _ in range(s)]


class TestParse:
    def test_series(self):
        node = parse_structure("series(c1,c2,c3)")
        assert node == Series((ComponentRef(0), ComponentRef(1), ComponentRef(2)))

    def test_nested_parallel_of_series(self):
        node = parse_structure("parallel(series(c1,c2),series(c3,c4))")
        assert node == Parallel((
            Series((ComponentRef(0), ComponentRef(1))),
            Series((ComponentRef(2), ComponentRef(3))),
        ))

    def test_koutofn_with_ellipsis(self):
        node = parse_structure("koutofn(9; c1,...,c16)")
        assert isinstance(node, KOutOfN)
        assert node.k == 9
        assert node.children == tuple(ComponentRef(i) for i in range(16))

    def test_whitespace_insensitive(self):
        a = parse_structure("series( c1 , c2 )")
        b = parse_structure("series(c1,c2)")
        assert a == b

    def test_same_text_same_tree(self):
        text = "koutofn(2; c1, parallel(c2, c3), c4)"
        assert parse_structure(text) == parse_structure(text)

    @pytest.mark.parametrize("text", [
        "series(c1,c2",          # missing close paren
        "series(c1,,c2)",        # double comma
        "serie(c1)",             # unknown token
        "series(c1) c2",         # trailing input
        "koutofn(2 c1,c2)",      # missing semicolon
    ])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert "position" in str(err.value)

    def test_k_out_of_range(self):
        with pytest.raises(StructureParseError):
            parse_structure("koutofn(4; c1,c2,c3)")
        with pytest.raises(StructureParseError):
            parse_structure("koutofn(0; c1,c2)")

    def test_empty_children(self):
        with pytest.raises(StructureParseError, match="empty children"):
            parse_structure("series()")

    def test_missing_component_id_rejected(self):
        with pytest.raises(StructureError, match="missing"):
            parse_structure("series(c1,c3)")

    def test_ellipsis_needs_component_neighbours(self):
        with pytest.raises(StructureParseError):
            parse_structure("series(...,c2)")
        with pytest.raises(StructureParseError):
            parse_structure("series(c3,...,c1)")

    @pytest.mark.parametrize("text, message, position", [
        ("series(...,c2)", "'...' needs a component on both sides", 7),
        ("series(c1,...)", "'...' needs a component on both sides", 10),
        ("series(c1,...,c3,...)", "'...' needs a component on both sides", 17),
        ("series(c1,...,parallel(c2,c3))", "'...' may only run between component references", 10),
        ("series(c1,...,...,c3)", "'...' may only run between component references", 10),
        ("series(c3,...,c1)", "'...' range must be increasing", 10),
        ("series(c1,...,c1)", "'...' range must be increasing", 10),
        ("series(c0)", "component numbers are 1-based", 7),
        ("sries(c1)", "unknown token 'sries'", 0),
        ("koutofn(1 c1)", "expected ';', found 'c1'", 10),
        ("koutofn(c1)", "expected 'int', found 'c1'", 8),
        ("series c1", "expected '(', found 'c1'", 7),
        ("koutofn(3; c1,c2)", "k=3 out of range for 2 children", 8),
        ("series()", "empty children list", 7),
        ("series(c1 c2)", "expected ',' or ')', found 'c2'", 10),
        ("series(c1) c2", "trailing input 'c2'", 11),
        ("series(c1,c2", "expected ',' or ')', found 'end of input'", 12),
        ("series(", "expected an expression, found 'end of input'", 7),
        ("", "expected an expression, found 'end of input'", 0),
        ("series(c1,$)", "unexpected character '$'", 10),
    ])
    def test_refusal_message_and_position(self, text, message, position):
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert (str(err.value), err.value.position) == (
            f"{message} (at position {position})", position)

    def test_rendered_random_trees_parse_back(self):
        def render(node):
            if isinstance(node, ComponentRef):
                return f"c{node.index + 1}"
            inner = ", ".join(render(child) for child in node.children)
            if isinstance(node, KOutOfN):
                return f"koutofn({node.k}; {inner})"
            return f"{type(node).__name__.lower()}({inner})"

        rng = np.random.default_rng(2024)
        for _ in range(300):
            node = random_tree(rng, int(rng.integers(1, 40)))
            assert parse_structure(render(node)) == node

    @pytest.mark.parametrize("text, top, missing", [
        ("series(c1,c3)", 2, "[1]"),
        ("series(c1,c12)", 11, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
        ("series(c1,c13)", 12, "11 ids, first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
        ("series(c2,c5,c200)", 199, "197 ids, first [0, 2, 3, 5, 6, 7, 8, 9, 10, 11]"),
        ("series(c1,c3000000000)", 2999999999,
         "2999999998 ids, first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    ])
    def test_missing_ids_named_up_to_ten(self, text, top, missing):
        # the check never enumerates a huge id range
        with pytest.raises(StructureError) as err:
            parse_structure(text)
        assert str(err.value) == (f"component ids must cover 0..{top}; missing {missing} "
                                  "(every component must be relevant)")


class TestEval:
    def test_series_product(self):
        node = parse_structure("series(c1,c2,c3)")
        assert eval_reliability(node, [0.9, 0.9, 0.9]) == pytest.approx(0.729, abs=1e-15)

    def test_boundaries(self):
        assert eval_reliability(parse_structure("parallel(c1,c2,c3)"), [0.0, 0.0, 0.0]) == 0.0
        assert eval_reliability(parse_structure("series(c1,c2,c3)"), [1.0, 1.0, 1.0]) == 1.0

    def test_koutofn_symmetric_binomial(self):
        node = parse_structure("koutofn(2; c1,c2,c3)")
        assert eval_reliability(node, [0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_series_parallel_arithmetic(self):
        # {1 - (1-0.9)(1-0.8)} * {1 - (1-0.7)(1-0.6)} = 0.98 * 0.88
        node = parse_structure("series(parallel(c1,c2),parallel(c3,c4))")
        value = eval_reliability_bruteforce(node, [0.9, 0.8, 0.7, 0.6])
        assert value == pytest.approx(0.8624, abs=1e-12)
        assert eval_reliability(node, [0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.8624, abs=1e-12)

    def test_bruteforce_series_pair(self):
        node = parse_structure("series(c1,c2)")
        assert eval_reliability_bruteforce(node, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_array_broadcasting(self):
        node = parse_structure("series(c1,c2)")
        r1 = np.array([0.5, 0.9])
        r2 = np.array([0.5, 0.8])
        out = eval_reliability(node, [r1, r2])
        assert out == pytest.approx([0.25, 0.72])

    def test_rejects_out_of_range(self):
        node = parse_structure("series(c1,c2)")
        with pytest.raises(ValueError):
            eval_reliability(node, [0.5, 1.5])
        with pytest.raises(StructureError):
            eval_reliability(node, [0.5])

    def test_bruteforce_size_cap(self):
        node = KOutOfN(1, tuple(ComponentRef(i) for i in range(21)))
        with pytest.raises(StructureError):
            eval_reliability_bruteforce(node, [0.5] * 21)


class TestAgainstBruteForce:
    def test_random_trees_match(self):
        rng = np.random.default_rng(417)
        for _ in range(300):
            s = int(rng.integers(1, 11))
            node = random_tree(rng, s)
            r = rng.uniform(0.0, 1.0, s)
            fast = eval_reliability(node, r)
            slow = eval_reliability_bruteforce(node, r)
            assert abs(fast - slow) <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 4),
           st.integers(1, 6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_reference_recursion_bit_for_bit(self, seed, s, rows, C):
        # nested series, parallel and k-out-of-n trees on (rows, C) arrays
        rng = np.random.default_rng(seed)
        node = random_tree(rng, s)
        r = _values(rng, s, (rows, C))
        expected = _reference(node, r)
        for scratch in (None, np.empty((scratch_rows(node), rows, C))):
            owned = [v.copy() for v in r]
            result = eval_structure(node, owned, scratch)
            assert result is owned[_leftmost(node)]
            assert result.tobytes() == expected.tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_zero_dimensional_equals_python_floats_bit_for_bit(self, seed, s):
        rng = np.random.default_rng(seed)
        node = random_tree(rng, s)
        r = _values(rng, s, ())
        expected = _reference(node, [float(v) for v in r])
        owned = [np.array(v, dtype=float) for v in r]
        result = eval_structure(node, owned)
        assert result is owned[_leftmost(node)] and result.ndim == 0
        assert result.tobytes() == np.float64(expected).tobytes()
        assert eval_reliability(node, [float(v) for v in r]) == expected

    def test_monotone_in_each_component(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = int(rng.integers(2, 9))
            node = random_tree(rng, s)
            r = rng.uniform(0.05, 0.95, s)
            base = eval_reliability(node, r)
            for i in range(s):
                bumped = r.copy()
                bumped[i] = min(1.0, bumped[i] + 0.03)
                assert eval_reliability(node, bumped) >= base - 1e-14

    def test_duality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = int(rng.integers(1, 8))
            r = rng.uniform(0.0, 1.0, s)
            refs = tuple(ComponentRef(i) for i in range(s))
            par = eval_reliability(Parallel(refs), r)
            ser = eval_reliability(Series(refs), 1.0 - r)
            assert par == pytest.approx(1.0 - ser, abs=1e-12)

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_koutofn_extremes(self, m, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 1.0, m)
        refs = tuple(ComponentRef(i) for i in range(m))
        assert eval_reliability(KOutOfN(1, refs), r) == pytest.approx(
            eval_reliability(Parallel(refs), r), abs=1e-12)
        assert eval_reliability(KOutOfN(m, refs), r) == pytest.approx(
            eval_reliability(Series(refs), r), abs=1e-12)


class TestPartials:
    def test_series_partial(self):
        node = parse_structure("series(c1,c2,c3)")
        partials = structure_partials(node, [0.9, 0.9, 0.9])
        assert partials == pytest.approx([0.81, 0.81, 0.81], abs=1e-15)

    def test_parallel_partial(self):
        node = parse_structure("parallel(c1,c2)")
        assert structure_partials(node, [0.5, 0.5]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        h = 1e-6
        for _ in range(40):
            s = int(rng.integers(2, 9))
            node = random_tree(rng, s)
            r = rng.uniform(0.05, 0.95, s)
            partials = structure_partials(node, r)
            for i in range(s):
                hi = r.copy()
                lo = r.copy()
                hi[i] += h
                lo[i] -= h
                fd = (eval_reliability(node, hi) - eval_reliability(node, lo)) / (2 * h)
                assert partials[i] == pytest.approx(fd, abs=1e-6)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_grid_equals_scalar_calls_bit_for_bit(self, seed, s, G):
        # each scalar call is psi(r_i := 1) - psi(r_i := 0) by the reference
        rng = np.random.default_rng(seed)
        node = random_tree(rng, s)
        r = _values(rng, s, (G,))
        partials = structure_partials(node, r)
        assert partials.shape == (s, G)
        for g in range(G):
            point = [float(v[g]) for v in r]
            scalar = structure_partials(node, point)
            assert partials[:, g].tobytes() == scalar.tobytes()
            pivots = [_reference(node, point[:i] + [1.0] + point[i + 1:])
                      - _reference(node, point[:i] + [0.0] + point[i + 1:]) for i in range(s)]
            assert scalar.tobytes() == np.array(pivots).tobytes()

    def test_callers_values_kept_and_scalars_broadcast(self):
        node = parse_structure("koutofn(2; c1, parallel(c2, c3), c4)")
        shared = np.array([0.9, 0.5, 1.0])
        r = [shared, 0.8, np.array([0.3, 0.6, 0.0]), shared]
        kept = [np.copy(v) for v in r]
        rel = eval_reliability(node, r)
        partials = structure_partials(node, r)
        assert all(np.array_equal(a, b) for a, b in zip(r, kept))
        assert rel.shape == (3,) and partials.shape == (4, 3)
        for g in range(3):
            point = [float(np.broadcast_to(v, (3,))[g]) for v in r]
            assert rel[g] == eval_reliability(node, point)
            assert partials[:, g].tobytes() == structure_partials(node, point).tobytes()

    def test_repeated_component_rejected(self):
        node = Series((ComponentRef(0), ComponentRef(0)))
        with pytest.raises(StructureError, match="repeated"):
            structure_partials(node, [0.5])

    def test_bridge_written_as_path_sets_rejected(self):
        # the recursion would treat the shared components as independent:
        # 0.99735 at r_i = 0.9, where the exact reliability is 0.97848
        text = "parallel(series(c1,c4),series(c2,c5),series(c1,c3,c5),series(c2,c3,c4))"
        with pytest.raises(StructureError, match="repeated"):
            parse_structure(text)
        c = ComponentRef
        bridge = Parallel((Series((c(0), c(3))), Series((c(1), c(4))),
                           Series((c(0), c(2), c(4))), Series((c(1), c(2), c(3)))))
        model = ComponentModel(WEIBULL, mu=1.0, sigma=0.7)
        data = [sample_lifetimes(model, 8, rng=i) for i in range(5)]
        with pytest.raises(StructureError, match="repeated"):
            dbpt_lcl(bridge, [WEIBULL] * 5, data, 1.0, 0.1, 100, 50, rng=1)


def test_num_components_counts_and_validates():
    node = parse_structure("koutofn(2; c1, parallel(c2, c3), c4)")
    assert num_components(node) == 4
    with pytest.raises(StructureError):
        num_components(KOutOfN(3, (ComponentRef(0), ComponentRef(1))))
    with pytest.raises(StructureError):
        num_components(Series(()))


class TestLimits:
    @pytest.mark.parametrize("text, position", [
        ("series(c" + "1" * 5000 + ")", 8),
        ("koutofn(" + "1" * 5000 + "; c1, c2)", 8),
    ])
    def test_number_past_the_digit_limit_is_a_parse_error(self, text, position):
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert str(err.value) == f"number of 5000 digits is too long (at position {position})"

    def test_parse_refuses_deep_nesting(self):
        deepest = "series(" * (MAX_DEPTH - 1) + "c1" + ")" * (MAX_DEPTH - 1)
        assert num_components(parse_structure(deepest)) == 1
        for depth in (MAX_DEPTH, 500):
            text = "series(" * depth + "c1" + ")" * depth
            with pytest.raises(StructureParseError) as err:
                parse_structure(text)
            assert str(err.value) == (f"structure nested too deeply: more than {MAX_DEPTH} "
                                      f"levels (at position {7 * MAX_DEPTH})")

    def test_tree_built_too_deep_is_refused(self):
        def nest(depth):
            node = ComponentRef(0)
            for _ in range(depth - 1):
                node = Series((node,))
            return node

        assert num_components(nest(MAX_DEPTH)) == 1
        for depth in (MAX_DEPTH + 1, 2000):
            with pytest.raises(StructureError, match="nested too deeply"):
                num_components(nest(depth))
            with pytest.raises(StructureError, match="nested too deeply"):
                eval_reliability(nest(depth), [0.5])
