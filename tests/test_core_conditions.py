"""Condition AST: construction, Kleene evaluation, monotonicity."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro import NULL
from repro.core.conditions import (
    FALSE,
    TRUE,
    And,
    Literal,
    Not,
    Or,
    UNRESOLVED,
    conjoin,
    resolver_from_mapping,
)
from repro.core.predicates import Comparison, IsNull, Op
from repro.core.tri import Tri


def resolve_of(**values):
    return resolver_from_mapping(values)


class TestLiterals:
    def test_true_false(self):
        assert TRUE.eval_tri(resolve_of()) is Tri.TRUE
        assert FALSE.eval_tri(resolve_of()) is Tri.FALSE

    def test_no_refs(self):
        assert TRUE.refs() == frozenset()

    def test_eval_bool(self):
        assert TRUE.eval_bool(resolve_of()) is True
        assert FALSE.eval_bool(resolve_of()) is False


class TestConnectives:
    def test_and_false_short_circuit_with_unknown(self):
        # Eager evaluation: one false conjunct decides the conjunction even
        # though the other input is not yet stable.
        cond = And(Comparison("a", Op.GT, 10), Comparison("b", Op.GT, 0))
        assert cond.eval_tri(resolve_of(a=5)) is Tri.FALSE

    def test_or_true_short_circuit_with_unknown(self):
        cond = Or(Comparison("a", Op.GT, 10), Comparison("b", Op.GT, 0))
        assert cond.eval_tri(resolve_of(a=50)) is Tri.TRUE

    def test_and_unknown_when_undecided(self):
        cond = And(Comparison("a", Op.GT, 10), Comparison("b", Op.GT, 0))
        assert cond.eval_tri(resolve_of(a=50)) is Tri.UNKNOWN

    def test_or_unknown_when_undecided(self):
        cond = Or(Comparison("a", Op.GT, 10), Comparison("b", Op.GT, 0))
        assert cond.eval_tri(resolve_of(a=5)) is Tri.UNKNOWN

    def test_flattening(self):
        cond = And(And(TRUE, FALSE), TRUE)
        assert len(cond.children) == 3
        cond = Or(Or(TRUE, FALSE), Or(TRUE, TRUE))
        assert len(cond.children) == 4

    def test_refs_union(self):
        cond = And(Comparison("a", Op.GT, 1), Or(IsNull("b"), Comparison("c", Op.LE, 2)))
        assert cond.refs() == {"a", "b", "c"}

    def test_not(self):
        cond = Not(Comparison("a", Op.GT, 10))
        assert cond.eval_tri(resolve_of(a=5)) is Tri.TRUE
        assert cond.eval_tri(resolve_of(a=50)) is Tri.FALSE
        assert cond.eval_tri(resolve_of()) is Tri.UNKNOWN

    def test_operator_sugar(self):
        a = Comparison("a", Op.GT, 1)
        b = Comparison("b", Op.GT, 1)
        assert (a & b) == And(a, b)
        assert (a | b) == Or(a, b)
        assert (~a) == Not(a)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            And("not a condition")
        with pytest.raises(TypeError):
            Not(42)


class TestEvalBool:
    def test_raises_with_unresolved_inputs_listed(self):
        cond = And(Comparison("a", Op.GT, 1), Comparison("zz", Op.GT, 1))
        with pytest.raises(ValueError, match="zz"):
            cond.eval_bool(resolve_of(a=5))

    def test_ok_when_short_circuit_decides(self):
        cond = And(Comparison("a", Op.GT, 10), Comparison("zz", Op.GT, 1))
        assert cond.eval_bool(resolve_of(a=5)) is False


class TestUnresolved:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_preserves_identity(self, protocol):
        # fleet records carry the sentinel over the worker pipe
        assert pickle.loads(pickle.dumps(UNRESOLVED, protocol)) is UNRESOLVED
        values = pickle.loads(pickle.dumps((1, UNRESOLVED, NULL), protocol))
        assert values[1] is UNRESOLVED and values[2] is NULL

    def test_copies_are_the_sentinel(self):
        assert copy.copy(UNRESOLVED) is UNRESOLVED
        assert copy.deepcopy(UNRESOLVED) is UNRESOLVED
        assert copy.deepcopy([UNRESOLVED])[0] is UNRESOLVED


class TestEquality:
    def test_structural_equality_and_hash(self):
        a1 = And(Comparison("a", Op.GT, 1), IsNull("b"))
        a2 = And(Comparison("a", Op.GT, 1), IsNull("b"))
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert a1 != Or(Comparison("a", Op.GT, 1), IsNull("b"))
        assert len({a1, a2}) == 1

    def test_literal_equality(self):
        assert Literal(True) == TRUE
        assert Literal(False) != TRUE


class TestConjoin:
    def test_true_identity(self):
        c = IsNull("x")
        assert conjoin(TRUE, c) is c
        assert conjoin(c, TRUE) is c

    def test_false_absorbs(self):
        c = IsNull("x")
        assert conjoin(FALSE, c) == FALSE
        assert conjoin(c, FALSE) == FALSE

    def test_general_case(self):
        a, b = IsNull("x"), IsNull("y")
        assert conjoin(a, b) == And(a, b)


# -- property: partial evaluation never contradicts full evaluation ---------

_NAMES = ("a", "b", "c")


def _conditions(depth=2):
    leaves = st.one_of(
        st.builds(Literal, st.booleans()),
        st.builds(
            Comparison,
            st.sampled_from(_NAMES),
            st.sampled_from([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]),
            st.integers(0, 10),
        ),
        st.builds(IsNull, st.sampled_from(_NAMES)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(lambda a, b: And(a, b), children, children),
            st.builds(lambda a, b: Or(a, b), children, children),
            st.builds(Not, children),
        ),
        max_leaves=8,
    )


_VALUES = st.one_of(st.integers(0, 10), st.just(NULL))


@given(
    condition=_conditions(),
    full=st.fixed_dictionaries({name: _VALUES for name in _NAMES}),
    visible=st.sets(st.sampled_from(_NAMES)),
)
def test_partial_evaluation_is_monotone(condition, full, visible):
    """If a partial snapshot decides a condition, the full snapshot agrees.

    This is the soundness property behind eager condition evaluation
    (forward propagation): resolving early must never contradict the
    complete snapshot.
    """
    partial = {name: value for name, value in full.items() if name in visible}
    early = condition.eval_tri(resolver_from_mapping(partial))
    final = condition.eval_bool(resolver_from_mapping(full))
    if early.known:
        assert (early is Tri.TRUE) == final
