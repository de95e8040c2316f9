"""Property-based tests: IntervalSet behaves like a set of ints."""

from hypothesis import given, strategies as st

from repro.core.intervals import IntervalSet

ranges = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 60)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    max_size=20,
)


@given(ranges)
def test_matches_model_set(range_list):
    model: set[int] = set()
    interval_set = IntervalSet()
    for lo, hi in range_list:
        interval_set.add_range(lo, hi)
        model.update(range(lo, hi + 1))
    assert set(interval_set) == model
    assert len(interval_set) == len(model)
    for probe in range(-1, 265):
        assert (probe in interval_set) == (probe in model)


@given(ranges)
def test_ranges_are_sorted_disjoint_and_non_adjacent(range_list):
    interval_set = IntervalSet(range_list)
    spans = interval_set.ranges()
    for lo, hi in spans:
        assert lo <= hi
    for (_lo, prev_hi), (next_lo, _hi) in zip(spans, spans[1:]):
        assert next_lo > prev_hi + 1  # adjacent ranges must have merged


@given(ranges, st.integers(0, 260), st.integers(0, 260))
def test_missing_between_matches_model(range_list, a, b):
    lo, hi = min(a, b), max(a, b)
    interval_set = IntervalSet(range_list)
    model = set(interval_set)
    expected = [v for v in range(lo, hi + 1) if v not in model]
    assert interval_set.missing_between(lo, hi) == expected


@given(ranges, ranges)
def test_difference_matches_model(ours_list, theirs_list):
    ours = IntervalSet(ours_list)
    theirs = IntervalSet(theirs_list)
    expected = sorted(set(ours) - set(theirs))
    assert sorted(ours.difference_values(theirs)) == expected


@given(ranges, ranges)
def test_merge_is_union(a_list, b_list):
    a = IntervalSet(a_list)
    b = IntervalSet(b_list)
    union = set(a) | set(b)
    a.merge(b)
    assert set(a) == union


@given(st.lists(st.integers(0, 100), max_size=50))
def test_insertion_order_irrelevant(values):
    forward = IntervalSet()
    backward = IntervalSet()
    for v in values:
        forward.add(v)
    for v in reversed(values):
        backward.add(v)
    assert forward == backward
    assert forward.ranges() == backward.ranges()


#: One step of a seen-set's life: ``("add", v)`` or ``("range", lo, hi)``.
#: Dense ascending runs (what a sensor stream mostly is) come from
#: ``("run", start, length)``, unrolled into single adds.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 120)),
        st.tuples(st.just("run"), st.integers(0, 120), st.integers(1, 30)),
        st.tuples(st.just("range"), st.integers(0, 120), st.integers(0, 20)),
    ),
    max_size=30,
)


@given(ops)
def test_mixed_adds_match_a_set_and_a_range_only_build(steps):
    """``add`` (its append lane and the general path alike) against a
    Python ``set`` and against the same values inserted by ``add_range``
    alone: same members, same ranges, and ``add`` returns whether the value
    was new."""
    model: set[int] = set()
    interval_set = IntervalSet()
    by_range = IntervalSet()
    for step in steps:
        if step[0] == "range":
            lo, hi = step[1], step[1] + step[2]
            interval_set.add_range(lo, hi)
            by_range.add_range(lo, hi)
            model.update(range(lo, hi + 1))
            continue
        values = [step[1]] if step[0] == "add" else range(step[1], step[1] + step[2])
        for value in values:
            assert interval_set.add(value) is (value not in model)
            by_range.add_range(value, value)
            model.add(value)
    assert set(interval_set) == model
    assert len(interval_set) == len(model)
    assert interval_set.ranges() == by_range.ranges()
    assert interval_set == by_range
    for probe in range(-1, 155):
        assert (probe in interval_set) == (probe in model)
