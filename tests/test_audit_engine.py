"""The quotient-space audit engine against the per-check loop it replaced.

Each reference below is the earlier implementation, kept here verbatim in
behaviour: ``reference_verify`` runs the rank formula ``leakage`` for
every (subset, node) pair, sizes ascending, then subsets in lexicographic
order, then nodes; ``reference_plan`` recomputes a completion plan from
scratch on every call; ``reference_quotient_stack`` eliminates the check
rows together with each modulus.  The engine, the memoized planner and
the kernel-product quotient must return equal results, counts and
counterexamples included, and equal arrays byte for byte.
"""

import json
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import grid_params
from weavesafe import audit, linalg
from weavesafe.audit import (
    CompletionPlan,
    LeakageReport,
    PlanStep,
    VerifyResult,
    _message_matrix,
    audit_report,
    leakage,
    plan_completion,
    verify_weak_secrecy,
)
from weavesafe.errors import CapExceededError
from weavesafe.gf2m import Field
from weavesafe.linalg import quotient_stack, submatrix
from weavesafe.pm_mbr import params_new
from weavesafe.weaksec import index_sets, make_codec

# The pairs that criterion 6 certifies in full; they include the running
# example (5,3,4,4) and the tiny enumeration set (3,2,2,3).
GRID = [grid_params(k, d) for k, d in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]]


def reference_verify(codec, guesses, baseline=False, max_checks=audit.DEFAULT_VERIFY_CAP):
    p = codec.params
    check_matrix = _message_matrix(codec, baseline)
    width = check_matrix.rows
    if not 0 <= guesses <= width - 1:
        raise ValueError(f"guesses {guesses} out of range 0..{width - 1}")
    total = sum(math.comb(width, s) for s in range(1, guesses + 2)) * p.n
    if total > max_checks:
        raise CapExceededError(f"{total} rank checks exceed cap {max_checks}")

    generators = [codec.inner.generator_matrix(e) for e in range(1, p.n + 1)]
    checks = 0
    for size in range(1, guesses + 2):
        for subset in combinations(range(1, width + 1), size):
            rows = submatrix(check_matrix, [i - 1 for i in subset], range(check_matrix.cols))
            for e in range(1, p.n + 1):
                leaked = leakage(rows, generators[e - 1])
                checks += 1
                if leaked:
                    return VerifyResult(
                        guesses, baseline, False, checks,
                        LeakageReport(e, subset, leaked),
                    )
    return VerifyResult(guesses, baseline, True, checks, None)


def reference_plan(k: int, d: int, row_types: tuple) -> CompletionPlan:
    """plan_completion as first written: no memoization, one pass per call."""
    total = k * (k + 1) // 2 + k * (d - k)
    ind = index_sets(k, d)
    lam = [0] + [1] * d  # 1-based; node row contributes one per type
    used_hats: dict = {t: set() for t in range(1, d + 1)}
    check_rows_by_type: dict = {t: [] for t in range(1, d + 1)}
    for pos, (t, hat) in enumerate(row_types):
        lam[t] += 1
        used_hats[t].add(hat)
        check_rows_by_type[t].append(pos)

    decoded: set = set()
    steps: list = []
    appended: list = []

    def undecoded(t):
        return tuple(b for b in ind[t - 1] if b not in decoded)

    def full_step(t, equations):
        """Step using all present rows of type t plus fresh appended rows."""
        extra = equations - lam[t]
        avail = [h for h in range(1, d + 1) if h not in used_hats[t]]
        hats = tuple(avail[:extra])
        variables = undecoded(t)
        if len(variables) != equations or len(hats) != extra:
            raise AssertionError(f"bookkeeping broke at type {t}")
        appended.extend((t, h) for h in hats)
        steps.append(PlanStep(t, tuple(check_rows_by_type[t]), hats, variables))
        decoded.update(variables)

    def small_step(t, expect):
        variables = undecoded(t)
        if len(variables) != expect:
            raise AssertionError(f"bookkeeping broke at type {t}")
        steps.append(PlanStep(t, tuple(check_rows_by_type[t]), (), variables))
        decoded.update(variables)

    def fail(t, need, have):
        return CompletionPlan(
            False,
            f"type {t} has {need} rows present but only {have} variables remain undecoded",
            tuple(steps),
            tuple(appended),
        )

    group_one = sorted(range(1, k + 1), key=lambda t: (lam[t], t))
    group_two = sorted(range(k + 1, d + 1), key=lambda t: (lam[t], t))
    two_row = [t for t in group_two if lam[t] == 2]
    one_row = [t for t in group_two if lam[t] == 1]

    remaining = d
    if k >= 3:
        for pos in range(k - 1, 1, -1):
            t = group_one[pos]
            if lam[t] > remaining:
                return fail(t, lam[t], remaining)
            full_step(t, remaining)
            remaining -= 1
        for t in two_row:
            small_step(t, 2)
        remaining -= len(two_row)
        t = group_one[1]
        if lam[t] > remaining:
            return fail(t, lam[t], remaining)
        full_step(t, remaining)
        for t in one_row:
            small_step(t, 1)
        small_step(group_one[0], 1)
    else:  # k == 2
        for t in two_row:
            small_step(t, 2)
        remaining -= len(two_row)
        t = group_one[1]
        if lam[t] > remaining:
            return fail(t, lam[t], remaining)
        full_step(t, remaining)
        for t in one_row:
            small_step(t, 1)
        small_step(group_one[0], 1)

    if len(decoded) != total:
        raise AssertionError(f"plan decoded {len(decoded)} of {total} variables")
    if len(appended) != total - len(row_types) - d:
        raise AssertionError("append count does not square the matrix")
    return CompletionPlan(True, None, tuple(steps), tuple(appended))


def reference_quotient_stack(field, rows, moduli):
    """quotient_stack as it was: each modulus stacked over the check rows,
    every modulus row in turn cleared from both with ``linalg._clear``."""
    count = len(rows)
    if not count:
        return np.zeros((len(moduli), 0, 0), dtype=field.dtype)
    depth, width = moduli.shape[1:]
    state = np.empty((len(moduli), depth + count, width), dtype=field.dtype)
    state[:, :depth] = moduli
    state[:, depth:] = rows
    pivot = np.zeros((len(moduli), width), dtype=bool)
    step = max(1, linalg._BLOCK_SYMBOLS // max(1, state[0].size))
    for r in range(depth if width else 0):
        lead = state[:, r]
        live = lead.any(axis=-1)
        pivot[np.flatnonzero(live), (lead != 0).argmax(axis=-1)[live]] = True
        for lo in range(0, len(moduli), step):
            block = state[lo : lo + step]
            linalg._clear(field, block, block[:, r].copy())  # rows up to r are done
    kept = width - pivot.sum(axis=1)
    out = np.zeros((len(moduli), count, int(kept.max(initial=0))), dtype=field.dtype)
    for e in range(len(moduli)):
        out[e, :, : kept[e]] = state[e, depth:][:, ~pivot[e]]
    return out


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def random_stack(field, rng, count, depth, width, moduli):
    """Check rows and a (moduli x depth x width) stack, sparse enough that
    first nonzero columns vary, with dependent rows and all-zero moduli."""

    def symbol():
        return rng.randrange(1, field.order) if rng.random() < 0.4 else 0

    rows = [[symbol() for _ in range(width)] for _ in range(count)]
    stack = np.array(
        [[[symbol() for _ in range(width)] for _ in range(depth)] for _ in range(moduli)],
        dtype=field.dtype,
    ).reshape(moduli, depth, width)
    for e in range(moduli):
        kind = rng.randrange(4)
        if kind == 0:
            stack[e] = 0
        elif kind == 1 and depth >= 2:  # a multiple of an earlier row
            a, b = sorted(rng.sample(range(depth), 2))
            stack[e, b] = field.mul_vec(rng.randrange(1, field.order), stack[e, a])
    if count >= 2 and rng.random() < 0.5:
        rows[-1] = list(rows[0])
    return rows, stack


@pytest.mark.parametrize("m", [4, 8, 16])
def test_quotient_stack_matches_reference_on_random_stacks(m):
    field = Field(m)
    rng = random.Random(40 + m)
    for _ in range(150):
        count, depth, width = rng.randrange(0, 6), rng.randrange(0, 5), rng.randrange(0, 9)
        rows, stack = random_stack(field, rng, count, depth, width, rng.randrange(1, 7))
        assert_same_array(quotient_stack(field, rows, stack), reference_quotient_stack(field, rows, stack))


def test_quotient_stack_matches_reference_across_pivot_groups():
    """Moduli whose pivots differ take separate kernel calls, the order of
    the groups following no modulus order; the all-zero modulus keeps every
    column."""
    field = Field(8)
    rows = [[3, 0, 7, 1, 9], [0, 5, 0, 2, 4], [1, 1, 1, 1, 1]]
    stack = np.array(
        [
            [[0, 2, 0, 1, 0], [5, 0, 0, 0, 1]],  # pivots 1, 0
            [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]],  # pivots 0, 2
            [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],  # none
            [[0, 3, 0, 5, 0], [10, 0, 0, 0, 2]],  # pivots 1, 0 again
            [[4, 4, 0, 0, 0], [8, 8, 0, 0, 0]],  # pivot 0, then a dependent row
        ],
        dtype=field.dtype,
    )
    got = quotient_stack(field, rows, stack)
    assert got.shape == (5, 3, 5)
    assert_same_array(got, reference_quotient_stack(field, rows, stack))
    assert (got[2] == np.array(rows)).all()
    assert not got[[0, 1, 3], :, 3:].any()  # two pivots leave three columns
    assert_same_array(quotient_stack(field, [], stack), reference_quotient_stack(field, [], stack))
    empty = np.zeros((5, 2, 0), dtype=field.dtype)
    assert quotient_stack(field, [[]] * 3, empty).shape == (5, 3, 0)
    assert_same_array(quotient_stack(field, [[]] * 3, empty), reference_quotient_stack(field, [[]] * 3, empty))


@pytest.mark.parametrize(
    "point",
    [(5, 3, 4, 8), (12, 6, 10, 8), (20, 10, 16, 8), (12, 6, 10, 16), (6, 3, 5, 4), (7, 4, 6, 5)],
)
def test_quotient_stack_matches_reference_at_the_fixed_points(point):
    """The store and audit points, for H and for the baseline's identity."""
    codec = make_codec(params_new(*point))
    p = codec.params
    moduli = codec.inner.generator_stack.reshape(p.n, p.d, -1)
    for baseline in (False, True):
        rows = _message_matrix(codec, baseline).data
        expected = reference_quotient_stack(codec.field, rows, moduli)
        assert_same_array(quotient_stack(codec.field, rows, moduli), expected)


def test_audit_at_the_store_points():
    """Weak secrecy at (20,10,16,8) for g = 0 and 1 (the m <= 8 kernel
    path) and at (12,6,10,16) for g = 0 (m > 8).  The certificate's 16
    steps at (20,10,16,8) are pinned in test_audit."""
    codec = make_codec(params_new(20, 10, 16, 8))
    for g, checks in ((0, 2260), (1, 128820)):
        assert verify_weak_secrecy(codec, g) == VerifyResult(g, False, True, checks, None)
    wide = make_codec(params_new(12, 6, 10, 16))
    assert verify_weak_secrecy(wide, 0) == VerifyResult(0, False, True, 516, None)


def test_engine_matches_reference_loop_on_grid():
    """Every g the range allows, with and without the outer code."""
    failing = 0
    for params in GRID:
        codec = make_codec(params)
        for baseline in (False, True):
            width = _message_matrix(codec, baseline).rows
            for g in range(width):
                expected = reference_verify(codec, g, baseline)
                assert verify_weak_secrecy(codec, g, baseline) == expected, (params, baseline, g)
                failing += not expected.passed
    assert failing >= 20  # the failing branch is exercised, not only passes


def test_engine_matches_reference_on_6354_baseline():
    """The baseline probes of the benchmark's (6,3,5,4) battery."""
    codec = make_codec(params_new(6, 3, 5, 4))
    for g in (1, 2):
        assert verify_weak_secrecy(codec, g, True) == reference_verify(codec, g, True)
    fail = verify_weak_secrecy(codec, 2, baseline=True)
    assert fail.checks == 691
    assert fail.counterexample == LeakageReport(1, (1, 6, 10), 1)
    assert verify_weak_secrecy(codec, 4).checks == 3822


def test_engine_caps_and_ranges_match_reference(codec534):
    for g, cap in ((3, 10), (3, 489), (2, 0)):
        for fn in (verify_weak_secrecy, reference_verify):
            with pytest.raises(CapExceededError):
                fn(codec534, g, max_checks=cap)
    assert verify_weak_secrecy(codec534, 3, max_checks=490).checks == 490
    for g in (-1, 7):
        for fn in (verify_weak_secrecy, reference_verify):
            with pytest.raises(ValueError):
                fn(codec534, g)


def test_weak_secrecy_at_full_strength_7465():
    result = verify_weak_secrecy(make_codec(params_new(7, 4, 6, 5)), 6)
    assert result.passed and result.counterexample is None
    assert result.checks == 184324  # 7 nodes x all 26332 subsets of size <= 7 of 16


def test_verdicts_hold_plain_ints_and_serialize(codec534):
    """Counts, nodes and subsets are Python ints, never numpy scalars, so a
    report with counterexamples goes through json as it is."""
    report = audit_report(codec534, guesses=5)  # weak secrecy holds to g = 4 here
    verdicts = (report.weak_secrecy, report.baseline_fail, report.baseline_pass)
    assert [v.passed for v in verdicts] == [False, False, True]
    for v in verdicts:
        assert type(v.checks) is int
        if v.counterexample:
            assert type(v.counterexample.node) is int
            assert all(type(i) is int for i in v.counterexample.subset)
    assert json.loads(json.dumps(report.to_dict()))["weak_secrecy"]["counterexample"]


def test_verify_scratch_is_bounded_by_the_block_budget():
    """The walk holds one block of at most _BLOCK_SYMBOLS symbols per
    level and a push's scratch (8-byte summed logs, gathered products);
    24 bytes per budget symbol bounds all of it at m <= 8."""
    codec = make_codec(params_new(7, 4, 6, 5))
    verify_weak_secrecy(codec, 1)  # field tables are built once per process
    tracemalloc.start()
    try:
        result = verify_weak_secrecy(codec, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed and result.checks == 184324
    assert peak < 24 * linalg._BLOCK_SYMBOLS


def test_engine_cross_checks_every_verdict(codec534, monkeypatch):
    """The oracle recomputes the last subset on a pass and the
    counterexample on a failure; a disagreement is an error."""
    calls = []

    def recording(rows, observation):
        calls.append(rows.rows)
        return leakage(rows, observation)

    monkeypatch.setattr(audit, "leakage", recording)
    verify_weak_secrecy(codec534, 3)
    assert calls == [4] * 5  # subset (4, 5, 6, 7) against each node
    calls.clear()
    verify_weak_secrecy(codec534, 2, baseline=True)
    assert calls == [3]

    monkeypatch.setattr(audit, "leakage", lambda rows, observation: 0)
    with pytest.raises(AssertionError, match="rank formula 0"):
        verify_weak_secrecy(codec534, 2, baseline=True)
    monkeypatch.setattr(audit, "leakage", lambda rows, observation: 1)
    with pytest.raises(AssertionError, match="rank formula 1"):
        verify_weak_secrecy(codec534, 3)


def test_plan_matches_reference_on_grid():
    """Every subset of every size, so failed plans are compared too."""
    failed = 0
    for k in range(2, 5):
        for d in range(k, 6):
            row_types = make_codec(grid_params(k, d)).outer.row_types
            for size in range(len(row_types) + 1):
                for subset in combinations(row_types, size):
                    expected = reference_plan(k, d, subset)
                    assert plan_completion(k, d, subset) == expected, (k, d, subset)
                    failed += not expected.success
    assert failed > 500


def test_plan_maps_positions_of_unsorted_rows():
    rng = random.Random(9)
    row_types = make_codec(grid_params(4, 5)).outer.row_types
    for _ in range(200):
        subset = tuple(rng.sample(row_types, rng.randrange(len(row_types) + 1)))
        assert plan_completion(4, 5, subset) == reference_plan(4, 5, subset), subset
