import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from conftest import grid_params
from weavesafe.audit import (
    _check_steps,
    _plan_skeleton,
    audit_report,
    certify_completion,
    certify_extended_parity,
    exhaustive_mi_oracle,
    leakage,
    plan_completion,
    replay_certificate,
    verify_weak_secrecy,
)
from weavesafe import linalg
from weavesafe.errors import CapExceededError, ParameterError
from weavesafe.gf2m import Field
from weavesafe.linalg import Matrix, submatrix
from weavesafe.pm_mbr import params_new
from weavesafe.weaksec import make_codec


def identity_rows(codec, subset):
    eye = Matrix.identity(codec.field, codec.params.total_symbols)
    return submatrix(eye, [i - 1 for i in subset], range(codec.params.total_symbols))


def parity_rows(codec, subset):
    h = codec.outer.parity_check
    return submatrix(h, [i - 1 for i in subset], range(h.cols))


# -- leakage ------------------------------------------------------------------


def test_leakage_dimension_mismatch(codec534):
    with pytest.raises(ValueError):
        leakage(Matrix.identity(codec534.field, 3), codec534.inner.generator_matrix(1))


def test_leakage_of_an_observed_row_is_one(codec534):
    g = codec534.inner.generator_matrix(2)
    one_row = submatrix(g, [0], range(g.cols))
    assert leakage(one_row, g) == 1


def test_leakage_zero_when_ranks_add(codec534):
    # a single parity-check row is independent of any node's row space
    for e in range(1, 6):
        g = codec534.inner.generator_matrix(e)
        assert leakage(parity_rows(codec534, (1,)), g) == 0


def test_leakage_monotone_under_row_addition(codec534):
    rng = random.Random(0)
    for _ in range(30):
        size = rng.randrange(1, 8)
        big = sorted(rng.sample(range(1, 10), size + 1))
        small = big[:size]
        e = rng.randrange(1, 6)
        g = codec534.inner.generator_matrix(e)
        assert leakage(identity_rows(codec534, small), g) <= leakage(
            identity_rows(codec534, big), g
        )


# -- oracle vs rank formula -------------------------------------------------


def test_oracle_matches_rank_formula_everywhere(codec322):
    """Exact mutual information from 512-codeword enumeration equals the
    rank expression for every message subset and every node."""
    secure = codec322.params.secure_symbols
    for size in range(0, secure + 1):
        for subset in combinations(range(1, secure + 1), size):
            for e in range(1, 4):
                mi = exhaustive_mi_oracle(codec322, subset, e)
                formula = (
                    leakage(parity_rows(codec322, subset), codec322.inner.generator_matrix(e))
                    if subset
                    else 0
                )
                assert mi == Fraction(formula), (subset, e)


def test_oracle_sees_real_leakage(codec322):
    """With the outer code stripped to a single observed codeword symbol,
    enumeration must report nonzero information; checks the oracle is not
    trivially returning zero."""
    # message = full syndrome, observe node 1; compare formula on purpose-built
    # matrices instead: a codeword coordinate projector leaks one symbol
    g = codec322.inner.generator_matrix(1)
    row = submatrix(g, [0], range(g.cols))
    assert leakage(row, g) == 1
    # an outer code whose one message symbol is a symbol node e stores: the
    # oracle must count a full symbol at e and nothing at the other nodes
    n = codec322.params.n
    for e in range(1, n + 1):
        g = codec322.inner.generator_matrix(e)
        for r in range(g.rows):
            row = submatrix(g, [r], range(g.cols))
            leaky = SimpleNamespace(
                params=codec322.params,
                field=codec322.field,
                inner=codec322.inner,
                outer=SimpleNamespace(parity_check=row),
            )
            for node in range(1, n + 1):
                mi = exhaustive_mi_oracle(leaky, (1,), node)
                assert mi == (Fraction(1) if node == e else 0), (e, r, node)
                assert mi == leakage(row, codec322.inner.generator_matrix(node))


def test_oracle_rejects_large_spaces(codec534):
    with pytest.raises(CapExceededError):
        exhaustive_mi_oracle(codec534, (1,), 1, max_states=100)


def test_oracle_validates_subset(codec322):
    with pytest.raises(ValueError):
        exhaustive_mi_oracle(codec322, (2,), 1)  # only one secure symbol


# -- weak secrecy verification ----------------------------------------------


def test_verify_passes_at_max_guesses(codec534):
    result = verify_weak_secrecy(codec534, 3)
    assert result.passed and result.counterexample is None
    assert result.checks == 490  # 98 subsets x 5 nodes


def test_verify_baseline_fails_at_k_minus_one(codec534):
    result = verify_weak_secrecy(codec534, 2, baseline=True)
    assert not result.passed
    ce = result.counterexample
    assert len(ce.subset) == 3  # sizes 1 and 2 are all safe; minimality
    assert ce.leaked_symbols >= 1
    # the report is reproducible: enumeration order is fixed
    again = verify_weak_secrecy(codec534, 2, baseline=True)
    assert again.counterexample == ce


def test_verify_baseline_passes_at_k_minus_two(codec534):
    assert verify_weak_secrecy(codec534, 1, baseline=True).passed


def test_leak_at_weight_k_row_support(codec534):
    """Every node stores one symbol touching only k codeword positions;
    guessing exactly those positions reveals it when no outer code is used."""
    p = codec534.params
    for e in range(1, p.n + 1):
        g = codec534.inner.generator_matrix(e)
        weight_k_row = g.data[p.d - 1]
        support = tuple(i + 1 for i, v in enumerate(weight_k_row) if v)
        assert len(support) == p.k
        assert leakage(identity_rows(codec534, support), g) >= 1


def test_verify_beyond_guarantee_reports_without_crashing(codec534):
    result = verify_weak_secrecy(codec534, 4)
    assert isinstance(result.passed, bool)


def test_verify_cap_and_range(codec534):
    with pytest.raises(CapExceededError):
        verify_weak_secrecy(codec534, 3, max_checks=10)
    with pytest.raises(ParameterError):
        verify_weak_secrecy(codec534, 7)
    with pytest.raises(ParameterError):
        verify_weak_secrecy(codec534, -1)


def test_oracle_uses_no_engine_code(monkeypatch):
    """The rank-formula oracle and the certificate re-derive the engine's
    verdicts with code the engine does not use: with the engine's row
    update, quotient, walk and the GF kernel made to raise, leakage and
    certify_extended_parity still return the verdicts they gave before,
    while the engine itself cannot run."""
    codec = make_codec(params_new(5, 3, 4, 8))
    cases = [
        (parity_rows(codec, subset), codec.inner.generator_matrix(e))
        for subset in [(1,), (2, 5), (1, 4, 7), (1, 2, 3, 4, 5, 6, 7)]
        for e in (1, 3, 5)
    ]
    cases += [(identity_rows(codec, (1, 2)), codec.inner.generator_matrix(2))]
    expected = [leakage(rows, g) for rows, g in cases]
    assert 0 in expected and max(expected) > 0
    cert = certify_extended_parity(codec)
    assert cert.success

    def engine(*args, **kwargs):
        raise AssertionError("the oracle reached engine code")

    for name in ("_clear", "quotient_stack", "first_dependent_subset"):
        monkeypatch.setattr(linalg, name, engine)
    monkeypatch.setattr(Field, "mat_mul_cols", engine)
    assert [leakage(rows, g) for rows, g in cases] == expected
    again = certify_extended_parity(codec)
    assert (again.success, again.steps, again.failure) == (cert.success, cert.steps, cert.failure)
    with pytest.raises(AssertionError, match="engine code"):
        verify_weak_secrecy(codec, 0)


# -- extension certificate ---------------------------------------------------


def test_extension_certificate_running_example(codec534):
    cert = certify_extended_parity(codec534)
    assert cert.success
    assert [(s.type_index, s.variables) for s in cert.steps] == [
        (3, (3, 6, 8, 9)),
        (2, (2, 5, 7)),
        (4, (4,)),
        (1, (1,)),
    ]
    decoded = [b for s in cert.steps for b in s.variables]
    assert sorted(decoded) == list(range(1, 10))
    assert len(decoded) == 9  # each index exactly once
    assert cert.appended == ((3, 4), (1, 1))


def test_extension_certificate_replays(codec534):
    cert = certify_extended_parity(codec534)
    rng = random.Random(1)
    for _ in range(5):
        y = [rng.randrange(16) for _ in range(9)]
        assert replay_certificate(cert, y) == y


def test_misordered_steps_name_every_stray_variable(codec534):
    """A step whose rows touch variables no earlier step decoded is
    rejected with each such variable, sorted, as the set difference of the
    row's support gives them."""
    matrix = codec534.outer.parity_check_ext
    steps = certify_extended_parity(codec534).steps
    rejected = 0
    for order in (steps[::-1], steps[1:] + steps[:1], steps[2:] + steps[:2]):
        decoded, expected = set(), None
        for step in order:
            for r in step.rows:
                support = {c + 1 for c, v in enumerate(matrix.data[r]) if v}
                stray = support - decoded - set(step.variables)
                if stray and expected is None:
                    expected = f"row {r} touches undecoded variables {sorted(stray)}"
            decoded.update(step.variables)
        assert _check_steps(matrix, order) == expected
        rejected += expected is not None
    assert rejected == 3


def test_broken_steps_are_named(codec534):
    """A step short of a row, a step repeating a row and a missing step are
    each refused with their own verdict."""
    matrix = codec534.outer.parity_check_ext
    steps = certify_extended_parity(codec534).steps
    assert [(s.type_index, len(s.rows)) for s in steps] == [(3, 4), (2, 3), (4, 1), (1, 1)]
    first, rest = steps[0], steps[1:]
    short = replace(first, rows=first.rows[:-1])
    assert _check_steps(matrix, (short,) + rest) == "type 3 step is not square"
    repeated = replace(first, rows=first.rows[:-1] + first.rows[:1])
    assert _check_steps(matrix, (repeated,) + rest) == "type 3 step submatrix is singular"
    assert _check_steps(matrix, steps[:-1]) == "steps decode 8 of 9 variables"


def test_extension_certificate_grid():
    rng = random.Random(2)
    for k in range(2, 9):
        for d in range(k, 9):
            codec = make_codec(grid_params(k, d))
            cert = certify_extended_parity(codec)
            assert cert.success, (k, d)
            total = codec.params.total_symbols
            decoded = [b for s in cert.steps for b in s.variables]
            assert sorted(decoded) == list(range(1, total + 1))
            y = [rng.randrange(codec.field.order) for _ in range(total)]
            assert replay_certificate(cert, y) == y
    for params, steps in (((6, 3, 5, 4), 5), ((7, 4, 6, 5), 6), ((20, 10, 16, 8), 16)):
        cert = certify_extended_parity(make_codec(params_new(*params)))
        assert cert.success and len(cert.steps) == steps, params


def test_completion_planner_decodes_in_the_encoder_order():
    """Handed H_ext's per-type row counts, less the node row it adds per
    type, the completion planner takes the coset encoder's solve steps:
    the same types and variables in the same order, with no row appended
    and no failure."""
    for k in range(2, 9):
        for d in range(k, 13):
            outer = make_codec(grid_params(k, d)).outer
            rows = Counter(t for t, _ in outer.ext_row_types)
            steps, failure = _plan_skeleton(k, d, (0,) + tuple(rows[t] - 1 for t in range(1, d + 1)))
            assert failure is None, (k, d)
            assert [(t, v) for t, _, v in steps] == [(s.type_index, s.variables) for s in outer.solve_steps]
            assert not any(extra for _, extra, _ in steps), (k, d)


# -- completion certificates -------------------------------------------------


def test_completion_worked_example(codec534):
    """Three check rows of types 2, 3, 4 drawing coefficient rows 2, 3, 1:
    the canonical hard case at the size bound."""
    assert codec534.outer.row_types[1] == (2, 2)
    assert codec534.outer.row_types[5] == (3, 3)
    assert codec534.outer.row_types[6] == (4, 1)
    subset = (2, 6, 7)
    rng = random.Random(3)
    reference = None
    for e in range(1, 6):
        cert = certify_completion(codec534, subset, e)
        assert cert.success
        assert cert.matrix.rows == cert.matrix.cols == 9
        assert cert.appended == ((3, 1), (3, 2))
        trace = [(s.type_index, s.variables) for s in cert.steps]
        assert trace == [
            (3, (3, 6, 8, 9)),
            (4, (4, 7)),
            (2, (2, 5)),
            (1, (1,)),
        ]
        if reference is None:
            reference = trace
        assert trace == reference  # node-independent structure
        y = [rng.randrange(16) for _ in range(9)]
        assert replay_certificate(cert, y) == y


def test_completion_square_matrix_row_budget(codec534):
    rng = random.Random(4)
    for size in range(0, 5):
        subset = tuple(sorted(rng.sample(range(1, 8), size)))
        cert = certify_completion(codec534, subset, 1 + rng.randrange(5))
        assert cert.success
        assert len(cert.appended) == 9 - size - 4


def test_completion_plan_is_node_invariant(codec534):
    for size in (1, 3, 4):
        for subset in combinations(range(1, 8), size):
            traces = set()
            for e in range(1, 6):
                cert = certify_completion(codec534, subset, e)
                assert cert.success, (subset, e)
                traces.add(
                    (
                        tuple((s.type_index, s.variables) for s in cert.steps),
                        cert.appended,
                    )
                )
            assert len(traces) == 1, subset


def test_completion_exhaustive_small_grids():
    rng = random.Random(5)
    for k, d in [(2, 2), (2, 3), (3, 3)]:
        codec = make_codec(grid_params(k, d))
        p = codec.params
        bound = d + k - 3
        for size in range(0, bound + 1):
            for subset in combinations(range(1, p.secure_symbols + 1), size):
                for e in range(1, p.n + 1):
                    cert = certify_completion(codec, subset, e)
                    assert cert.success, (k, d, subset, e)
                    y = [rng.randrange(codec.field.order) for _ in range(p.total_symbols)]
                    assert replay_certificate(cert, y) == y


def test_completion_failure_is_surfaced(codec534):
    """Overloading two types past the guaranteed bound trips the declared
    failure branch; nothing retries behind the caller's back."""
    plan = plan_completion(3, 4, ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)))
    assert not plan.success
    assert "rows present" in plan.failure
    cert = certify_completion(codec534, (1, 2, 3, 4, 5, 6), 1)
    assert not cert.success
    assert cert.failure == plan.failure
    with pytest.raises(ValueError, match="failed certificate"):
        replay_certificate(cert, [0] * 9)


def test_completion_validates_subset(codec534):
    with pytest.raises(ValueError):
        certify_completion(codec534, (8,), 1)  # only 7 secure symbols


# -- aggregated report ---------------------------------------------------------


def test_audit_report_running_example(codec534):
    report = audit_report(codec534)
    doc = report.to_dict()
    assert doc["total_symbols"] == 9
    assert doc["secure_symbols"] == 7
    assert doc["max_guesses"] == 3
    assert doc["perfect_secrecy"]["secure_symbols"] == 5
    assert doc["baseline_guesses"] == 1
    assert doc["improvement_over_baseline"] == 2  # d - 2
    assert report.weak_secrecy.passed
    assert not report.baseline_fail.passed
    assert report.baseline_pass.passed
    assert report.certificate_success


def test_audit_report_degenerate_pair():
    report = audit_report(make_codec(grid_params(2, 2)))
    assert report.to_dict()["max_guesses"] == 0
    assert report.to_dict()["improvement_over_baseline"] == 0
    assert report.weak_secrecy.passed


def test_audit_report_is_deterministic_and_serializable(codec534):
    a = audit_report(codec534).to_dict()
    b = audit_report(codec534).to_dict()
    assert a == b
    assert json.loads(json.dumps(a)) == a
    text = audit_report(codec534).to_text()
    assert "PASS" in text and "n=5 k=3 d=4" in text


def test_audit_report_cluster_demo(tmp_path):
    from weavesafe import store

    params = params_new(5, 3, 4, 4)
    data = bytes(range(256)) * 4
    store.cluster_store(data, params, tmp_path / "c", seed=1)
    codec = make_codec(params)
    report = audit_report(codec)
    assert report.cluster_demo is None  # the audit reads no share file
    cluster = store.Cluster(tmp_path / "c")
    report.cluster_demo = store.cluster_observation_demo(cluster, cluster.manifest())
    demo = report.cluster_demo
    assert demo["nodes"] == 5
    assert demo["nodes_verified"] == 5
    assert demo["chunks"] == report.cluster_demo["chunks"] > 0
