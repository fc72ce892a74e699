"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
timing lines.  Every expected value here is exact; the only tolerances
are the wall-clock budgets.
"""

import hashlib
import os
import random
import time
from fractions import Fraction
from itertools import combinations

from conftest import grid_params
from weavesafe.audit import (
    certify_completion,
    certify_extended_parity,
    exhaustive_mi_oracle,
    leakage,
    plan_completion,
    replay_certificate,
    verify_weak_secrecy,
)
from weavesafe.linalg import all_square_submatrices_nonsingular, rank, submatrix
from weavesafe.pm_mbr import params_new
from weavesafe.store import (
    Cluster,
    cluster_fail,
    cluster_reconstruct,
    cluster_repair,
    cluster_store,
)
from weavesafe.weaksec import index_sets, make_codec, type_cardinalities


def _verdict(number: int, label: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"criterion {number} PASS ({elapsed:.2f}s < {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_running_example_fidelity(codec534):
    t0 = time.time()
    p = codec534.params
    assert p.total_symbols == 9
    assert p.secure_symbols == 7
    assert type_cardinalities(3, 4) == (0, 3, 3, 1)
    assert index_sets(3, 4)[3] == (4, 7, 9)

    h = codec534.outer.parity_check
    assert (h.rows, h.cols) == (7, 9)
    supports = [tuple(j + 1 for j, v in enumerate(row) if v) for row in h.data]
    assert supports == [
        (2, 5, 6, 7),
        (2, 5, 6, 7),
        (2, 5, 6, 7),
        (3, 6, 8, 9),
        (3, 6, 8, 9),
        (3, 6, 8, 9),
        (4, 7, 9),
    ]
    coeff = submatrix(codec534.params.cauchy_stack, range(5, 9), range(4))  # coefficient rows
    for r, (type_i, source_row) in enumerate(codec534.outer.row_types):
        values = [v for v in h.data[r] if v]
        width = 4 if type_i <= 3 else 3
        assert values == coeff.data[source_row - 1][:width]

    ext = codec534.outer.parity_check_ext
    assert rank(ext) == 9  # invertible extension
    _verdict(1, "running example: sizes, type counts, check-matrix pattern", t0, 1.0)


def test_criterion_2_weak_secrecy_at_full_strength(codec534):
    t0 = time.time()
    result = verify_weak_secrecy(codec534, 3)
    assert result.passed
    assert result.counterexample is None
    assert result.checks == 490  # 98 subsets x 5 nodes, all leakage zero
    _verdict(2, "weak secrecy holds at g=3 (490 exact rank checks)", t0, 5.0)


def test_criterion_3_baseline_with_and_without_outer_code(codec534):
    t0 = time.time()
    failing = verify_weak_secrecy(codec534, 2, baseline=True)
    assert not failing.passed
    assert len(failing.counterexample.subset) == 3  # minimal: sizes 1-2 all pass
    assert failing.counterexample.leaked_symbols >= 1
    passing = verify_weak_secrecy(codec534, 1, baseline=True)
    assert passing.passed
    _verdict(3, "bare inner code: leaks at g=2 via a size-3 subset, safe at g=1", t0, 5.0)


def test_criterion_4_enumeration_ground_truth(codec322):
    t0 = time.time()
    p = codec322.params
    h = codec322.outer.parity_check
    pairs = 0
    for size in range(0, p.secure_symbols + 1):
        for subset in combinations(range(1, p.secure_symbols + 1), size):
            for node in range(1, p.n + 1):
                exact = exhaustive_mi_oracle(codec322, subset, node)
                if subset:
                    rows = submatrix(h, [i - 1 for i in subset], range(h.cols))
                    formula = leakage(rows, codec322.inner.generator_matrix(node))
                else:
                    formula = 0
                assert exact == Fraction(formula), (subset, node)
                pairs += 1
    assert pairs == 6  # two subsets x three nodes, 512 codewords each
    _verdict(4, "512-codeword enumeration equals the rank formula exactly", t0, 1.0)


def test_criterion_5_capacity_across_the_grid():
    t0 = time.time()
    rng = random.Random(5)
    checked = 0
    for k in range(2, 11):
        for d in range(k, 11):
            codec = make_codec(grid_params(k, d))
            p = codec.params
            counts = type_cardinalities(k, d)
            assert sum(counts) == p.secure_symbols, (k, d)
            assert rank(codec.outer.parity_check) == p.secure_symbols, (k, d)
            assert rank(codec.outer.parity_check_ext) == p.total_symbols, (k, d)
            cert = certify_extended_parity(codec)
            assert cert.success, (k, d)
            y = [rng.randrange(codec.field.order) for _ in range(p.total_symbols)]
            assert replay_certificate(cert, y) == y, (k, d)
            checked += 1
    assert checked == 45
    _verdict(5, "secure capacity and invertible extension on all 45 (k,d) pairs", t0, 30.0)


def test_criterion_6_completion_coverage():
    """Exhaustive success of the completion algorithm over the grid.

    Three layers per (k, d) pair:
      - every square submatrix of the Cauchy stack is checked nonsingular,
        which covers the coefficient system of every decode step any
        certificate can take, for every node;
      - the row-budget plan runs for every subset within the bound (its
        trace provably does not depend on the observed node, which the
        per-node runs below spot-check);
      - full certificates, step checks included, replay exactly for every
        (subset, node) on the pairs where that is affordable and for a
        seeded sample everywhere else.
    """
    t0 = time.time()
    rng = random.Random(6)
    fully_certified = {(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)}
    plans = certs = 0
    for k in range(2, 7):
        for d in range(k, 7):
            codec = make_codec(grid_params(k, d))
            p = codec.params
            bound = d + k - 3
            assert all_square_submatrices_nonsingular(p.cauchy_stack, p.d) is True

            subsets = [
                subset
                for size in range(0, bound + 1)
                for subset in combinations(range(1, p.secure_symbols + 1), size)
            ]
            row_types = codec.outer.row_types
            for subset in subsets:
                plan = plan_completion(k, d, tuple(row_types[i - 1] for i in subset))
                assert plan.success, (k, d, subset)
                plans += 1

            if (k, d) in fully_certified:
                chosen = subsets
            else:
                chosen = [subsets[i] for i in sorted(rng.sample(range(len(subsets)), 40))]
            for subset in chosen:
                for node in range(1, p.n + 1):
                    cert = certify_completion(codec, subset, node)
                    assert cert.success, (k, d, subset, node)
                    assert len(cert.appended) == p.total_symbols - len(subset) - p.d
                    y = [rng.randrange(codec.field.order) for _ in range(p.total_symbols)]
                    assert replay_certificate(cert, y) == y, (k, d, subset, node)
                    certs += 1
    assert plans == 409144  # every subset within the bound, all 15 pairs
    print(f"  [criterion 6: {plans} plans, {certs} full certificates replayed]")
    _verdict(6, "completion succeeds across the grid, certificates replay", t0, 120.0)


def test_criterion_7_systems_roundtrip(tmp_path):
    t0 = time.time()
    params = params_new(5, 3, 4, 8)  # 2^8 = 256 >= 13
    data = os.urandom(1 << 20)  # 1 MiB
    root = tmp_path / "cluster"

    cluster_store(data, params, root, seed=2024)
    share_path = Cluster(root).share_path(2)
    before = share_path.read_bytes()

    cluster_fail(root, 2)
    stats = cluster_repair(root, 2)
    assert share_path.read_bytes() == before  # bit-identical repair
    assert stats.symbols_downloaded == params.d * stats.chunk_count
    assert stats.symbols_per_chunk == params.d  # one symbol per helper

    out = cluster_reconstruct(root)
    assert out == data
    assert hashlib.sha256(out).hexdigest() == Cluster(root).manifest().digest_sha256
    _verdict(7, "1 MiB encode/fail/repair/reconstruct, exact bytes and accounting", t0, 30.0)


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    params = params_new(5, 3, 4, 8)
    data = os.urandom(100_000)
    cluster_store(data, params, tmp_path / "a", seed=77)
    cluster_store(data, params, tmp_path / "b", seed=77)
    for e in range(1, 6):
        a = Cluster(tmp_path / "a").share_path(e).read_bytes()
        b = Cluster(tmp_path / "b").share_path(e).read_bytes()
        assert a == b, f"node {e} shares differ between identically seeded runs"
    assert (
        (tmp_path / "a" / "manifest.json").read_bytes()
        == (tmp_path / "b" / "manifest.json").read_bytes()
    )
    _verdict(8, "identical seeds give bit-identical share files and manifests", t0, 30.0)
