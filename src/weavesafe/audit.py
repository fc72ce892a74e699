"""Security verification for the secure codec.

Everything here is exact: leakage is an integer count of symbols (in
log-q units) obtained from a rank identity, the tiny-parameter oracle
counts codewords and reports mutual information as an exact rational,
and the decode certificates are explicit sequences of small nonsingular
solves that witness full rank constructively.

A subset of message indices plays the role of the symbols an
eavesdropper tries to pin down; all such subsets up to a target size
are enumerated lexicographically, sizes ascending, so the first
counterexample found is minimal and every run reports the same one.
Every check is a pure function of immutable inputs, so the (subset,
node) grid can be split across workers as long as results are merged
back in enumeration order.
"""

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations, product

from .errors import CapExceededError
from .linalg import Matrix, invert, mat_vec, rank, submatrix, vstack
from .weaksec import SecureCodec, index_sets, make_type_row, perfect_capacity

DEFAULT_VERIFY_CAP = 5_000_000
DEFAULT_ORACLE_CAP = 1 << 24


# -- rank-formula leakage ------------------------------------------------


def leakage(msg_rows: Matrix, observation: Matrix) -> int:
    """Symbols of information the observation reveals about the selected
    message rows: rank(msg) + rank(obs) - rank(stack), never negative."""
    if msg_rows.cols != observation.cols:
        raise ValueError(f"column mismatch: {msg_rows.cols} vs {observation.cols}")
    return rank(msg_rows) + rank(observation) - rank(vstack(msg_rows, observation))


@dataclass(frozen=True)
class LeakageReport:
    node: int
    subset: tuple
    leaked_symbols: int

    @property
    def secure(self) -> bool:
        return self.leaked_symbols == 0


@dataclass(frozen=True)
class VerifyResult:
    guesses: int
    baseline: bool
    passed: bool
    checks: int
    counterexample: LeakageReport | None


def _message_matrix(codec: SecureCodec, baseline: bool) -> Matrix:
    if baseline:
        return Matrix.identity(codec.field, codec.params.total_symbols)
    return codec.outer.parity_check


def verify_weak_secrecy(
    codec: SecureCodec,
    guesses: int,
    baseline: bool = False,
    max_checks: int = DEFAULT_VERIFY_CAP,
) -> VerifyResult:
    """Check zero leakage for every message subset of size <= guesses+1
    against every node; returns the first counterexample if one exists.

    baseline=True drops the outer code (identity parity check), which is
    how the bare inner code's security level is measured.
    """
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


# -- exact mutual-information oracle ---------------------------------------


def _exact_log2(num: int, den: int) -> int:
    g = math.gcd(num, den)
    num //= g
    den //= g
    if num & (num - 1) or den & (den - 1):
        raise ValueError(f"{num}/{den} is not a power of two; cannot express exactly")
    return num.bit_length() - den.bit_length()


def exhaustive_mi_oracle(
    codec: SecureCodec,
    subset: tuple,
    node: int,
    max_states: int = DEFAULT_ORACLE_CAP,
) -> Fraction:
    """Ground-truth mutual information between the selected message
    symbols and one node's stored symbols, in log-q units.

    Enumerates every codeword, bins the induced (message-part,
    observation) pairs, and counts.  Only feasible at toy parameters;
    the cap guards the q^B blowup.
    """
    p = codec.params
    f = codec.field
    states = f.order ** p.total_symbols
    if states > max_states:
        raise CapExceededError(f"{states} codewords exceed oracle cap {max_states}")
    for i in subset:
        if not 1 <= i <= p.secure_symbols:
            raise ValueError(f"message index {i} out of range 1..{p.secure_symbols}")
    gen = codec.inner.generator_matrix(node)
    check = codec.outer.parity_check

    joint: Counter = Counter()
    left: Counter = Counter()
    right: Counter = Counter()
    for codeword in product(range(f.order), repeat=p.total_symbols):
        syndrome = mat_vec(check, list(codeword))
        s = tuple(syndrome[i - 1] for i in subset)
        e = tuple(mat_vec(gen, list(codeword)))
        joint[(s, e)] += 1
        left[s] += 1
        right[e] += 1

    mi = Fraction(0)
    for (s, e), c in joint.items():
        exponent = _exact_log2(c * states, left[s] * right[e])
        if exponent:
            mi += Fraction(c, states) * Fraction(exponent, f.m)
    return mi


# -- decode certificates -----------------------------------------------------


@dataclass(frozen=True)
class CertStep:
    """One round of successive decoding: a square solve for some variables."""

    type_index: int
    variables: tuple  # 1-based codeword indices decoded here
    rows: tuple  # 0-based row indices into the certificate matrix
    sources: tuple  # per row: "check:<r>", "node", or "added:<r>"


@dataclass(frozen=True)
class DecodeCertificate:
    """Witness that a row set extends to a nonsingular square matrix.

    When success is true, the steps cover every variable exactly once
    and each step's coefficient submatrix was verified nonsingular, so
    replaying the steps solves matrix * y = z for any z.
    """

    matrix: Matrix | None
    steps: tuple
    appended: tuple  # (type_index, coeff_row) pairs added to reach square
    success: bool
    failure: str | None = None
    node: int | None = None
    subset: tuple | None = None


@dataclass(frozen=True)
class PlanStep:
    type_index: int
    check_rows: tuple  # positions within the message subset (0-based)
    uses_node_row: bool
    added_rows: tuple  # 1-based coefficient-matrix rows appended for this step
    variables: tuple  # 1-based codeword indices


@dataclass(frozen=True)
class CompletionPlan:
    success: bool
    failure: str | None
    steps: tuple
    appended: tuple  # (type_index, coeff_row) in append order


def plan_completion(k: int, d: int, row_types: tuple) -> CompletionPlan:
    """Pure bookkeeping core of the completion certificate.

    row_types lists (type, coeff_row) for the message-check rows under
    test; the node rows (one per type) are implicit.  The plan depends
    only on these counts, never on the node index or field values, so
    one plan certifies the row-selection for every node at once.
    """
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
        steps.append(PlanStep(t, tuple(check_rows_by_type[t]), True, hats, variables))
        decoded.update(variables)

    def small_step(t, expect):
        variables = undecoded(t)
        if len(variables) != expect:
            raise AssertionError(f"bookkeeping broke at type {t}")
        steps.append(PlanStep(t, tuple(check_rows_by_type[t]), True, (), variables))
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


def _check_steps(matrix: Matrix, steps) -> str | None:
    """Verify each step solves a nonsingular square system over variables
    not yet decoded, and that together the steps cover everything."""
    decoded: set = set()
    for step in steps:
        cols = [b - 1 for b in step.variables]
        if len(step.rows) != len(cols):
            return f"type {step.type_index} step is not square"
        for r in step.rows:
            support = {c + 1 for c, v in enumerate(matrix.data[r]) if v}
            stray = support - decoded - set(step.variables)
            if stray:
                return f"row {r} touches undecoded variables {sorted(stray)}"
        if rank(submatrix(matrix, step.rows, cols)) != len(cols):
            return f"type {step.type_index} step submatrix is singular"
        decoded.update(step.variables)
    if len(decoded) != matrix.cols:
        return f"steps decode {len(decoded)} of {matrix.cols} variables"
    return None


def certify_extended_parity(codec: SecureCodec) -> DecodeCertificate:
    """Constructive full-rank witness for the extended parity-check matrix.

    The steps are the coset encoder's own (``OuterCode.solve_steps``):
    type k first (it owns a full complement of rows), then down through
    type 2, then the single-row types above k, then type 1.  Each is
    re-verified here independently of how the encoder built it.
    """
    outer = codec.outer
    matrix = outer.parity_check_ext
    checks = len(outer.row_types)

    def source(r):
        hat = outer.ext_row_types[r][1]
        return f"check:{hat}" if r < checks else f"added:{hat}"

    steps = tuple(
        CertStep(s.type_index, s.variables, s.rows, tuple(source(r) for r in s.rows))
        for s in outer.solve_steps
    )
    problem = _check_steps(matrix, steps)
    return DecodeCertificate(
        matrix, steps, outer.ext_row_types[checks:], problem is None, problem
    )


def certify_completion(codec: SecureCodec, subset: tuple, node: int) -> DecodeCertificate:
    """Extend [selected check rows; node rows] to a certified square matrix.

    Mirrors the planner's row budget exactly; a declared failure is
    surfaced in the certificate rather than retried differently.
    """
    p = codec.params
    outer = codec.outer
    for i in subset:
        if not 1 <= i <= p.secure_symbols:
            raise ValueError(f"message index {i} out of range 1..{p.secure_symbols}")
    row_types = tuple(outer.row_types[i - 1] for i in subset)
    plan = plan_completion(p.k, p.d, row_types)

    gen = codec.inner.generator_matrix(node)
    rows = [outer.parity_check.row(i - 1) for i in subset]
    rows.extend(gen.data)
    appended_at = {}
    for t, hat in plan.appended:
        appended_at[(t, hat)] = len(rows)
        rows.append(make_type_row(codec.field, p.k, p.d, t, outer.coeff_matrix.row(hat - 1)))
    matrix = Matrix(codec.field, rows)

    if not plan.success:
        return DecodeCertificate(
            matrix, (), plan.appended, False, plan.failure, node, tuple(subset)
        )

    node_row = {t: len(subset) + (t - 1) for t in range(1, p.d + 1)}
    steps = []
    for ps in plan.steps:
        idx = []
        src = []
        for pos in ps.check_rows:
            idx.append(pos)
            src.append(f"check:{row_types[pos][1]}")
        if ps.uses_node_row:
            idx.append(node_row[ps.type_index])
            src.append("node")
        for hat in ps.added_rows:
            idx.append(appended_at[(ps.type_index, hat)])
            src.append(f"added:{hat}")
        steps.append(CertStep(ps.type_index, ps.variables, tuple(idx), tuple(src)))

    problem = _check_steps(matrix, steps)
    return DecodeCertificate(
        matrix, tuple(steps), plan.appended, problem is None, problem, node, tuple(subset)
    )


def replay_certificate(cert: DecodeCertificate, codeword: list[int]) -> list[int]:
    """Re-run the certificate's solves on matrix * codeword and return the
    recovered codeword; exact equality with the input is the soundness test."""
    if not cert.success:
        raise ValueError(f"cannot replay a failed certificate: {cert.failure}")
    matrix = cert.matrix
    f = matrix.field
    z = mat_vec(matrix, codeword)
    known: dict = {}
    for step in cert.steps:
        cols = [b - 1 for b in step.variables]
        rhs = []
        for r in step.rows:
            acc = z[r]
            for c, v in enumerate(matrix.data[r]):
                if v and (c + 1) in known:
                    acc ^= f.mul(v, known[c + 1])
            rhs.append(acc)
        square = submatrix(matrix, step.rows, cols)
        for b, val in zip(step.variables, mat_vec(invert(square), rhs)):
            known[b] = val
    return [known[b] for b in range(1, matrix.cols + 1)]


# -- aggregated report -------------------------------------------------------


@dataclass
class AuditReport:
    params: tuple
    total_symbols: int
    secure_symbols: int
    max_guesses: int
    perfect_secure_symbols: int
    baseline_guesses: int
    improvement: int
    weak_secrecy: VerifyResult
    baseline_fail: VerifyResult
    baseline_pass: VerifyResult
    certificate_steps: int
    certificate_success: bool
    cluster_demo: dict | None = None
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        def verdict(v: VerifyResult) -> dict:
            out = {
                "guesses": v.guesses,
                "baseline": v.baseline,
                "passed": v.passed,
                "checks": v.checks,
            }
            if v.counterexample:
                out["counterexample"] = {
                    "node": v.counterexample.node,
                    "subset": list(v.counterexample.subset),
                    "leaked_symbols": v.counterexample.leaked_symbols,
                }
            return out

        n, k, d, m = self.params
        out = {
            "params": {"n": n, "k": k, "d": d, "m": m},
            "total_symbols": self.total_symbols,
            "secure_symbols": self.secure_symbols,
            "max_guesses": self.max_guesses,
            "perfect_secrecy": {
                "secure_symbols": self.perfect_secure_symbols,
                "capacity_loss": self.total_symbols - self.perfect_secure_symbols,
            },
            "baseline_guesses": self.baseline_guesses,
            "improvement_over_baseline": self.improvement,
            "weak_secrecy": verdict(self.weak_secrecy),
            "baseline_fail_probe": verdict(self.baseline_fail),
            "baseline_pass_probe": verdict(self.baseline_pass),
            "full_rank_certificate": {
                "steps": self.certificate_steps,
                "success": self.certificate_success,
            },
        }
        if self.cluster_demo is not None:
            out["cluster_demo"] = self.cluster_demo
        out.update(self.extras)
        return out

    def to_text(self) -> str:
        n, k, d, m = self.params
        lines = [
            f"params: n={n} k={k} d={d} m={m}",
            f"codeword symbols: {self.total_symbols}",
            f"secure message symbols: {self.secure_symbols}",
            f"perfect-secrecy capacity (one observed node): {self.perfect_secure_symbols}",
            f"capacity kept over perfect secrecy: +{self.secure_symbols - self.perfect_secure_symbols}",
            f"tolerated guesses: {self.max_guesses}",
            f"bare inner code tolerates: {self.baseline_guesses}",
            f"improvement: +{self.improvement} guesses",
            "",
            f"weak secrecy at g={self.weak_secrecy.guesses}: "
            f"{'PASS' if self.weak_secrecy.passed else 'FAIL'} "
            f"({self.weak_secrecy.checks} rank checks)",
        ]
        if self.weak_secrecy.counterexample:
            ce = self.weak_secrecy.counterexample
            lines.append(
                f"  counterexample: node {ce.node}, subset {list(ce.subset)}, "
                f"leaks {ce.leaked_symbols} symbol(s)"
            )
        for label, v in (
            ("baseline (no outer code)", self.baseline_fail),
            ("baseline (no outer code)", self.baseline_pass),
        ):
            lines.append(
                f"{label} at g={v.guesses}: {'PASS' if v.passed else 'FAIL'} ({v.checks} rank checks)"
            )
            if v.counterexample:
                ce = v.counterexample
                lines.append(
                    f"  counterexample: node {ce.node}, subset {list(ce.subset)}, "
                    f"leaks {ce.leaked_symbols} symbol(s)"
                )
        lines.append(
            f"full-rank certificate: {'PASS' if self.certificate_success else 'FAIL'} "
            f"({self.certificate_steps} solve steps)"
        )
        if self.cluster_demo is not None:
            cd = self.cluster_demo
            lines.append(
                f"cluster demo: {cd['chunks']} chunks, observation model verified on "
                f"{cd['nodes_verified']} of {cd['nodes']} nodes"
            )
        return "\n".join(lines)


def audit_report(
    codec: SecureCodec,
    guesses: int | None = None,
    max_checks: int = DEFAULT_VERIFY_CAP,
    cluster_root=None,
) -> AuditReport:
    """Run the standard battery and collect one structured report."""
    p = codec.params
    g = p.max_guesses if guesses is None else guesses
    weak = verify_weak_secrecy(codec, g, max_checks=max_checks)
    base_fail = verify_weak_secrecy(codec, p.k - 1, baseline=True, max_checks=max_checks)
    base_pass = verify_weak_secrecy(codec, p.k - 2, baseline=True, max_checks=max_checks)
    cert = certify_extended_parity(codec)
    demo = None
    if cluster_root is not None:
        demo = _cluster_observation_demo(codec, cluster_root)
    return AuditReport(
        params=(p.n, p.k, p.d, p.m),
        total_symbols=p.total_symbols,
        secure_symbols=p.secure_symbols,
        max_guesses=p.max_guesses,
        perfect_secure_symbols=perfect_capacity(p.k, p.d, 1),
        baseline_guesses=p.k - 2,
        improvement=p.max_guesses - (p.k - 2),
        weak_secrecy=weak,
        baseline_fail=base_fail,
        baseline_pass=base_pass,
        certificate_steps=len(cert.steps),
        certificate_success=cert.success,
        cluster_demo=demo,
    )


def _cluster_observation_demo(codec: SecureCodec, root) -> dict:
    """Check, on real share files, that each node stores exactly its
    generator matrix applied to the codeword stream."""
    from . import store

    cluster = store.Cluster(root)
    share_cols = {e: cluster.read_share_columns(e) for e in cluster.live_nodes()}
    from .pm_mbr import reconstruct_bulk

    codeword_cols = reconstruct_bulk(codec.inner, share_cols)
    ok = 0
    for e, cols in share_cols.items():
        expected = codec.field.mat_mul_cols(codec.inner.generator_matrix(e).data, codeword_cols)
        if (expected == cols).all():
            ok += 1
    return {
        "chunks": int(codeword_cols.shape[1]),
        "nodes": len(share_cols),
        "nodes_verified": ok,
    }
