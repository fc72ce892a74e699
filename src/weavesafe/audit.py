"""Security verification for the secure codec.

Everything here is exact: leakage is an integer count of symbols (in
log-q units) obtained from a rank identity, the tiny-parameter oracle
counts codewords and reports mutual information as an exact rational,
and the decode certificates are explicit sequences of small nonsingular
solves that witness full rank constructively.  No share file is read
here: the CLI adds the store's check of a cluster to the report.

A subset of message indices plays the role of the symbols an
eavesdropper tries to pin down; all such subsets up to a target size
are enumerated lexicographically, sizes ascending, so the first
counterexample found is minimal and every run reports the same one.

What node e learns about the message rows H_S of the check matrix is
rank(H_S) + rank(G_e) - rank([H_S; G_e]), with G_e the node's generator
matrix; ``leakage`` computes exactly that.  When the check matrix has
full row rank, rank(H_S) = |S| and the identity becomes

    leakage(S, e) = |S| - rank(H_S reduced modulo rowspace(G_e)).

The parity-check matrix H has full row rank because the coset encoder's
nonsingular solve steps invert its square extension; the identity
matrix of the baseline (no outer code) has it trivially.  The verifier
therefore reduces the check matrix modulo every node's G_e at once (the
inner code's generator stack in, one (nodes x rows x width) array out,
``linalg.quotient_stack``): it eliminates the nodes' rows alone and
applies each basis to the check rows with one GF kernel product, for all
nodes whose pivots agree.  It then walks each size level's subsets as
prefixes, keeping every node's remaining rows reduced modulo the prefix:
a check is one test for zero.  The walk
(``linalg.first_dependent_subset``) handles blocks of prefixes as whole
arrays, a bounded number of symbols at a time, and reports checks and
the first hit in the order above.  Sizes go up one at a time, so each
prefix is already known independent and a leaking subset leaks exactly
one symbol; the walk asserts this rather than assuming it.

``leakage`` re-derives the verdict's witness as an oracle.  It stays on
the scalar forward sweep of ``linalg.rank``, which neither the engine's
batched row update nor the kernel shares, so the two computations can
only agree by both being right.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import CapExceededError, ParameterError
from .linalg import (
    Matrix,
    first_dependent_subset,
    invert,
    mat_vec,
    quotient_stack,
    rank,
    submatrix,
    vstack,
)
from .pm_mbr import CodeParams, message_cells
from .weaksec import SecureCodec, index_sets, perfect_capacity

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


@dataclass(frozen=True)
class VerifyResult:
    guesses: int
    baseline: bool
    passed: bool
    checks: int
    counterexample: LeakageReport | None

    def to_dict(self) -> dict:
        out = {
            "guesses": self.guesses,
            "baseline": self.baseline,
            "passed": self.passed,
            "checks": self.checks,
        }
        if self.counterexample:
            ce = self.counterexample
            out["counterexample"] = {
                "node": ce.node,
                "subset": list(ce.subset),
                "leaked_symbols": ce.leaked_symbols,
            }
        return out

    def to_lines(self, label: str) -> list[str]:
        """The verdict as text: one line, and one more for a counterexample."""
        lines = [
            f"{label} at g={self.guesses}: {'PASS' if self.passed else 'FAIL'} "
            f"({self.checks} rank checks)"
        ]
        if self.counterexample:
            ce = self.counterexample
            lines.append(
                f"  counterexample: node {ce.node}, subset {list(ce.subset)}, "
                f"leaks {ce.leaked_symbols} symbol(s)"
            )
        return lines


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

    Checks run sizes ascending, then subsets in lexicographic order, then
    nodes, and ``checks`` counts them up to the first leak.  Each node's
    check rows are reduced once modulo its generator's row space; a
    size-s level then walks subsets as prefixes and costs one zero test
    per check.  ``leakage`` re-derives the counterexample, or on a pass
    the last subset against every node, and any disagreement raises
    AssertionError.
    """
    p = codec.params
    check_matrix = _message_matrix(codec, baseline)
    width = check_matrix.rows
    if not 0 <= guesses <= width - 1:
        raise ParameterError(f"guesses {guesses} out of range 0..{width - 1}")
    total = sum(math.comb(width, s) for s in range(1, guesses + 2)) * p.n
    if total > max_checks:
        raise CapExceededError(f"{total} rank checks exceed cap {max_checks}")

    nodes = range(1, p.n + 1)
    generators = codec.inner.generator_stack.reshape(p.n, p.d, -1)
    quotients = quotient_stack(codec.field, check_matrix.data, generators)
    checks = 0
    for size in range(1, guesses + 2):
        visited, subset, group = first_dependent_subset(codec.field, quotients, size)
        checks += visited
        if subset is not None:
            # Every smaller subset passed, so the prefix is independent
            # modulo the node's rows and exactly one symbol leaks.
            report = LeakageReport(nodes[group], tuple(i + 1 for i in subset), 1)
            _cross_check(codec, check_matrix, report)
            return VerifyResult(guesses, baseline, False, checks, report)
    last = tuple(range(width - guesses, width + 1))
    for e in nodes:
        _cross_check(codec, check_matrix, LeakageReport(e, last, 0))
    return VerifyResult(guesses, baseline, True, checks, None)


def _cross_check(codec: SecureCodec, check_matrix: Matrix, report: LeakageReport) -> None:
    """Recompute one verdict with the rank-formula oracle."""
    rows = submatrix(check_matrix, [i - 1 for i in report.subset], range(check_matrix.cols))
    leaked = leakage(rows, codec.inner.generator_matrix(report.node))
    if leaked != report.leaked_symbols:
        raise AssertionError(
            f"audit engine found {report.leaked_symbols} leaked symbol(s) for subset "
            f"{report.subset} at node {report.node}, the rank formula {leaked}"
        )


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

    Step order, variables and failure depend only on the per-type row
    counts and are memoized on them; the coefficient rows already used
    pick the rows each step appends, and the subset's own positions are
    mapped back into each step.
    """
    positions = [[] for _ in range(d + 1)]
    used_hats = [[] for _ in range(d + 1)]
    for pos, (t, hat) in enumerate(row_types):
        positions[t].append(pos)
        used_hats[t].append(hat)
    skeleton, failure = _plan_skeleton(k, d, tuple(map(len, positions)))

    steps = [
        _plan_step(d, t, tuple(positions[t]), tuple(used_hats[t]), extra, variables)
        for t, extra, variables in skeleton
    ]
    appended = [(s.type_index, h) for s in steps for h in s.added_rows]
    return CompletionPlan(failure is None, failure, tuple(steps), tuple(appended))


@lru_cache(maxsize=1 << 14)
def _plan_step(d: int, t: int, check_rows: tuple, used: tuple, extra, variables: tuple) -> PlanStep:
    """One plan step.  A full step (extra is not None) appends the first
    ``extra`` coefficient rows of type t, in order, that are not in used."""
    hats = ()
    if extra is not None:
        hats = tuple(h for h in range(1, d + 1) if h not in used)[:extra]
        if len(hats) != extra:
            raise AssertionError(f"bookkeeping broke at type {t}")
    return PlanStep(t, check_rows, hats, variables)


@lru_cache(maxsize=None)
def _plan_skeleton(k: int, d: int, counts: tuple) -> tuple:
    """The part of a completion plan fixed by the per-type row counts
    (counts[t] rows of type t; counts[0] is unused).

    Returns (steps, failure): per step its type, the number of rows it
    appends (None when it uses only the rows present) and its variables;
    failure is None, or the reason the plan stops after those steps.
    """
    total = len(message_cells(k, d))
    ind = index_sets(k, d)
    lam = tuple(1 + c for c in counts)  # the node row adds one per type
    decoded: set = set()
    steps: list = []

    def step(t, equations, extra):
        variables = tuple(b for b in ind[t - 1] if b not in decoded)
        if len(variables) != equations:
            raise AssertionError(f"bookkeeping broke at type {t}")
        steps.append((t, extra, variables))
        decoded.update(variables)

    group_one = sorted(range(1, k + 1), key=lambda t: (lam[t], t))
    group_two = sorted(range(k + 1, d + 1), key=lambda t: (lam[t], t))
    two_row = [t for t in group_two if lam[t] == 2]
    one_row = [t for t in group_two if lam[t] == 1]

    def fail(t, have):
        reason = f"type {t} has {lam[t]} rows present but only {have} variables remain undecoded"
        return tuple(steps), reason

    remaining = d
    for pos in range(k - 1, 1, -1):  # none when k == 2
        t = group_one[pos]
        if lam[t] > remaining:
            return fail(t, remaining)
        step(t, remaining, remaining - lam[t])
        remaining -= 1
    for t in two_row:
        step(t, 2, None)
    remaining -= len(two_row)
    t = group_one[1]
    if lam[t] > remaining:
        return fail(t, remaining)
    step(t, remaining, remaining - lam[t])
    for t in one_row:
        step(t, 1, None)
    step(group_one[0], 1, None)

    if len(decoded) != total:
        raise AssertionError(f"plan decoded {len(decoded)} of {total} variables")
    if sum(extra or 0 for _, extra, _ in steps) != total - sum(counts) - d:
        raise AssertionError("append count does not square the matrix")
    return tuple(steps), None


def _check_steps(matrix: Matrix, steps) -> str | None:
    """Verify each step solves a nonsingular square system over variables
    not yet decoded, and that together the steps cover everything."""
    decoded: set = set()
    for step in steps:
        cols = [b - 1 for b in step.variables]
        if len(step.rows) != len(cols):
            return f"type {step.type_index} step is not square"
        allowed = decoded.union(step.variables)
        outside = [c for c in range(matrix.cols) if c + 1 not in allowed]
        for r in step.rows:
            row = matrix.data[r]
            if any(map(row.__getitem__, outside)):
                stray = [c + 1 for c in outside if row[c]]
                return f"row {r} touches undecoded variables {stray}"
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
    steps = tuple(CertStep(s.type_index, s.variables, s.rows) for s in outer.solve_steps)
    problem = _check_steps(matrix, steps)
    appended = outer.ext_row_types[len(outer.row_types) :]
    return DecodeCertificate(matrix, steps, appended, problem is None, problem)


def certify_completion(codec: SecureCodec, subset: tuple, node: int) -> DecodeCertificate:
    """Extend [selected check rows; node rows] to a certified square matrix.

    Mirrors the planner's row budget exactly; a declared failure is
    surfaced in the certificate rather than retried differently.
    """
    outer, p = codec.outer, codec.params
    for i in subset:
        if not 1 <= i <= p.secure_symbols:
            raise ValueError(f"message index {i} out of range 1..{p.secure_symbols}")
    p.check_node(node)
    row_types = tuple(outer.row_types[i - 1] for i in subset)
    plan = plan_completion(p.k, p.d, row_types)

    # Every row is a typed row: the subset's check rows, the node's d rows
    # (its Cauchy row on each type) and the appended coefficient rows.
    at = [(p.n + hat - 1, t - 1) for t, hat in row_types]
    at += [(node - 1, t) for t in range(p.d)]
    at += [(p.n + hat - 1, t - 1) for t, hat in plan.appended]
    matrix = Matrix.derived(codec.field, p.typed_rows[tuple(zip(*at))].tolist())
    appended_at = {a: len(subset) + p.d + i for i, a in enumerate(plan.appended)}

    if not plan.success:
        return DecodeCertificate(
            matrix, (), plan.appended, False, plan.failure, node, tuple(subset)
        )

    steps = []
    for ps in plan.steps:
        # The subset's check rows, the node's row of this type, the appended rows.
        idx = ps.check_rows + (len(subset) + ps.type_index - 1,)
        idx += tuple(appended_at[(ps.type_index, hat)] for hat in ps.added_rows)
        steps.append(CertStep(ps.type_index, ps.variables, idx))

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
    params: CodeParams
    weak_secrecy: VerifyResult
    baseline_fail: VerifyResult
    baseline_pass: VerifyResult
    certificate_steps: int
    certificate_success: bool
    cluster_demo: dict | None = None

    def to_dict(self) -> dict:
        p = self.params
        perfect = perfect_capacity(p.k, p.d, 1)
        baseline = self.baseline_pass.guesses  # what the bare inner code tolerates
        out = {
            "params": {"n": p.n, "k": p.k, "d": p.d, "m": p.m},
            "total_symbols": p.total_symbols,
            "secure_symbols": p.secure_symbols,
            "max_guesses": p.max_guesses,
            "perfect_secrecy": {
                "secure_symbols": perfect,
                "capacity_loss": p.total_symbols - perfect,
            },
            "baseline_guesses": baseline,
            "improvement_over_baseline": p.max_guesses - baseline,
            "weak_secrecy": self.weak_secrecy.to_dict(),
            "baseline_fail_probe": self.baseline_fail.to_dict(),
            "baseline_pass_probe": self.baseline_pass.to_dict(),
            "full_rank_certificate": {
                "steps": self.certificate_steps,
                "success": self.certificate_success,
            },
        }
        if self.cluster_demo is not None:
            out["cluster_demo"] = self.cluster_demo
        return out

    def to_text(self) -> str:
        doc = self.to_dict()
        perfect = doc["perfect_secrecy"]["secure_symbols"]
        lines = [
            "params: " + " ".join(f"{key}={value}" for key, value in doc["params"].items()),
            f"codeword symbols: {doc['total_symbols']}",
            f"secure message symbols: {doc['secure_symbols']}",
            f"perfect-secrecy capacity (one observed node): {perfect}",
            f"capacity kept over perfect secrecy: +{doc['secure_symbols'] - perfect}",
            f"tolerated guesses: {doc['max_guesses']}",
            f"bare inner code tolerates: {doc['baseline_guesses']}",
            f"improvement: +{doc['improvement_over_baseline']} guesses",
            "",
        ]
        lines += self.weak_secrecy.to_lines("weak secrecy")
        for v in (self.baseline_fail, self.baseline_pass):
            lines += v.to_lines("baseline (no outer code)")
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
) -> AuditReport:
    """Run the standard battery and collect one structured report."""
    p = codec.params
    g = p.max_guesses if guesses is None else guesses
    weak = verify_weak_secrecy(codec, g, max_checks=max_checks)
    base_fail = verify_weak_secrecy(codec, p.k - 1, baseline=True, max_checks=max_checks)
    base_pass = verify_weak_secrecy(codec, p.k - 2, baseline=True, max_checks=max_checks)
    cert = certify_extended_parity(codec)
    return AuditReport(
        params=p,
        weak_secrecy=weak,
        baseline_fail=base_fail,
        baseline_pass=base_pass,
        certificate_steps=len(cert.steps),
        certificate_success=cert.success,
    )
