"""prove decides a trace on whole columns; these tests hold its refusals to the
step-by-step decision it replaced, kept here as an oracle."""

import random

import pytest

from conftest import STEP_CHECK_CASES, TRIAL_MODULI, random_spec
from forgeries import WRAPPING_SYSTEM, forge_proof, tamper_randomly, with_cell, wrapping_trace
from projstark import protocol
from projstark.air import FAMILIES, FieldOverflowError, InvalidTraceError, constraints
from projstark.channel import FiatShamirTranscript
from projstark.dynamics import ExecutionTrace, SystemSpec, online_check, simulate
from projstark.field import PrimeField
from projstark.reference_example import MODULUS, SYSTEM

SECTIONS = ("z", "alpha_up", "alpha_lo", "delta")


def step_by_step(spec, trace, field, forged):
    """The lifted trace, or the refusal, of checking the integer rows step by
    step: the boundary condition, then at each step the online checks and
    then every constraint, which must be exactly 0; then each cell, row by
    row, must have magnitude below q. `forged` skips all but the last."""
    q, n = field.modulus, spec.n
    if not forged:
        for i, (z0, init) in enumerate(zip(trace.z_rows[0], spec.z_init)):
            if z0 != init:
                raise InvalidTraceError(f"boundary condition violated for coordinate {i}")
        for j in range(spec.num_steps):
            reason = online_check(spec, trace.step(j))
            if reason is not None:
                raise InvalidTraceError(f"online check failed at step {j}: {reason}")
            row = (*trace.z_rows[j], *trace.alpha_up_rows[j], *trace.alpha_lo_rows[j],
                   *trace.delta_rows[j])
            for k, value in enumerate(constraints(spec, row, trace.z_rows[j + 1])):
                if value:
                    raise InvalidTraceError(
                        f"constraint {FAMILIES[k // n]}[{k % n}] fails at step {j}")

    def lift(rows):
        out = []
        for row in rows:
            for v in row:
                if abs(v) >= q:
                    raise FieldOverflowError(f"trace value {v} has magnitude >= q={q}")
            out.append(tuple(v % q for v in row))
        return tuple(out)

    return ExecutionTrace(spec, lift(trace.z_rows), lift(trace.alpha_up_rows),
                          lift(trace.alpha_lo_rows), lift(trace.delta_rows))


class Lifted(Exception):
    """Raised in place of interpolation: prove got as far as a lifted trace."""


def outcome(decide):
    try:
        return "lifted", decide()
    except (InvalidTraceError, FieldOverflowError) as exc:
        return type(exc), str(exc)
    except Lifted as lifted:
        return "lifted", lifted.args[0]


@pytest.fixture()
def decided(monkeypatch):
    """(prove's outcome, the oracle's) for a trace, or with `forged`,
    forge_proof's and the oracle's lift alone."""
    def stop(trace, domain):
        raise Lifted(trace)

    monkeypatch.setattr(protocol, "build_trace_polys", stop)

    def both(field, spec, trace, forged=False):
        def by_prove():
            (forge_proof if forged else protocol.prove)(
                field, spec, trace, FiatShamirTranscript(field.modulus), num_queries=1)
            raise AssertionError("prove went past interpolation")

        return outcome(by_prove), outcome(lambda: step_by_step(spec, trace, field, forged))

    return both


def _kind(decision):
    """"lifted", "overflow", or the refusal's first word: boundary, online or constraint."""
    if decision[0] == "lifted":
        return "lifted"
    return "overflow" if decision[0] is FieldOverflowError else decision[1].split()[0]


# the decisions each set of edited traces below reaches, forged or not
KINDS = {"lifted", "boundary", "online", "constraint"}


def test_step_check_cases_are_decided_as_step_by_step(decided):
    kinds = set()
    for field, spec, trace in STEP_CHECK_CASES:
        for forged in (False, True):
            got, want = decided(field, spec, trace, forged)
            assert got == want, (field.modulus, spec, forged)
            kinds.add(_kind(got))
    assert kinds == {"lifted", "constraint"}


def test_criterion_07_traces_are_decided_as_step_by_step(decided):
    # the 200 tampered traces of acceptance criterion 07, drawn as it draws them
    rng = random.Random(1007)
    kinds = set()
    for _ in range(200):
        q = rng.choice((61, 61, 61, 211))
        orders = [m for m in range(2, 13, 2) if (q - 1) % m == 0]
        spec = random_spec(rng, q, orders=orders)
        tampered = tamper_randomly(rng, spec, simulate(spec), q)
        for forged in (False, True):
            got, want = decided(PrimeField(q), spec, tampered, forged)
            assert got == want, (q, spec, tampered, forged)
            kinds.add(_kind(got))
    assert kinds == KINDS


def test_a_trace_that_holds_only_mod_q_is_decided_as_step_by_step(decided):
    field = PrimeField(MODULUS)
    for forged in (False, True):
        got, want = decided(field, WRAPPING_SYSTEM, wrapping_trace(), forged)
        assert got == want
    assert got[0] == "lifted"
    assert decided(field, WRAPPING_SYSTEM, wrapping_trace())[0] == (
        InvalidTraceError, "constraint transition[0] fails at step 0")


def test_single_cell_edits_of_the_paper_trace_are_decided_as_step_by_step(decided):
    field, q = PrimeField(MODULUS), MODULUS
    trace = simulate(SYSTEM)
    kinds = set()
    for section in SECTIONS:
        rows = getattr(trace, section + "_rows")
        for row in range(len(rows)):
            for i in range(SYSTEM.n):
                old = rows[row][i]
                for value in {old + 1, old - 1, old + 2, old - 2, -1, q, -q} - {old}:
                    edited = with_cell(trace, section, row, i, value)
                    for forged in (False, True):
                        got, want = decided(field, SYSTEM, edited, forged)
                        assert got == want, (section, row, i, value, forged)
                        kinds.add(_kind(got))
    assert kinds == KINDS | {"overflow"}


def test_two_failing_steps_are_decided_as_step_by_step(decided):
    # one step's online check and another's constraint, in either order or at
    # the same step: the earlier step, and at one step the online check, decides
    field = PrimeField(MODULUS)
    trace = simulate(SYSTEM)
    def online(t, j):
        return with_cell(t, "alpha_up", j, 1, 2)

    def slack(t, j):
        return with_cell(t, "delta", j, 0, t.delta_rows[j][0] + 1)

    steps = range(0, SYSTEM.num_steps, 4)
    seen = set()
    for first in (online, slack):
        for second in (online, slack):
            for a in steps:
                for b in steps:
                    edited = second(first(trace, a), b)
                    got, want = decided(field, SYSTEM, edited)
                    assert got == want, (first.__name__, a, second.__name__, b)
                    seen.add(got[1].split(" at step")[0])
    assert seen == {"online check failed", "constraint slack[0] fails"}


def _wide_traces():
    """Honest traces whose boxes reach past q in either direction, so every
    check on the integer rows passes and only the lift refuses them."""
    wide = SystemSpec(a_hat=((1, 0), (-1, 1)), z_upper=(90, 500), z_lower=(-400, 0),
                      z_init=(-70, 200), num_steps=29)
    yield PrimeField(MODULUS), wide, simulate(wide)
    # the paper system, whose states run up to 100, over F_61
    yield PrimeField(61), SYSTEM, simulate(SYSTEM)
    rng = random.Random(97)
    for q in TRIAL_MODULI:
        spec = random_spec(rng, q)
        big = SystemSpec(a_hat=spec.a_hat, z_upper=tuple(v + q for v in spec.z_upper),
                         z_lower=tuple(v + q for v in spec.z_lower),
                         z_init=tuple(v + q for v in spec.z_init), num_steps=spec.num_steps)
        yield PrimeField(q), big, simulate(big)


def test_cells_of_magnitude_q_or_more_overflow_with_and_without_force(decided):
    for field, spec, trace in _wide_traces():
        for forged in (False, True):
            got, want = decided(field, spec, trace, forged)
            assert got == want, (field.modulus, spec, forged)
            assert got[0] is FieldOverflowError
            with pytest.raises(FieldOverflowError, match=r"has magnitude >= q=\d+$"):
                (forge_proof if forged else protocol.prove)(
                    field, spec, trace, FiatShamirTranscript(field.modulus), num_queries=1)
