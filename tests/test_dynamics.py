import random
from dataclasses import replace

import pytest

from conftest import TRIAL_MODULI, random_spec
from oracles import lemma1_solve, step_project
from projstark.dynamics import (
    ExecutionTrace,
    StepRecord,
    SystemSpec,
    apply_transition,
    online_check,
    step_slack,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(a_hat=((1, 0),), z_upper=(1,), z_lower=(0,), z_init=(0,), num_steps=1)
    with pytest.raises(ValueError):
        SystemSpec(a_hat=((1,),), z_upper=(0,), z_lower=(0,), z_init=(0,), num_steps=1)
    with pytest.raises(ValueError):
        SystemSpec(a_hat=((1,),), z_upper=(5,), z_lower=(0,), z_init=(9,), num_steps=1)
    with pytest.raises(ValueError):
        SystemSpec(a_hat=((1,),), z_upper=(5,), z_lower=(0,), z_init=(3,), num_steps=0)


def test_spec_needs_at_least_one_coordinate():
    # with no coordinate the trace has no column and prove would commit an empty table
    with pytest.raises(ValueError, match="at least one row"):
        SystemSpec(a_hat=(), z_upper=(), z_lower=(), z_init=(), num_steps=29)


_WIDE = dict(a_hat=((1, 0), (0, 1)), z_lower=(0, 0), z_upper=(100, 100), z_init=(0, 5),
             num_steps=255)


@pytest.mark.parametrize("name, value", [
    ("a_hat", ((2**63, 0), (0, 1))),
    ("a_hat", ((1, 0), (-(2**63) - 1, 1))),
    ("z_lower", (-(2**70), 0)),
    ("z_upper", (100, 2**63)),
    ("z_init", (0, 2**63)),
])
def test_spec_integers_must_fit_the_signed_64_bits_hash_spec_encodes(name, value):
    # hash_spec would end `prove` in an OverflowError on such a value
    with pytest.raises(ValueError, match="outside the signed 64-bit range"):
        SystemSpec(**{**_WIDE, name: value})


def test_spec_integers_at_the_64_bit_edges_are_accepted():
    spec = SystemSpec(**{**_WIDE, "a_hat": ((2**63 - 1, -(2**63)), (0, 1)),
                         "z_lower": (-(2**63), 0), "z_upper": (2**63 - 1, 100)})
    assert spec.a_hat[0] == (2**63 - 1, -(2**63))


def test_apply_transition(paper_spec):
    assert apply_transition(paper_spec, (3, 100)) == [3, 97]
    assert apply_transition(paper_spec, (0, 0)) == [0, 0]
    with pytest.raises(ValueError):
        apply_transition(paper_spec, (1, 2, 3))


def test_step_project(paper_spec):
    assert step_project(paper_spec, (3, 100)) == (3, 97)
    assert step_project(paper_spec, (3, 43)) == (3, 40)
    # clamp at the lower bound once the update dips below it
    assert step_project(paper_spec, (3, 40)) == (3, 40)


def test_step_slack_interior(paper_spec):
    rec = step_slack(paper_spec, (3, 100))
    assert rec.z_next == (3, 97)
    assert rec.alpha_up == (1, 1)
    assert rec.alpha_lo == (1, 1)
    assert rec.delta == (100, 60)


def test_step_slack_lower_clamp(paper_spec):
    rec = step_slack(paper_spec, (3, 40))
    assert rec.z_next == (3, 40)
    assert rec.alpha_up == (1, 1)
    assert rec.alpha_lo == (1, 0)
    assert rec.delta == (100, 63)


def test_step_slack_upper_clamp():
    spec = SystemSpec(a_hat=((2,),), z_upper=(10,), z_lower=(0,), z_init=(8,), num_steps=1)
    rec = step_slack(spec, (8,))
    assert rec.z_next == (10,)
    assert rec.alpha_up == (0,)
    assert rec.alpha_lo == (1,)
    assert rec.delta == (16,)


def test_online_check_accepts_honest(paper_spec):
    rec = step_slack(paper_spec, (3, 100))
    assert online_check(paper_spec, rec) is None


def test_online_check_rejects_small_delta(paper_spec):
    rec = StepRecord(z_next=(3, 97), alpha_up=(1, 1), alpha_lo=(1, 1), delta=(97, 59))
    reason = online_check(paper_spec, rec)
    assert reason is not None and reason.startswith("delta-too-small")


def test_online_check_rejects_out_of_bounds(paper_spec):
    rec = StepRecord(z_next=(3, 101), alpha_up=(1, 1), alpha_lo=(1, 1), delta=(100, 60))
    reason = online_check(paper_spec, rec)
    assert reason is not None and reason.startswith("out-of-bounds")


@pytest.mark.parametrize("field_name", ["alpha_up", "alpha_lo"])
@pytest.mark.parametrize("bit", [2, -1])
def test_online_check_rejects_non_bits(paper_spec, field_name, bit):
    honest = step_slack(paper_spec, (3, 100))
    for i in range(paper_spec.n):
        bits = list(getattr(honest, field_name))
        bits[i] = bit
        reason = online_check(paper_spec, replace(honest, **{field_name: tuple(bits)}))
        assert reason == f"not-a-bit: {field_name}[{i}]={bit} is neither 0 nor 1"


def test_online_check_rejects_wrong_width(paper_spec):
    # zipping with the bounds used to let a 1-wide or empty record through
    honest = step_slack(paper_spec, (3, 100))
    records = [StepRecord((50,), (1,), (1,), (100,)), StepRecord((), (), (), ())]
    records += [replace(honest, **{f: getattr(honest, f) + (0,)})
                for f in ("z_next", "alpha_up", "alpha_lo", "delta")]
    for rec in records:
        reason = online_check(paper_spec, rec)
        assert reason is not None and reason.startswith("wrong-width"), rec


def test_simulate_paper_trajectory(paper_trace):
    assert len(paper_trace.z_rows) == 30
    assert all(row[0] == 3 for row in paper_trace.z_rows)
    for k, row in enumerate(paper_trace.z_rows):
        assert row[1] == max(100 - 3 * k, 40)
    assert paper_trace.z_rows[20] == (3, 40)
    assert all(row == (1, 1) for row in paper_trace.alpha_up_rows)
    for k, row in enumerate(paper_trace.alpha_lo_rows):
        assert row[1] == (1 if k < 20 else 0)
    for k, row in enumerate(paper_trace.delta_rows):
        assert row == (100, 60 if k < 20 else 63)


def test_simulate_passes_online_checks(paper_spec, paper_trace):
    for k in range(paper_spec.num_steps):
        rec = StepRecord(
            z_next=paper_trace.z_rows[k + 1],
            alpha_up=paper_trace.alpha_up_rows[k],
            alpha_lo=paper_trace.alpha_lo_rows[k],
            delta=paper_trace.delta_rows[k],
        )
        assert online_check(paper_spec, rec) is None


def test_trace_row_count_validation(paper_spec, paper_trace):
    with pytest.raises(ValueError):
        ExecutionTrace(
            spec=paper_spec,
            z_rows=paper_trace.z_rows[:-1],
            alpha_up_rows=paper_trace.alpha_up_rows,
            alpha_lo_rows=paper_trace.alpha_lo_rows,
            delta_rows=paper_trace.delta_rows,
        )
    with pytest.raises(ValueError):
        ExecutionTrace(
            spec=paper_spec,
            z_rows=paper_trace.z_rows,
            alpha_up_rows=paper_trace.alpha_up_rows[:-1],
            alpha_lo_rows=paper_trace.alpha_lo_rows,
            delta_rows=paper_trace.delta_rows,
        )
    # every row must have n entries: one narrow or wide row in any section fails
    for section in ("z_rows", "alpha_up_rows", "alpha_lo_rows", "delta_rows"):
        for row in (lambda r: r[:1], lambda r: (), lambda r: r + (0,)):
            rows = getattr(paper_trace, section)
            edited = (row(rows[0]),) + rows[1:]
            with pytest.raises(ValueError, match="entries"):
                replace(paper_trace, **{section: edited})
    narrow = {s: tuple(r[:1] for r in getattr(paper_trace, s))
              for s in ("z_rows", "alpha_up_rows", "alpha_lo_rows", "delta_rows")}
    with pytest.raises(ValueError, match="entries"):
        ExecutionTrace(spec=paper_spec, **narrow)


def test_with_cell(paper_trace):
    tampered = paper_trace.with_cell("delta", 3, 1, 59)
    assert tampered.delta_rows[3][1] == 59
    assert paper_trace.delta_rows[3][1] == 60  # original untouched
    assert tampered.delta_rows[3][0] == 100
    with pytest.raises(IndexError):
        paper_trace.with_cell("z", 99, 0, 0)
    with pytest.raises(IndexError):
        paper_trace.with_cell("delta", 0, 5, 0)
    with pytest.raises(ValueError):
        paper_trace.with_cell("nope", 0, 0, 0)


def test_lemma1_interior(paper_spec):
    up, lo, delta = lemma1_solve(paper_spec, (3, 97))
    assert (up, lo, delta) == ((1, 1), (1, 1), (100, 60))


def test_lemma1_below_lower_bound(paper_spec):
    up, lo, delta = lemma1_solve(paper_spec, (3, 37))
    assert up == (1, 1)
    assert lo == (1, 0)
    assert delta == (100, 63)


def test_lemma1_boundary_tie_prefers_comparison_rule(paper_spec):
    # A_hat*z landing exactly on the lower bound: two bit patterns share one
    # outcome; the comparison rule (both bits set) is returned.
    up, lo, delta = lemma1_solve(paper_spec, (3, 40))
    assert up == (1, 1)
    assert lo == (1, 1)
    assert delta == (100, 60)


def test_lemma1_dimension_check(paper_spec):
    with pytest.raises(ValueError):
        lemma1_solve(paper_spec, (1,))


def test_lemma1_matches_step_slack_randomized():
    rng = random.Random(31)
    for _ in range(300):
        spec = random_spec(rng, rng.choice(TRIAL_MODULI))
        z = tuple(rng.randint(lo, hi) for lo, hi in zip(spec.z_lower, spec.z_upper))
        w = apply_transition(spec, z)
        rec = step_slack(spec, z)
        up, lo, delta = lemma1_solve(spec, w)
        assert delta == rec.delta
        # bit assignments may differ only at exact-boundary ties
        for i in range(spec.n):
            if w[i] not in (spec.z_lower[i], spec.z_upper[i]):
                assert (up[i], lo[i]) == (rec.alpha_up[i], rec.alpha_lo[i])


def test_projection_equals_slack_form_randomized():
    rng = random.Random(37)
    for _ in range(100):
        spec = random_spec(rng, rng.choice(TRIAL_MODULI))
        z = spec.z_init
        for _ in range(spec.num_steps):
            rec = step_slack(spec, z)
            assert rec.z_next == step_project(spec, z)
            z = rec.z_next


def test_lemma1_total_on_integers():
    # every integer update value admits a bit assignment; Lemma1Error is
    # reserved for genuinely inconsistent inputs and never fires here
    spec = SystemSpec(a_hat=((1,),), z_upper=(5,), z_lower=(-2,), z_init=(1,), num_steps=1)
    for w in range(-30, 31):
        up, lo, delta = lemma1_solve(spec, (w,))
        rec = step_slack(spec, (w,))
        assert delta == rec.delta
        assert up[0] in (0, 1) and lo[0] in (0, 1)
