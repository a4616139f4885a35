import random

import pytest

from conftest import random_spec
from projstark import reference_example as ref
from projstark.air import (
    FieldOverflowError,
    InvalidTraceError,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    constraints,
    lift_trace,
)
from projstark.dynamics import simulate
from projstark.field import PrimeField, build_domain
from projstark.poly import vanishing


@pytest.fixture(scope="module")
def paper_tp(paper_trace, domain):
    return build_trace_polys(paper_trace, domain)


@pytest.fixture(scope="module")
def paper_numerators(paper_tp, paper_spec, domain):
    return build_numerators(paper_tp, paper_spec, domain)


@pytest.fixture(scope="module")
def paper_cs(paper_numerators, paper_tp, domain):
    return build_compositions(paper_numerators, paper_tp, domain)


def test_lift_trace_residues(paper_trace, field):
    ft = lift_trace(paper_trace, field)
    assert ft.z_rows == paper_trace.z_rows  # all values already canonical
    assert ft.delta_rows[0] == (100, 60)


def test_lift_trace_negative_values(field):
    spec = random_spec(random.Random(1), 331)
    trace = simulate(spec)
    shifted = trace.with_cell("delta", 0, 0, -5)
    ft = lift_trace(shifted, field)
    assert ft.delta_rows[0][0] == 326


def test_lift_trace_overflow(paper_trace, field):
    too_big = paper_trace.with_cell("delta", 0, 0, 400)
    with pytest.raises(FieldOverflowError):
        lift_trace(too_big, field)
    negative = paper_trace.with_cell("delta", 0, 0, -400)
    with pytest.raises(FieldOverflowError):
        lift_trace(negative, field)


def test_lift_trace_intermediate_overflow():
    from projstark.dynamics import SystemSpec

    field = PrimeField(61)
    spec = SystemSpec(a_hat=((2,),), z_upper=(50,), z_lower=(0,), z_init=(10,), num_steps=1)
    trace = simulate(spec)
    lift_trace(trace, field)  # honest run fits
    # every cell still fits below q, but A_hat*z for the edited row does not
    big = trace.with_cell("z", 0, 0, 35)
    with pytest.raises(FieldOverflowError):
        lift_trace(big, field)


def test_trace_polys_paper_degrees(paper_tp):
    d = paper_tp.degrees()
    assert d["z"] == (0, 29)
    assert d["delta"] == (0, 28)
    assert d["alpha_lo"] == (0, 28)
    assert d["alpha_up"] == (0, 0)


def test_trace_polys_interpolate_columns(paper_tp, paper_trace, domain):
    xs = [e.value for e in domain.elements]
    for k in range(30):
        assert paper_tp.f_z[0](xs[k]).value == paper_trace.z_rows[k][0]
        assert paper_tp.f_z[1](xs[k]).value == paper_trace.z_rows[k][1]
    for k in range(29):
        assert paper_tp.f_delta[1](xs[k]).value == paper_trace.delta_rows[k][1]
        assert paper_tp.f_alpha_lo[1](xs[k]).value == paper_trace.alpha_lo_rows[k][1]


def test_trace_polys_paper_spot_value(paper_tp, domain):
    # z2 at step 20 has reached the lower bound
    x = domain.elements[20].value
    assert paper_tp.f_z[1](x).value == 40


def test_trace_polys_domain_order_mismatch(paper_trace, field):
    with pytest.raises(ValueError):
        build_trace_polys(paper_trace, build_domain(field, 10))


def test_numerators_vanish_on_step_domain(paper_numerators, domain):
    xs = [e.value for e in domain.elements[:29]]
    for name, i, num in paper_numerators.families():
        for x in xs:
            assert num(x).value == 0, (name, i, x)


def test_numerators_family_order(paper_numerators):
    names = [name for name, i, _ in paper_numerators.families()]
    assert names == ["transition"] * 2 + ["slack"] * 2 + ["upper_bit"] * 2 + ["lower_bit"] * 2


def test_numerator_breaks_where_trace_tampered(paper_trace, paper_spec, domain):
    tampered = paper_trace.with_cell("alpha_up", 7, 1, 2)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    x7 = domain.elements[7].value
    assert nums.upper_bit[1](x7).value != 0


def test_constraints_on_values_match_numerator_polynomials():
    # the verifier's pointwise constraints agree with the prover's numerators off H
    rng = random.Random(83)
    checked = 0
    for _ in range(15):
        q = rng.choice((61, 211, 331))
        field = PrimeField(q)
        spec = random_spec(rng, q)
        domain = build_domain(field, spec.num_steps + 1)
        tp = build_trace_polys(simulate(spec), domain)
        nums = [p for _, _, p in build_numerators(tp, spec, domain).families()]
        g = domain.generator.value
        off_h = [x for x in range(1, q) if pow(x, spec.num_steps + 1, q) != 1]
        for x in rng.sample(off_h, 10):
            def at(polys, point=x):
                return [p(point).value for p in polys]

            got = constraints(spec, at(tp.f_z), at(tp.f_z, g * x % q),
                              at(tp.f_alpha_up), at(tp.f_alpha_lo), at(tp.f_delta))
            assert [v % q for v in got] == at(nums), (q, spec, x)
            checked += 1
    assert checked == 150


def test_compositions_paper_degrees(paper_cs):
    assert tuple(p.reported_degree for p in paper_cs.transition) == (0, 28)
    assert tuple(p.reported_degree for p in paper_cs.slack) == (0, 28)
    assert tuple(p.reported_degree for p in paper_cs.lower_bit) == (0, 27)
    assert tuple(p.reported_degree for p in paper_cs.upper_bit) == (0, 0)
    assert paper_cs.combined_degree_bound == 28


def test_compositions_reconstruct_numerators(paper_cs, paper_numerators, domain):
    zv = vanishing([e.value for e in domain.elements[:29]], domain.field)
    quots = {name: list(getattr(paper_cs, name))
             for name in ("transition", "slack", "upper_bit", "lower_bit")}
    for name, i, num in paper_numerators.families():
        assert quots[name][i] * zv == num


def test_compositions_reject_tampered_trace(paper_trace, paper_spec, domain):
    tampered = paper_trace.with_cell("z", 5, 1, 77)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    with pytest.raises(InvalidTraceError):
        build_compositions(nums, tp, domain)
    # the dishonest path keeps the floor quotients instead
    cs = build_compositions(nums, tp, domain, allow_remainder=True)
    assert len(cs.ordered()) == 8


def test_combine_paper_values(paper_cs, field):
    combined = combine(paper_cs, ref.GAMMAS)
    assert combined.degree_bound == 28
    assert combined.poly.coeffs == ref.Q_COEFFS
    assert combined.gammas == ref.GAMMAS


def test_combine_is_linear(paper_cs, field):
    rng = random.Random(41)
    g1 = [rng.randrange(1, 331) for _ in range(8)]
    g2 = [rng.randrange(1, 331) for _ in range(8)]
    both = [(a + b) % 331 for a, b in zip(g1, g2)]
    assert combine(paper_cs, both).poly == combine(paper_cs, g1).poly + combine(paper_cs, g2).poly


def test_combine_zero_weights(paper_cs, field):
    combined = combine(paper_cs, [0] * 8)
    assert combined.poly.is_zero()
    assert combined.degree_bound == 28  # the declared bound still stands


def test_combine_weight_count_checked(paper_cs):
    with pytest.raises(ValueError):
        combine(paper_cs, [1, 2, 3])


def test_pipeline_completeness_randomized():
    rng = random.Random(47)
    for _ in range(25):
        q = rng.choice((61, 211, 331))
        field = PrimeField(q)
        spec = random_spec(rng, q)
        domain = build_domain(field, spec.num_steps + 1)
        trace = simulate(spec)
        tp = build_trace_polys(trace, domain)
        assert all(tp.f_z[i](1).value == spec.z_init[i] for i in range(spec.n))
        nums = build_numerators(tp, spec, domain)
        cs = build_compositions(nums, tp, domain)  # must not raise
        gammas = [rng.randrange(1, q) for _ in range(4 * spec.n)]
        combined = combine(cs, gammas)
        assert combined.poly.reported_degree <= max(2 * spec.num_steps - 2, 0)


def test_pipeline_soundness_single_cell_randomized():
    rng = random.Random(53)
    sections = ("z", "alpha_up", "alpha_lo", "delta")
    for _ in range(25):
        q = rng.choice((61, 211))
        field = PrimeField(q)
        spec = random_spec(rng, q)
        domain = build_domain(field, spec.num_steps + 1)
        trace = simulate(spec)
        section = rng.choice(sections)
        if section == "z":
            # row 0 only feeds the boundary condition when its A_hat column is
            # zero, so keep this check on the step constraints proper
            row = rng.randrange(1, spec.num_steps + 1)
        else:
            row = rng.randrange(spec.num_steps)
        idx = rng.randrange(spec.n)
        old = getattr(trace, section + "_rows")[row][idx]
        if section == "z":
            value = rng.choice([v for v in range(max(spec.z_upper) + 2) if v != old])
        elif section == "delta":
            value = rng.choice([v for v in range(q) if v != old])
        else:
            value = rng.randrange(2, q)  # off the bit values, always inconsistent
        tampered = trace.with_cell(section, row, idx, value)
        tp = build_trace_polys(tampered, domain)
        nums = build_numerators(tp, spec, domain)
        with pytest.raises(InvalidTraceError):
            build_compositions(nums, tp, domain)
