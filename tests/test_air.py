import random

import pytest

from conftest import TRIAL_MODULI, even_subgroup_orders, random_spec
from projstark import reference_example as ref
from projstark.air import (
    FAMILIES,
    FieldOverflowError,
    InvalidTraceError,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    constraints,
    degree_bound,
    lift_trace,
)
from projstark.dynamics import ExecutionTrace, SystemSpec, simulate
from projstark.field import PrimeField, build_domain
from projstark.poly import Polynomial, interpolate, vanishing

# every even subgroup order of the trial moduli (m = 2 and mixed radices such
# as 30 = 2·3·5 included), and the power-of-two orders of the benchmark fields
SUBGROUPS = [(q, m) for q in TRIAL_MODULI for m in even_subgroup_orders(q, cap=q - 1)] + [
    (769, 256), (12289, 128)]


@pytest.fixture(scope="module")
def paper_tp(paper_trace, domain):
    return build_trace_polys(paper_trace, domain)


@pytest.fixture(scope="module")
def paper_numerators(paper_tp, paper_spec, domain):
    return build_numerators(paper_tp, paper_spec, domain)


@pytest.fixture(scope="module")
def paper_cs(paper_numerators, domain):
    return build_compositions(paper_numerators, domain)


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


@pytest.mark.parametrize("q,m", SUBGROUPS)
def test_trace_polys_equal_lagrange_interpolants(q, m):
    # f_z through all of H, the other columns through its first N points
    field = PrimeField(q)
    domain = build_domain(field, m)
    N = m - 1
    rng = random.Random(q * m)
    spec = SystemSpec(a_hat=((1, 0), (0, 1)), z_upper=(1, 1), z_lower=(0, 0), z_init=(0, 0),
                      num_steps=N)

    def rows(count):
        return tuple((rng.randrange(q), rng.randrange(q)) for _ in range(count))

    ft = ExecutionTrace(spec, rows(m), rows(N), rows(N), rows(N))
    tp = build_trace_polys(ft, domain)
    xs = [e.value for e in domain.elements]

    def lagrange(points, table):
        return tuple(interpolate(list(zip(points, col)), field) for col in zip(*table))

    assert tp.f_z == lagrange(xs, ft.z_rows)
    assert tp.f_alpha_up == lagrange(xs[:N], ft.alpha_up_rows)
    assert tp.f_alpha_lo == lagrange(xs[:N], ft.alpha_lo_rows)
    assert tp.f_delta == lagrange(xs[:N], ft.delta_rows)


def test_trace_polys_domain_order_mismatch(paper_trace, field):
    with pytest.raises(ValueError):
        build_trace_polys(paper_trace, build_domain(field, 10))


def test_numerators_vanish_on_step_domain(paper_numerators, domain):
    xs = [e.value for e in domain.elements[:29]]
    for k, num in enumerate(paper_numerators):
        for x in xs:
            assert num(x).value == 0, (k, x)


def test_numerators_family_order(paper_numerators):
    names = [FAMILIES[k // 2] for k in range(len(paper_numerators))]
    assert names == ["transition"] * 2 + ["slack"] * 2 + ["upper_bit"] * 2 + ["lower_bit"] * 2


def test_numerator_breaks_where_trace_tampered(paper_trace, paper_spec, domain):
    tampered = paper_trace.with_cell("alpha_up", 7, 1, 2)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    x7 = domain.elements[7].value
    assert nums[5](x7).value != 0  # upper_bit[1]


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
        nums = build_numerators(tp, spec, domain)
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


def test_compositions_paper_degrees(paper_cs, paper_tp, field):
    assert tuple(p.reported_degree for p in paper_cs[0:2]) == (0, 28)  # transition
    assert tuple(p.reported_degree for p in paper_cs[2:4]) == (0, 28)  # slack
    assert tuple(p.reported_degree for p in paper_cs[6:8]) == (0, 27)  # lower_bit
    assert tuple(p.reported_degree for p in paper_cs[4:6]) == (0, 0)  # upper_bit
    assert degree_bound(paper_tp, Polynomial.zero(field), 29) == 28


def test_compositions_reconstruct_numerators(paper_cs, paper_numerators, domain):
    zv = vanishing([e.value for e in domain.elements[:29]], domain.field)
    for quot, num in zip(paper_cs, paper_numerators, strict=True):
        assert quot * zv == num


def test_compositions_reject_tampered_trace(paper_trace, paper_spec, domain):
    tampered = paper_trace.with_cell("z", 5, 1, 77)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    with pytest.raises(InvalidTraceError):
        build_compositions(nums, domain)
    # the dishonest path keeps the floor quotients instead
    cs = build_compositions(nums, domain, allow_remainder=True)
    assert len(cs) == 8


@pytest.mark.parametrize("q,m", [(61, 2), (61, 30), (331, 30), (769, 256)])
def test_quotients_equal_division_by_step_vanishing(q, m):
    field = PrimeField(q)
    domain = build_domain(field, m)
    N = m - 1
    zv = vanishing([e.value for e in domain.elements[:N]], field)
    rng = random.Random(q + m)

    def rand(deg):
        return Polynomial(field, [rng.randrange(q) for _ in range(deg + 1)])

    zero = Polynomial.zero(field)
    numerators = [
        zero, zv, rand(2 * N) * zv, rand(N) * zv + rand(N - 1),  # divisible, then not
        rand(N - 1), rand(N), rand(3 * N), rand(3 * N) * zv + 1,
    ]
    for num in numerators:
        quot, rem = divmod(num, zv)
        nums = [num, zero, zero, zero]
        assert build_compositions(nums, domain, allow_remainder=True)[0] == quot
        if rem.is_zero():
            assert build_compositions(nums, domain)[0] == quot
        else:
            with pytest.raises(InvalidTraceError):
                build_compositions(nums, domain)
    assert sum(divmod(num, zv)[1].is_zero() for num in numerators) == 3


def test_combine_paper_values(paper_cs, paper_tp, field):
    combined = combine(paper_cs, ref.GAMMAS)
    assert degree_bound(paper_tp, combined, 29) == 28
    assert combined.coeffs == ref.Q_COEFFS


def test_combine_is_linear(paper_cs, field):
    rng = random.Random(41)
    g1 = [rng.randrange(1, 331) for _ in range(8)]
    g2 = [rng.randrange(1, 331) for _ in range(8)]
    both = [(a + b) % 331 for a, b in zip(g1, g2)]
    assert combine(paper_cs, both) == combine(paper_cs, g1) + combine(paper_cs, g2)


def test_combine_zero_weights(paper_cs, paper_tp, field):
    combined = combine(paper_cs, [0] * 8)
    assert combined.is_zero()
    assert degree_bound(paper_tp, combined, 29) == 28  # the declared bound still stands


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
        cs = build_compositions(nums, domain)  # must not raise
        gammas = [rng.randrange(1, q) for _ in range(4 * spec.n)]
        combined = combine(cs, gammas)
        assert combined.reported_degree <= max(2 * spec.num_steps - 2, 0)


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
            build_compositions(nums, domain)
