import random

import pytest

from conftest import TRIAL_MODULI, criterion_06_specs, even_subgroup_orders, random_spec
from forgeries import with_cell
from projstark import reference_example as ref
from projstark.air import (
    DEGREE_2_AIR,
    FAMILIES,
    PAPER_AIR,
    FieldOverflowError,
    InvalidTraceError,
    boundary_quotient,
    by_section,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    constraints,
    degree_bound,
    lift_trace,
)
from projstark.channel import FiatShamirTranscript
from projstark.dynamics import (SECTIONS, ExecutionTrace, StepRecord, SystemSpec,
                                apply_transition, online_check, simulate)
from projstark.field import PrimeField, build_domain
from projstark.poly import Polynomial, interpolate, vanishing
from projstark.protocol import prove, verify

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
    shifted = with_cell(trace, "delta", 0, 0, -5)
    ft = lift_trace(shifted, field)
    assert ft.delta_rows[0][0] == 326


def test_lift_trace_overflow(paper_trace, field):
    too_big = with_cell(paper_trace, "delta", 0, 0, 400)
    with pytest.raises(FieldOverflowError):
        lift_trace(too_big, field)
    negative = with_cell(paper_trace, "delta", 0, 0, -400)
    with pytest.raises(FieldOverflowError):
        lift_trace(negative, field)


def test_a_step_whose_a_hat_z_passes_q_proves_when_every_cell_fits():
    # A_hat·z = 80 >= q, but the exact step check, not a bound on A_hat·z,
    # decides the trace, and every cell is below q
    field = PrimeField(61)
    spec = SystemSpec(a_hat=((2,),), z_upper=(50,), z_lower=(30,), z_init=(40,), num_steps=1)
    trace = simulate(spec)
    assert (trace.z_rows, trace.alpha_up_rows, trace.alpha_lo_rows, trace.delta_rows) == (
        ((40,), (50,)), ((0,),), ((1,),), ((50,),))
    assert lift_trace(trace, field) == trace
    proof = prove(field, spec, trace, FiatShamirTranscript(61), num_queries=2)
    assert verify(field, spec, proof).accepted
    # a cell below q whose A_hat·z is not: z_0 = 35 is not z_init, refused at the boundary
    spec = SystemSpec(a_hat=((2,),), z_upper=(50,), z_lower=(0,), z_init=(10,), num_steps=1)
    with pytest.raises(InvalidTraceError, match="boundary condition violated for coordinate 0"):
        prove(field, spec, with_cell(simulate(spec), "z", 0, 0, 35), FiatShamirTranscript(61))


def test_trace_polys_paper_degrees(paper_tp):
    def degrees(polys):
        return tuple(p.reported_degree for p in polys)

    z, up, lo, delta = by_section(paper_tp, 2)
    assert degrees(z) == (0, 29)
    assert degrees(delta) == (0, 28)
    assert degrees(lo) == (0, 28)
    assert degrees(up) == (0, 0)


def test_trace_polys_interpolate_columns(paper_tp, paper_trace, domain):
    xs = domain.elements
    z, _, lo, delta = by_section(paper_tp, 2)
    for k in range(30):
        assert z[0].evaluate(xs[k]) == paper_trace.z_rows[k][0]
        assert z[1].evaluate(xs[k]) == paper_trace.z_rows[k][1]
    for k in range(29):
        assert delta[1].evaluate(xs[k]) == paper_trace.delta_rows[k][1]
        assert lo[1].evaluate(xs[k]) == paper_trace.alpha_lo_rows[k][1]


def test_trace_polys_paper_spot_value(paper_tp, domain):
    # z2 at step 20 has reached the lower bound
    x = domain.elements[20]
    assert paper_tp[1].evaluate(x) == 40  # the state's second column


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
    xs = domain.elements

    def lagrange(points, table):
        return tuple(interpolate(list(zip(points, col)), field) for col in zip(*table))

    z, up, lo, delta = by_section(tp, 2)
    assert len(tp) == 8
    assert z == lagrange(xs, ft.z_rows)
    assert up == lagrange(xs[:N], ft.alpha_up_rows)
    assert lo == lagrange(xs[:N], ft.alpha_lo_rows)
    assert delta == lagrange(xs[:N], ft.delta_rows)


def test_trace_polys_take_unreduced_values_mod_q(field, domain):
    # a column already in [0, q) is not reduced again; any other still is
    spec = random_spec(random.Random(3), 331, orders=[30])
    trace = simulate(spec)
    for section, row, value in (("z", 4, -5), ("delta", 0, 331 + 7), ("alpha_up", 28, -331)):
        edited = with_cell(trace, section, row, 0, value)
        lifted = ExecutionTrace(spec, *(tuple(tuple(v % 331 for v in r) for r in rows)
                                        for rows in (edited.z_rows, edited.alpha_up_rows,
                                                     edited.alpha_lo_rows, edited.delta_rows)))
        assert build_trace_polys(edited, domain) == build_trace_polys(lifted, domain)


def test_trace_polys_domain_order_mismatch(paper_trace, field):
    with pytest.raises(ValueError):
        build_trace_polys(paper_trace, build_domain(field, 10))


def test_numerators_vanish_on_step_domain(paper_numerators, domain):
    xs = domain.elements[:29]
    for k, num in enumerate(paper_numerators):
        for x in xs:
            assert num.evaluate(x) == 0, (k, x)


def test_numerators_family_order(paper_numerators):
    names = [FAMILIES[k // 2] for k in range(len(paper_numerators))]
    assert names == ["transition"] * 2 + ["slack"] * 2 + ["upper_bit"] * 2 + ["lower_bit"] * 2


def test_numerator_breaks_where_trace_tampered(paper_trace, paper_spec, domain):
    tampered = with_cell(paper_trace, "alpha_up", 7, 1, 2)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    x7 = domain.elements[7]
    assert nums[5].evaluate(x7) != 0  # upper_bit[1]


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
        g = domain.generator
        off_h = [x for x in range(1, q) if pow(x, spec.num_steps + 1, q) != 1]
        for x in rng.sample(off_h, 10):
            def at(polys, point=x):
                return [p.evaluate(point) for p in polys]

            got = constraints(spec, at(tp), at(tp[:spec.n], g * x % q))
            assert [v % q for v in got] == at(nums), (q, spec, x)
            checked += 1
    assert checked == 150


def test_compositions_paper_degrees(paper_cs, paper_tp, field):
    assert tuple(p.reported_degree for p in paper_cs[0:2]) == (0, 28)  # transition
    assert tuple(p.reported_degree for p in paper_cs[2:4]) == (0, 28)  # slack
    assert tuple(p.reported_degree for p in paper_cs[6:8]) == (0, 27)  # lower_bit
    assert tuple(p.reported_degree for p in paper_cs[4:6]) == (0, 0)  # upper_bit
    assert degree_bound(paper_tp, Polynomial(field), 29) == 28


def test_compositions_reconstruct_numerators(paper_cs, paper_numerators, domain):
    zv = vanishing(domain.elements[:29], domain.field)
    for quot, num in zip(paper_cs, paper_numerators, strict=True):
        assert quot * zv == num


def test_compositions_reject_tampered_trace(paper_trace, paper_spec, domain):
    tampered = with_cell(paper_trace, "z", 5, 1, 77)
    tp = build_trace_polys(tampered, domain)
    nums = build_numerators(tp, paper_spec, domain)
    zv = vanishing(domain.elements[:29], domain.field)
    assert any(not divmod(num, zv)[1].is_zero() for num in nums)
    # prove refuses such a trace on its rows; a forged proof commits the floor quotients
    assert build_compositions(nums, domain) == [divmod(num, zv)[0] for num in nums]


@pytest.mark.parametrize("q,m", [(61, 2), (61, 30), (331, 30), (769, 256)])
def test_quotients_equal_division_by_step_vanishing(q, m):
    field = PrimeField(q)
    domain = build_domain(field, m)
    N = m - 1
    zv = vanishing(domain.elements[:N], field)
    rng = random.Random(q + m)

    def rand(deg):
        return Polynomial(field, [rng.randrange(q) for _ in range(deg + 1)])

    zero = Polynomial(field)
    numerators = [
        zero, zv, rand(2 * N) * zv, rand(N) * zv + rand(N - 1),  # divisible, then not
        rand(N - 1), rand(N), rand(3 * N), rand(3 * N) * zv + 1,
    ]
    for num in numerators:
        assert build_compositions([num, zero, zero, zero], domain)[0] == divmod(num, zv)[0]
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


def test_boundary_quotient_is_the_floor_quotient_by_x_minus_1(paper_tp):
    # suffix sums give divmod's quotient by x - 1, of degree one less, with
    # the remainder f(1); the state interpolants of the paper trace, the zero
    # and constant polynomials, and random ones over the trial moduli
    rng = random.Random(53)
    polys = list(paper_tp)
    for q in TRIAL_MODULI:
        field = PrimeField(q)
        polys += [Polynomial(field), Polynomial(field, [rng.randrange(q)])]
        polys += [Polynomial(field, [rng.randrange(q) for _ in range(rng.randint(2, 40))])
                  for _ in range(10)]
    for f in polys:
        quotient, remainder = divmod(f, Polynomial(f.field, (-1, 1)))
        assert boundary_quotient(f) == quotient
        assert remainder.coeffs == (() if f.evaluate(1) == 0 else (f.evaluate(1),))
        assert boundary_quotient(f).reported_degree == max(f.reported_degree - 1, 0)


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
        assert all(tp[i].evaluate(1) == spec.z_init[i] for i in range(spec.n))
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
        tampered = with_cell(trace, section, row, idx, value)
        tp = build_trace_polys(tampered, domain)
        nums = build_numerators(tp, spec, domain)
        zv = vanishing(domain.elements[:spec.num_steps], field)
        assert any(not divmod(num, zv)[1].is_zero() for num in nums)


class Degree:
    """A polynomial's degree bound: + and - take the larger, * adds, an int has degree 0."""

    def __init__(self, degree):
        self.degree = degree

    @staticmethod
    def of(value):
        return value.degree if isinstance(value, Degree) else 0

    def __add__(self, other):
        return Degree(max(self.degree, Degree.of(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return Degree(self.degree + Degree.of(other))

    __rmul__ = __mul__


def numerator_degrees(spec, air):
    """Each constraint numerator's degree bound under `air`, from
    `constraints` run on column degrees: N for a column of N + 1 values,
    N - 1 for one of N."""
    N = spec.num_steps
    row = [Degree(N - 1 + extra) for extra in SECTIONS.values() for _ in range(spec.n)]
    return [Degree.of(d) for d in constraints(spec, row, row[:spec.n], air)]


def test_worst_bound_covers_every_numerator_of_the_one_constraint_function():
    rng = random.Random(61)
    zero_row = SystemSpec(a_hat=((0, 0), (-1, 1)), z_upper=(100, 100), z_lower=(0, 40),
                            z_init=(3, 100), num_steps=1)  # an all-zero A_hat row, N = 1
    cases = [*criterion_06_specs(), (PrimeField(61), zero_row, simulate(zero_row))]
    for air, declared in ((PAPER_AIR, lambda N: 2 * N - 2), (DEGREE_2_AIR, lambda N: N - 1)):
        for field, spec, trace in cases:
            N, q = spec.num_steps, field.modulus
            bound = air.worst_bound(N)
            assert bound == declared(N), spec
            most = max(d - N for d in numerator_degrees(spec, air))
            assert bound >= most, spec
            if any(map(any, spec.a_hat)):
                assert bound == most, spec
            # the quotient prove commits: the weighted numerators' floor quotient by Z_N
            domain = build_domain(field, N + 1)
            tp = build_trace_polys(trace, domain)
            numerators = build_numerators(tp, spec, domain, air)
            gammas = [rng.randrange(1, q) for _ in numerators]
            [quotient] = build_compositions([combine(numerators, gammas)], domain)
            assert quotient.reported_degree <= bound, spec


def test_the_two_transitions_differ_only_where_both_bits_are_0():
    # on the integer rows of criterion 06's traces, with every coordinate's
    # bits set to one pair and the slack that pair gives: the AIRs share
    # every family but the transition, which is the same for (1, 1), (1, 0)
    # and (0, 1). At (0, 0) the degree-2 one is the paper's plus A_hat·z,
    # and the slack is 0, which online_check refuses
    differ = 0
    for _, spec, trace in criterion_06_specs():
        n, hi, lw = spec.n, spec.z_upper, spec.z_lower
        for j in range(spec.num_steps):
            z, z_next = trace.z_rows[j], trace.z_rows[j + 1]
            az = apply_transition(spec, z)
            for u, l in ((1, 1), (1, 0), (0, 1), (0, 0)):
                delta = tuple(u * (h - w) + l * (w - b) for w, h, b in zip(az, hi, lw))
                row = (*z, *(u,) * n, *(l,) * n, *delta)
                paper, degree_2 = (constraints(spec, row, z_next, air)
                                   for air in (PAPER_AIR, DEGREE_2_AIR))
                assert paper[n:] == degree_2[n:] == [0] * 3 * n
                if (u, l) != (0, 0):
                    assert paper == degree_2
                    continue
                assert [b - a for a, b in zip(paper, degree_2)] == [*az, *[0] * 3 * n]
                differ += paper != degree_2
                reason = online_check(spec, StepRecord(z_next, (0,) * n, (0,) * n, delta))
                assert reason == f"delta-too-small: delta[0]=0 < {hi[0] - lw[0]}"
    assert differ > 0
