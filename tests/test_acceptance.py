"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

The first five criteria pin the built-in worked example exactly; the last five
are randomized completeness, soundness, and low-degree-test experiments with
fixed seeds.
"""

import random
import time

import pytest

from conftest import fold_rounds, random_challenges, random_spec, tamper_randomly
from oracles import lemma1_solve, step_project
from projstark import reference_example as ref
from projstark.air import (
    by_section,
    InvalidTraceError,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    degree_bound,
)
from projstark.channel import FiatShamirTranscript, ReplayTranscript
from projstark.dynamics import SystemSpec, simulate, step_slack
from projstark.field import PrimeField
from projstark.fri import fold, fold_value
from projstark.poly import Polynomial, vanishing
from projstark.protocol import prove, verify


@pytest.fixture()
def announce(capfd):
    def _announce(number, name, ok, detail=""):
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"acceptance {number:02d} [{name}]: {status}{suffix}", flush=True)
        assert ok, f"acceptance criterion {number} failed: {name} {detail}"

    return _announce


def test_criterion_01_trace_interpolant_degrees(field, paper_trace, domain, announce):
    start = time.perf_counter()
    tp = build_trace_polys(paper_trace, domain)
    elapsed = time.perf_counter() - start
    z, up, lo, delta = by_section(tp, paper_trace.spec.n)
    columns = (*z, *delta, *lo, *up)
    got = tuple(p.reported_degree for p in columns)
    ok = got == ref.TRACE_DEGREES and elapsed < 1.0
    announce(1, "trace interpolant degrees", ok, f"degrees={got}, {elapsed:.3f}s")


def test_criterion_02_composition_degrees_and_exactness(field, paper_spec, paper_trace,
                                                        domain, announce):
    tp = build_trace_polys(paper_trace, domain)
    nums = build_numerators(tp, paper_spec, domain)
    zv = vanishing(domain.elements[:29], field)
    all_exact = all(divmod(num, zv)[1].is_zero() for num in nums)
    cs = build_compositions(nums, domain)
    # transition, slack, then lower_bit before upper_bit, as the paper tabulates
    got = tuple(cs[k].reported_degree for k in (0, 1, 2, 3, 6, 7, 4, 5))
    ok = got == ref.COMPOSITION_DEGREES and all_exact
    announce(2, "composition degrees and zero remainders", ok,
             f"degrees={got}, exact={all_exact}")


def test_criterion_03_combined_polynomial(field, paper_spec, paper_trace, domain, announce):
    tp = build_trace_polys(paper_trace, domain)
    cs = build_compositions(build_numerators(tp, paper_spec, domain), domain)
    combined = combine(cs, ref.GAMMAS)
    bound = degree_bound(tp, combined, 29)
    ok = combined.coeffs == ref.Q_COEFFS and bound == 28
    announce(3, "combined composition polynomial", ok,
             f"deg={combined.reported_degree}, bound={bound}")


def test_criterion_04_fri_layers(field, announce):
    q_poly = Polynomial(field, ref.Q_COEFFS)
    layers = fold_rounds(q_poly, ref.COMBINED_DEGREE_BOUND, iter(ref.BETAS))
    coeffs_ok = all(
        layers[idx].coeffs == expected
        for idx, expected in enumerate(ref.LAYER_COEFFS, start=1)
    )
    degrees = tuple(layers[idx].reported_degree for idx in range(1, 6))
    final = layers[-1].coeffs[0]
    ok = coeffs_ok and degrees == ref.LAYER_DEGREES and final == ref.FINAL_CONSTANT
    announce(4, "FRI folding layers", ok, f"degrees={degrees}, final={final}")


def test_criterion_05_query_chains(field, announce):
    q_poly = Polynomial(field, ref.Q_COEFFS)
    layers = fold_rounds(q_poly, ref.COMBINED_DEGREE_BOUND, iter(ref.BETAS))
    ok = True
    for x, expected in ref.QUERY_CHAINS.items():
        y, chain = x, []
        for j in range(5):
            pos, neg = layers[j].evaluate(y), layers[j].evaluate(-y)
            chain.append(fold_value(field, pos, neg, y, ref.BETAS[j]))
            y = y * y % 331
        ok = ok and tuple(chain) == expected
    announce(5, "query-phase folding chains", ok, f"points={sorted(ref.QUERY_CHAINS)}")


def test_criterion_06_completeness_randomized(announce):
    rng = random.Random(1006)
    start = time.perf_counter()
    trials = accepted = 0
    for _ in range(100):
        q = rng.choice((61, 61, 61, 61, 211, 331))
        field = PrimeField(q)
        spec = random_spec(rng, q)
        trace = simulate(spec)

        ch = random_challenges(rng, q, spec, num_queries=4)
        proof = prove(field, spec, trace, ReplayTranscript(q, **ch), num_queries=4)
        trials += 1
        accepted += verify(field, spec, proof, ReplayTranscript(q, **ch)).accepted

        fs = FiatShamirTranscript(q, salt=b"c6")
        proof = prove(field, spec, trace, fs, num_queries=4, salt=b"c6")
        trials += 1
        accepted += verify(field, spec, proof).accepted
    elapsed = time.perf_counter() - start
    ok = trials >= 200 and accepted == trials and elapsed < 60.0
    announce(6, "randomized completeness", ok,
             f"{accepted}/{trials} accepted in {elapsed:.1f}s")


def test_criterion_07_soundness_randomized(announce):
    rng = random.Random(1007)
    trials, rejected, refused = 0, 0, 0
    for _ in range(200):
        q = rng.choice((61, 61, 61, 211))
        # keep the trace subgroup well below the evaluation-domain size so a
        # forced commitment disagrees with the true quotients on most points
        orders = [m for m in range(2, 13, 2) if (q - 1) % m == 0]
        field = PrimeField(q)
        spec = random_spec(rng, q, orders=orders)
        tampered = tamper_randomly(rng, spec, simulate(spec), q)
        trials += 1

        try:
            prove(field, spec, tampered, FiatShamirTranscript(q))
        except InvalidTraceError:
            refused += 1

        transcript = FiatShamirTranscript(q)
        proof = prove(field, spec, tampered, transcript, num_queries=8, force=True)
        if not verify(field, spec, proof).accepted:
            rejected += 1
    ok = trials >= 200 and refused == trials and rejected >= 0.99 * trials
    announce(7, "randomized soundness", ok,
             f"{rejected}/{trials} forced proofs rejected, {refused}/{trials} refused honestly")


def test_criterion_08_lemma1_uniqueness(announce):
    rng = random.Random(1008)
    checked = ties = 0
    ok = True
    for _ in range(10000):
        lw = rng.randint(-50, 49)
        hi = rng.randint(lw + 1, lw + 100)
        w = rng.randint(lw - 120, hi + 120)
        spec = SystemSpec(a_hat=((1,),), z_upper=(hi,), z_lower=(lw,),
                          z_init=(lw,), num_steps=1)
        sols = []
        for u in (0, 1):
            for l in (0, 1):
                zn = u * l * w + (1 - u) * hi + (1 - l) * lw
                d = u * (hi - w) + l * (w - lw)
                if d >= hi - lw and lw <= zn <= hi:
                    sols.append((u, l, zn, d))
        rule = (1 if w <= hi else 0, 1 if w >= lw else 0)
        up, lo, delta = lemma1_solve(spec, (w,))
        if w in (lw, hi):
            # boundary ties: several bit patterns, but a single outcome
            ties += 1
            ok = ok and len({(zn, d) for _, _, zn, d in sols}) == 1
            ok = ok and (up[0], lo[0]) == rule == (1, 1)
        else:
            checked += 1
            ok = ok and len(sols) == 1
            ok = ok and (sols[0][0], sols[0][1]) == rule == (up[0], lo[0])
            ok = ok and delta[0] == sols[0][3]
        if not ok:
            break
    announce(8, "slack-bit uniqueness", ok,
             f"{checked} strict instances, {ties} boundary ties")


def test_criterion_09_trajectory_equivalence(announce):
    rng = random.Random(1009)
    ok = True
    trials = 0
    for _ in range(100):
        q = rng.choice((61, 211, 331))
        spec = random_spec(rng, q)
        trials += 1
        z = spec.z_init
        for _ in range(spec.num_steps):
            rec = step_slack(spec, z)
            if rec.z_next != step_project(spec, z):
                ok = False
                break
            z = rec.z_next
        if not ok:
            break
    announce(9, "projection / slack-form equivalence", ok, f"{trials} trajectories")


def test_criterion_10_fold_degree_halving(field, announce):
    rng = random.Random(1010)
    halved = 0
    for _ in range(100):
        deg = rng.randrange(1, 65)
        coeffs = [rng.randrange(331) for _ in range(deg)] + [rng.randrange(1, 331)]
        p = Polynomial(field, coeffs)
        if fold(p, rng.randrange(331)).reported_degree <= deg // 2:
            halved += 1

    failures = 0
    overweight_trials = 60
    for _ in range(overweight_trials):
        k = rng.randrange(2, 7)
        bound = 2 ** k - 1
        coeffs = [rng.randrange(331) for _ in range(bound + 1)] + [rng.randrange(1, 331)]
        betas = iter(rng.randrange(331) for _ in range(k + 1))
        # num_rounds(bound) folds leave a constant only for a degree <= bound
        if fold_rounds(Polynomial(field, coeffs), bound, betas)[-1].reported_degree > 0:
            failures += 1
    ok = halved == 100 and failures >= 0.95 * overweight_trials
    announce(10, "fold degree halving and overweight rejection", ok,
             f"{halved}/100 halved, {failures}/{overweight_trials} overweight runs failed")
