import dataclasses
import json
import random

import pytest

from forgeries import with_cell
from projstark import PrimeField, SystemSpec, build_domain, fold, simulate
from projstark.fri import num_rounds
from projstark.protocol import Opening, RowOpening, base_eval_domain
from projstark import reference_example as ref
from projstark.reference_example import SYSTEM

ROW_KEYS = [f.name for f in dataclasses.fields(RowOpening)]
OPENING_KEYS = [f.name for f in dataclasses.fields(Opening)]


def keyed(doc: dict) -> dict:
    """A new copy of a proof document with each opening, a list of its
    fields' values, an object keyed by its field names in their order, as
    proof version 14 wrote it: the view a test edits by key. `positional`
    turns it back."""
    doc = json.loads(json.dumps(doc))
    for qd in doc["queries"]:
        qd["trace"] = [dict(zip(ROW_KEYS, row, strict=True)) for row in qd["trace"]]
        qd["fri"] = [[dict(zip(OPENING_KEYS, opening, strict=True)), neg]
                     for opening, neg in qd["fri"]]
    return doc


def positional(doc: dict) -> dict:
    """A new copy of a keyed view with each opening object its list of
    values, in key order; any other value, an edited one, is kept as it is."""
    def values(node):
        return list(node.values()) if type(node) is dict else node

    doc = json.loads(json.dumps(doc))
    for qd in doc["queries"]:
        qd["trace"] = [values(row) for row in qd["trace"]]
        qd["fri"] = [[values(pair[0]), *pair[1:]] for pair in qd["fri"]]
    return doc


@pytest.fixture(scope="session")
def field():
    return PrimeField(331)


@pytest.fixture(scope="session")
def domain(field):
    return build_domain(field, 30)


@pytest.fixture(scope="session")
def paper_spec():
    return SYSTEM


@pytest.fixture(scope="session")
def paper_trace():
    return simulate(SYSTEM)


def minimal_multiproof(leaf_count: int, leaves) -> set:
    """The digests a verifier of a tree's opened `leaves` must be sent,
    counted apart from channel, as (level, position) keys, level 0 at the
    leaves: the siblings of the nodes on the opened leaves' paths to the
    root that are not on one themselves."""
    height = (leaf_count - 1).bit_length()
    on_paths = {(level, i >> level) for i in leaves for level in range(height)}
    return {(level, pos ^ 1) for level, pos in on_paths if (level, pos ^ 1) not in on_paths}


# moduli with plenty of even subgroup orders for randomized trials
TRIAL_MODULI = (61, 211, 331)


def even_subgroup_orders(q, cap=30):
    return [m for m in range(2, cap + 1, 2) if (q - 1) % m == 0]


def random_spec(rng: random.Random, q: int, n_max: int = 4, orders=None) -> SystemSpec:
    """System with small boxes so clamping is frequent and magnitudes stay below q."""
    n = rng.randint(1, n_max)
    m = rng.choice(orders if orders is not None else even_subgroup_orders(q))
    a_hat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    cap = max(2, (q - 1) // (4 * n + 2))
    lowers, uppers, inits = [], [], []
    for _ in range(n):
        lo = rng.randint(0, cap - 1)
        hi = rng.randint(lo + 1, cap)
        lowers.append(lo)
        uppers.append(hi)
        inits.append(rng.randint(lo, hi))
    return SystemSpec(
        a_hat=tuple(tuple(r) for r in a_hat),
        z_upper=tuple(uppers),
        z_lower=tuple(lowers),
        z_init=tuple(inits),
        num_steps=m - 1,
    )


def replay_config() -> dict:
    """The worked example as a run configuration document."""
    return {
        "q": str(ref.MODULUS),
        "A_hat": [[str(v) for v in row] for row in SYSTEM.a_hat],
        "z_upper": [str(v) for v in SYSTEM.z_upper],
        "z_lower": [str(v) for v in SYSTEM.z_lower],
        "z_init": [str(v) for v in SYSTEM.z_init],
        "N": str(SYSTEM.num_steps),
        "queries": len(ref.SAMPLE_POINTS),
        "challenges": {
            "gammas": [str(v) for v in ref.GAMMAS],
            "betas": [str(v) for v in ref.BETAS],
            "sample_points": [str(v) for v in ref.SAMPLE_POINTS],
        },
    }


def random_challenges(rng: random.Random, q: int, spec: SystemSpec, num_queries: int) -> dict:
    """Injected challenge lists for replay-mode trials; the sample points are
    drawn from the committed domain, as a Fiat-Shamir transcript draws them."""
    field = PrimeField(q)
    allowed = sorted(base_eval_domain(field, build_domain(field, spec.num_steps + 1)))
    return {
        "gammas": [rng.randint(1, q - 1) for _ in range(4 * spec.n)],
        "betas": [rng.randint(1, q - 1) for _ in range(64)],
        "sample_points": [rng.choice(allowed) for _ in range(num_queries)],
    }


def fold_rounds(p, bound, betas):
    """p and the num_rounds(bound) FRI layers folded from it, one beta each
    from the iterator `betas`; as in prove, the last must be constant when
    p's degree is at most bound."""
    layers = [p]
    for _ in range(num_rounds(bound)):
        layers.append(fold(layers[-1], next(betas)))
    return layers


def step_check_cases():
    """Seeded (field, spec, trace) triples: honest traces, and traces with one
    cell changed so that the online checks and the boundary condition still
    hold, one of them at the last step."""
    rng = random.Random(89)
    cases = []
    for _ in range(12):
        q = rng.choice((61, 211, 331))
        spec = random_spec(rng, q)
        trace = simulate(spec)
        N = spec.num_steps
        cases.append((PrimeField(q), spec, trace))
        for step in (rng.randrange(N), N - 1):
            section = rng.choice(("z", "alpha_up", "alpha_lo", "delta"))
            i = rng.randrange(spec.n)
            if section == "z":  # the next state of the step, kept inside the box
                row, old = step + 1, trace.z_rows[step + 1][i]
                value = rng.choice([v for v in range(spec.z_lower[i], spec.z_upper[i] + 1)
                                    if v != old])
            else:
                row, old = step, getattr(trace, section + "_rows")[step][i]
                if section == "delta":  # a larger slack passes the online check
                    value = old + rng.randint(1, 5)
                else:  # a flipped bit passes the online check
                    value = 1 - old
            cases.append((PrimeField(q), spec, with_cell(trace, section, row, i, value)))
    return cases


STEP_CHECK_CASES = step_check_cases()


def criterion_06_specs():
    """The (field, spec, trace) of acceptance criterion 06, drawn as it draws them."""
    rng = random.Random(1006)
    for _ in range(100):
        q = rng.choice((61, 61, 61, 61, 211, 331))
        spec = random_spec(rng, q)
        random_challenges(rng, q, spec, num_queries=4)
        yield PrimeField(q), spec, simulate(spec)
