"""Differential tests: the mask-based kernel and evaluation against a
per-state oracle.

The oracle is written straight from the definitions and walks one state at
a time, as the checker did before truth was evaluated over whole models: a
formula is defined at a state when the state's space contains the base space
of the formula's event, and then true exactly when the state projects into
the event's base.  `valid_in_model`, `equivalence_check` (all four
directions) and `check --all` must give what the oracle gives, witnesses,
their order and the `checked` count included.  The event kernel (events as
a base-space mask and an up-closure mask) must give what the definitions
over sets of states give: up-closure, the event algebra, knowledge over Π
and Λ, awareness, equality and the witness text.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import combinations

import pytest

from awarekit.awareness import AwarenessModel, fh_extension
from awarekit.cli import main
from awarekit.enumeration import enumerate_formulas
from awarekit.fixtures import fig1L, fig1R
from awarekit.gen import GenCaps, gen_fh
from awarekit.modelio import data_to_model, model_to_data, save_model, state_token
from awarekit.reports import Report
from awarekit.semantics import TruthValue, extension, valid_in_model
from awarekit.syntax import A, And, Atom, L, Not, atoms as formula_atoms, parse
from awarekit.transforms import (
    equivalence_check,
    fh_star_transform,
    fh_transform,
    hms_transform,
)
from awarekit.unawareness import (
    StateRef,
    a_op,
    k_op,
    l_op,
    project_state,
    space_key,
    subsets,
    validate_hms,
)
from test_golden_reports import misroute_projection

SEEDS = range(10)


def naive_truth(model, ref: StateRef, f) -> TruthValue:
    event = extension(model, f)
    if not event.base_space <= ref.space:
        return TruthValue.UNDEFINED
    if model.lattice.project(ref, event.base_space) in event.base:
        return TruthValue.TRUE
    return TruthValue.FALSE


def naive_valid(model, f):
    for ref in model.states:
        if naive_truth(model, ref, f) is TruthValue.FALSE:
            return False, ref
    return True, None


def naive_equivalence(source, produced, via: str, depth: int = 2) -> Report:
    report = Report()
    if via in ("hms", "implicit-hms"):
        known = set(produced.states)
        for f in enumerate_formulas(source.language_atoms, source.agents, depth):
            ext = fh_extension(source, f)
            for space in subsets(source.language_atoms):
                if not formula_atoms(f) <= space:
                    continue
                for world in source.worlds:
                    ref = StateRef(space, world)
                    report.count()
                    if ref not in known:
                        report.add("state-alignment", state=ref)
                        continue
                    value = naive_truth(produced, ref, f)
                    if value is TruthValue.UNDEFINED:
                        report.add("expected-defined", formula=f, state=ref)
                    elif (value is TruthValue.TRUE) != (world in ext):
                        report.add("modal-equivalence", formula=f, state=ref,
                                   source_value=world in ext, target_value=value)
        return report
    lat = source.lattice
    worlds = set(produced.worlds)
    for f in enumerate_formulas(lat.atoms, source.agents, depth):
        ext = fh_extension(produced, f)
        for ref in lat.states_of(lat.atoms):
            report.count()
            if ref.id not in worlds:
                report.add("state-alignment", state=ref)
                continue
            value = naive_truth(source, ref, f)
            if value is TruthValue.UNDEFINED:
                report.add("expected-defined", formula=f, state=ref)
            elif (value is TruthValue.TRUE) != (ref.id in ext):
                report.add("modal-equivalence", formula=f, state=ref,
                           source_value=value, target_value=ref.id in ext)
    return report


def transforms_of(seed: int):
    """The four (source, produced, via) triples of one generated model."""
    k = gen_fh(seed)
    comp = hms_transform(k)
    im = hms_transform(k, truncate=True)
    return [(k, comp, "hms"), (k, im, "implicit-hms"),
            (comp, fh_transform(comp), "fh"), (im, fh_star_transform(im), "fh-star")]


def flip_one_valuation_bit(model):
    """The model with one atom's truth flipped at one world (awareness
    model) or at one base state (lattice model)."""
    data = model_to_data(model)
    atom = sorted(data["valuation"])[0]
    if isinstance(model, AwarenessModel):
        hits, flipped = set(data["valuation"][atom]), data["worlds"][0]
        data["valuation"][atom] = sorted(hits ^ {flipped})
    else:
        entry = data["valuation"][atom]
        flipped = data["spaces"][entry["base_space"]][0]
        entry["base"] = sorted(set(entry["base"]) ^ {flipped})
    return data_to_model(data)


def assert_same(source, produced, via: str) -> Report:
    report = equivalence_check(source, produced, via)
    assert report.to_data() == naive_equivalence(source, produced, via).to_data()
    return report


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_check_matches_oracle(seed):
    for source, produced, via in transforms_of(seed):
        assert assert_same(source, produced, via).ok, (seed, via)


@pytest.mark.parametrize("seed", SEEDS)
def test_aligned_spaces_are_compared_whole(seed, monkeypatch):
    """A correct transform aligns every space, so no state is looked up
    one at a time."""
    def per_state(*args):
        raise AssertionError("per-state lookup on an aligned space")

    monkeypatch.setattr("awarekit.transforms.satisfies", per_state)
    for source, produced, via in transforms_of(seed):
        assert equivalence_check(source, produced, via).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_check_matches_oracle_on_a_flipped_valuation(seed):
    for source, produced, via in transforms_of(seed):
        report = assert_same(source, flip_one_valuation_bit(produced), via)
        assert any(v.law == "modal-equivalence" for v in report.violations), (seed, via)


@pytest.mark.parametrize("seed", [0, 7, 10])
def test_equivalence_check_matches_oracle_on_minimized_spaces(seed):
    k = gen_fh(seed)
    for truncate, via in ((False, "hms"), (True, "implicit-hms")):
        produced = hms_transform(k, truncate=truncate, minimize=True)
        unaligned = [space for space, refs in produced.lattice.spaces.items()
                     if tuple(ref.id for ref in refs) != k.worlds]
        assert unaligned
        assert not assert_same(k, produced, via).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_valid_in_model_matches_oracle(seed):
    k = gen_fh(seed)
    models = [hms_transform(k), hms_transform(k, truncate=True)]
    models.append(flip_one_valuation_bit(models[0]))
    for model in models:
        for f in enumerate_formulas(model.atoms, model.agents, 2):
            assert valid_in_model(model, f) == naive_valid(model, f), (seed, f)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_check_all_matches_oracle(seed, tmp_path, capsys):
    k = gen_fh(seed)
    for name, model in (("comp", hms_transform(k)),
                        ("implicit", hms_transform(k, truncate=True))):
        path = tmp_path / f"{name}.model"
        save_model(model, path)
        for text in ("p", "l_1 p -> a_1 p", "~ k_1 p & a_1 T"):
            f = parse(text)
            assert main(["check", str(path), "--formula", text, "--all",
                         "--format", "data"]) == 0
            values = json.loads(capsys.readouterr().out)["values"]
            expected = {state_token(ref): str(naive_truth(model, ref, f))
                        for ref in model.states}
            assert list(values.items()) == sorted(expected.items())


def test_equal_formulas_built_separately_share_a_hash():
    text = "l_1 (p -> a_2 ~q) & k_1 T"
    first, second = parse(text), parse(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    built = And(L("1", Not(And(Atom("p"), Not(A("2", Not(Atom("q"))))))), parse("k_1 T"))
    assert built == first and hash(built) == hash(first)
    assert {first: 1}[built] == 1


# -- the event kernel ------------------------------------------------------------


def naive_up(model, space, base):
    """Every state at or above ``space`` whose projection into it is in ``base``."""
    return frozenset(ref for ref in model.states
                     if space <= ref.space and project_state(model, ref, space) in base)


def naive_join(model, events, keep):
    """Each (space, base) pair elaborated to the join of the spaces: the
    states of the join whose projections ``keep`` accepts, one flag per event."""
    join = frozenset().union(*(space for space, _ in events))
    return join, frozenset(
        ref for ref in model.lattice.states_of(join)
        if keep([project_state(model, ref, space) in base for space, base in events]))


def naive_box(model, image, space, base):
    """The states of ``space`` whose image lies in the up-closure of ``base``."""
    up = naive_up(model, space, base)
    return frozenset(ref for ref in model.lattice.states_of(space) if image(ref) <= up)


@functools.cache
def kernel_models():
    """Both fixtures and generated transforms up to 6 atoms, each as its
    complemented and its implicit model."""
    models = [fig1L(), fig1R()]
    for seed in range(8):
        k = gen_fh(seed, GenCaps(atoms=6, worlds=6))
        models += [hms_transform(k), hms_transform(k, truncate=True)]
    assert max(len(model.atoms) for model in models) == 6
    return models


def random_events(model, rng, count=10):
    """Seeded (space, base) pairs, the empty and the full base among them."""
    lat = model.lattice
    spaces = sorted(lat.spaces, key=space_key)
    out = [(spaces[0], frozenset()), (lat.atoms, frozenset(lat.states_of(lat.atoms)))]
    while len(out) < count:
        space = rng.choice(spaces)
        states = lat.states_of(space)
        out.append((space, frozenset(rng.sample(states, rng.randint(0, len(states))))))
    return out


def assert_event(model, event, space, base):
    assert (event.base_space, event.base) == (space, base)
    assert model.lattice.up_closure(event) == naive_up(model, space, base)
    ids = ",".join(sorted(ref.id for ref in base))
    assert str(event) == f"{space_key(space)}:[{ids}]"


def check_event_kernel(model, rng):
    lat = model.lattice
    pairs = random_events(model, rng)
    events = [lat.event(space, base) for space, base in pairs]
    for event, (space, base) in zip(events, pairs):
        assert_event(model, event, space, base)
        assert_event(model, lat.event_not(event), space,
                     frozenset(lat.states_of(space)) - base)
    for size in (1, 2, 3):
        for combo in rng.sample(list(combinations(range(len(pairs)), size)), 6):
            chosen = [pairs[i] for i in combo]
            assert_event(model, lat.event_and([events[i] for i in combo]),
                         *naive_join(model, chosen, all))
            assert_event(model, lat.event_or([events[i] for i in combo]),
                         *naive_join(model, chosen, any))
    for left, (left_space, left_base) in zip(events, pairs):
        for right, (right_space, right_base) in zip(events, pairs):
            same = (left_space, left_base) == (right_space, right_base)
            assert (left == right) is same
            assert not same or hash(left) == hash(right)


@pytest.mark.parametrize("index", range(18))
def test_event_kernel_matches_definitions(index):
    check_event_kernel(kernel_models()[index], random.Random(index))


def test_event_kernel_matches_definitions_where_projections_do_not_commute():
    """Conjunction elaborates to the join and up-closes from there, which
    differs from intersecting the up-closures once projections stop
    commuting."""
    broken = 0
    for seed in range(8):
        data = model_to_data(hms_transform(gen_fh(seed, GenCaps(atoms=4, worlds=4))))
        rng = random.Random(seed)
        if not misroute_projection(data, rng):
            continue  # every projection is constant
        model = data_to_model(data)
        broken += any(v.law == "projection-composition" for v in validate_hms(model).violations)
        check_event_kernel(model, rng)
    assert broken


@pytest.mark.parametrize("index", range(18))
def test_operators_match_definitions(index):
    model = kernel_models()[index]
    derived = model if model.pi is not None else model.derived()
    lat = model.lattice
    for space, base in random_events(model, random.Random(index)):
        event = lat.event(space, base)
        for agent in model.agents:
            for op, corr in ((k_op, derived.pi[agent]), (l_op, model.lambda_[agent])):
                assert_event(model, op(model, agent, event), space,
                             naive_box(model, corr.__getitem__, space, base))
            if model.alpha is not None:
                level = model.alpha[agent].__getitem__
            else:
                def level(ref, pi=model.pi[agent]):
                    (found,) = {target.space for target in pi[ref]}
                    return found
            assert_event(model, a_op(model, agent, event), space,
                         frozenset(ref for ref in lat.states_of(space) if space <= level(ref)))
