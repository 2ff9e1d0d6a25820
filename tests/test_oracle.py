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

The property suites decide the conjunction laws on base masks at each
family's join space, with one joined event per family per lattice.  The
event-level check they replaced, which runs each operator on each family's
conjunction and compares the two events, must give the same reports, also
when a planted operator bug makes a law FAIL.

Awareness models are held as world-index masks.  A per-world evaluator
written from the definitions must agree with `fh_extension`,
`fh_satisfies` and `_fh_extension`, also on models that `validate_fh`
rejects; the partition refinement behind `--minimize` must find the
partition of the signature fixpoint it replaced; and every member of a
sublanguage category, quotiented or not, must equal the copy restricted
(and quotiented) from strings.

The lattice validators decide the laws of a state's image once per
distinct image (or pair of Λ and Π images), check the projection laws at
covering pairs, and walk the laws state by state only where one fails or
may fail.  A walk over every state, written from the definitions and
projecting state by state through the projection table, must give the
same reports, witnesses, their order and `checked` included, on valid
models and on edited ones: one entry of a primitive or a projection
changed, or one to three random edits of generated and minimized
transforms.  On a passing model no validator walks a state; on a lattice
whose projections do not compose, the states walked and the dirty states
are those their definitions give, fewer than all.  An aligned
lattice (every unminimized transform's) projects and up-closes by shifts
and multiplies, which must agree with the state-by-state definitions on
aligned lattices and on lattices that are not.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import combinations

import pytest

from awarekit.awareness import (
    AwarenessCategory,
    AwarenessModel,
    _fh_extension,
    _modal_partition,
    _quotient,
    build_category,
    fh_extension,
    fh_satisfies,
    validate_fh,
)
from awarekit.cli import main
from awarekit.enumeration import enumerate_formulas
from awarekit.errors import AwarekitError
from awarekit.fixtures import fig1L, fig1R
from awarekit import implicit, unawareness
from awarekit.implicit import (
    _lambda_laws,
    a_star_property_suite,
    implicit_from_complemented,
    implicit_property_suite,
    validate_alpha,
    validate_implicit,
    validate_lambda,
)
from awarekit.gen import GenCaps, gen_fh, gen_hms, gen_implicit, random_formula
from awarekit.modelio import (
    awareness_model_from_fields,
    data_to_model,
    dumps_model,
    model_to_data,
    save_model,
)
from awarekit.reports import Report
from awarekit.semantics import TruthValue, extension, truth_masks, valid_in_model
from awarekit.syntax import A, And, Atom, K, L, Not, Top, atoms as formula_atoms, parse
from awarekit.transforms import (
    category_to_implicit,
    equivalence_check,
    fh_star_transform,
    fh_transform,
    hms_transform,
)
from awarekit.unawareness import (
    MAX_FAMILIES,
    MAX_FAMILY_SIZE,
    LatticeModel,
    SpaceLattice,
    StateRef,
    _dirty,
    _holders,
    _incoherent,
    _indices,
    _refs,
    _Row,
    _Suite,
    _validate_lattice,
    a_op,
    event_basis,
    explicit_property_suite,
    k_op,
    l_op,
    parse_space_key,
    parse_state_token,
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


def base_moved_up(model):
    """The lattice model with its first atom's valuation based one space
    higher, at the preimage of its base there: every formula over that atom
    alone is then Undefined at the states of the atom's own space."""
    data = model_to_data(model)
    atom = sorted(data["valuation"])[0]
    entry = data["valuation"][atom]
    low = parse_space_key(entry["base_space"])
    high = low | {min(model.atoms - low)}
    down = data["projections"][f"{space_key(high)}->{space_key(low)}"]
    base = set(entry["base"])
    data["valuation"][atom] = {"base_space": space_key(high),
                               "base": sorted(s for s, t in down.items() if t in base)}
    return data_to_model(data)


def failing_transforms_of(seed: int):
    """Each of the four transform triples with one atom flipped at one world
    of the produced model, each tagged with its edit; and, where the lattice
    model is complemented and has a space above the atom's, the triple with
    the lattice model's first atom based one space too high.  An implicit
    lattice model so edited fails its own laws, and Π cannot be derived."""
    out = []
    for source, produced, via in transforms_of(seed):
        out.append((source, flip_one_valuation_bit(produced), via, "flip"))
        if via == "hms" and len(produced.atoms) > 1:
            out.append((source, base_moved_up(produced), via, "moved"))
        elif via == "fh" and len(source.atoms) > 1:
            out.append((base_moved_up(source), produced, via, "moved"))
    return out


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
    """A transform aligns every space, so no state is looked up one at a
    time: not when it is correct, and not when an edit makes spaces
    disagree, where the violations read off the masks must be the
    oracle's, in its order, with its ``checked`` count."""
    def per_state(*args):
        raise AssertionError("per-state lookup on an aligned space")

    monkeypatch.setattr("awarekit.transforms._value", per_state)
    for source, produced, via in transforms_of(seed):
        assert equivalence_check(source, produced, via).ok
    for source, produced, via, edit in failing_transforms_of(seed):
        laws = {v.law for v in assert_same(source, produced, via).violations}
        if edit == "flip":
            assert "modal-equivalence" in laws, (seed, via)
        elif via == "hms":
            assert "expected-defined" in laws, (seed, via)
        assert "state-alignment" not in laws, (seed, via, edit)


@pytest.mark.parametrize("seed", [0, 7, 10])
def test_truth_masks_are_taken_once_per_formula(seed, monkeypatch):
    """Every space, aligned or walked, reads a formula's truth masks from
    one call."""
    calls = []
    monkeypatch.setattr("awarekit.transforms.truth_masks",
                        lambda model, f: calls.append(f) or truth_masks(model, f))
    k = gen_fh(seed)
    minimized = category_to_implicit(build_category(k, minimize=True)).derived()
    triples = transforms_of(seed) + [(k, minimized, "hms")]
    for source, produced, via in triples:
        calls.clear()
        equivalence_check(source, produced, via)
        assert len(calls) == len(set(calls)), (seed, via)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_a_lattice_without_an_atom_gives_state_alignment(seed):
    """Truth masks are taken only where a space needs them, so formulas
    over an atom that the lattice lacks find no state there: each is a
    ``state-alignment``, not an unknown atom."""
    k = gen_fh(seed, GenCaps(atoms=3, worlds=4))
    atom = min(k.language_atoms)
    produced = hms_transform(build_category(k).models[frozenset({atom})])
    assert len(k.language_atoms) > 1 and produced.atoms == {atom}
    report = assert_same(k, produced, "hms")
    assert "state-alignment" in {v.law for v in report.violations}


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_check_matches_oracle_on_a_flipped_valuation(seed):
    for source, produced, via in transforms_of(seed):
        report = assert_same(source, flip_one_valuation_bit(produced), via)
        assert any(v.law == "modal-equivalence" for v in report.violations), (seed, via)


@pytest.mark.parametrize("seed", [0, 7, 10])
def test_equivalence_check_matches_oracle_on_minimized_spaces(seed):
    k = gen_fh(seed)
    for truncate, via in ((False, "hms"), (True, "implicit-hms")):
        produced = category_to_implicit(build_category(k, minimize=True))
        if not truncate:
            produced = produced.derived()
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
            expected = {str(ref): str(naive_truth(model, ref, f))
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
                     if space <= ref.space and model.lattice.project(ref, space) in base)


def naive_join(model, events, keep):
    """Each (space, base) pair elaborated to the join of the spaces: the
    states of the join whose projections ``keep`` accepts, one flag per event."""
    join = frozenset().union(*(space for space, _ in events))
    return join, frozenset(
        ref for ref in model.lattice.states_of(join)
        if keep([model.lattice.project(ref, space) in base for space, base in events]))


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


# -- awareness models ------------------------------------------------------------


def naive_fh(model, world: str, f) -> bool:
    """Truth at one world, from the definitions over the decoded views."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return world in model.valuation.get(f.name, ())
    if isinstance(f, Not):
        return not naive_fh(model, world, f.child)
    if isinstance(f, And):
        return naive_fh(model, world, f.left) and naive_fh(model, world, f.right)
    known = all(naive_fh(model, t, f.child) for t in model.successors(f.agent, world))
    aware = formula_atoms(f.child) <= model.awareness_atoms[f.agent][world]
    return {L: known, A: aware, K: known and aware}[type(f)]


def random_fh(seed: int, atoms: int, worlds: int, stray: bool = False) -> AwarenessModel:
    """An awareness model with random, mostly non-partitional relations;
    with ``stray``, awareness and valuation also name atoms outside the
    language, so ``validate_fh`` rejects it on several counts."""
    rng = random.Random(f"random-fh:{seed}")
    language = [f"p{i}" for i in range(atoms)]
    named = language + (["a", "z"] if stray else [])
    ids = [f"w{i}" for i in range(worlds)]  # w10 sorts before w2
    agents = ["1", "2"]
    return awareness_model_from_fields(
        language, agents, ids,
        {a: [(w, t) for w in ids for t in ids if rng.random() < 0.3] for a in agents},
        {a: {w: [p for p in named if rng.random() < 0.6] for w in ids} for a in agents},
        {p: [w for w in ids if rng.random() < 0.5] for p in named if rng.random() < 0.9})


def chain_fh(n: int, partitional: bool) -> AwarenessModel:
    """Worlds ``w0`` to ``w(n-1)``, ``p`` true at the last only, linked by
    a successor chain or by two agents' overlapping two-world cells: telling
    the worlds apart takes one refinement step per link."""
    ids = [f"w{i}" for i in range(n)]
    if partitional:
        cells = {"1": [ids[i:i + 2] for i in range(0, n, 2)],
                 "2": [ids[:1]] + [ids[i:i + 2] for i in range(1, n, 2)]}
        relations = {a: [(w, t) for cell in cells[a] for w in cell for t in cell] for a in cells}
    else:
        relations = {a: list(zip(ids, ids[1:] + ids[-1:])) for a in ("1", "2")}
    return awareness_model_from_fields(["p"], ["1", "2"], ids, relations,
                                       {a: {w: ["p"] for w in ids} for a in ("1", "2")},
                                       {"p": ids[-1:]})


FH_MODELS = 28


@functools.cache
def fh_models():
    """The fixtures' awareness models, generated models at 1 to 6 atoms,
    two chains, and random non-partitional models, some naming stray atoms."""
    models = [fh_transform(fig1L()), fh_transform(fig1R())]
    for atoms in range(1, 7):
        models += [gen_fh(seed, GenCaps(atoms=atoms, worlds=12)) for seed in range(3)]
    models += [chain_fh(11, partitional=True), chain_fh(11, partitional=False)]
    models += [random_fh(seed, 3, 5 + seed, stray=seed % 2 == 1) for seed in range(6)]
    assert len(models) == FH_MODELS
    return models


def formulas_for(model, seed: int, extra=()) -> list:
    rng = random.Random(seed)
    atoms = sorted(model.language_atoms) + list(extra)
    return list(enumerate_formulas(model.language_atoms, model.agents, 2)) + [
        random_formula(rng, atoms, model.agents, 3) for _ in range(60)]


@pytest.mark.parametrize("index", range(FH_MODELS))
def test_fh_evaluation_matches_definitions(index):
    model = fh_models()[index]
    for f in formulas_for(model, index):
        expected = frozenset(w for w in model.worlds if naive_fh(model, w, f))
        assert fh_extension(model, f) == expected, f
        assert [fh_satisfies(model, w, f) for w in model.worlds] == \
            [w in expected for w in model.worlds]


@pytest.mark.parametrize("seed", range(6))
def test_fh_masks_match_definitions_on_rejected_models(seed):
    """``_fh_extension`` also evaluates models that fail validation, and
    atoms outside the language (``z`` here) that awareness or the
    valuation names."""
    model = random_fh(seed, 3, 6, stray=True)
    assert not validate_fh(model).ok
    for f in formulas_for(model, seed, extra=["z"]):
        mask = _fh_extension(model, f)
        assert [bool(mask >> i & 1) for i in range(len(model.worlds))] == \
            [naive_fh(model, w, f) for w in model.worlds], f


def fixpoint_partition(model) -> dict[str, frozenset[str]]:
    """The signature fixpoint that ``--minimize`` used before partition
    refinement: refine by facts, awareness and the blocks each agent
    reaches until nothing changes."""
    def signature(world, block_of):
        facts = tuple(world in model.valuation.get(p, frozenset())
                      for p in sorted(model.language_atoms))
        aware = tuple(tuple(sorted(model.awareness_atoms[a][world])) for a in model.agents)
        reach = tuple(frozenset(block_of[t] for t in model.successors(a, world))
                      for a in model.agents)
        return facts, aware, reach

    block_of = {w: 0 for w in model.worlds}
    while True:
        sigs = {w: signature(w, block_of) for w in model.worlds}
        fresh: dict = {}
        for w in sorted(model.worlds):
            fresh.setdefault(sigs[w], len(fresh))
        updated = {w: fresh[sigs[w]] for w in model.worlds}
        if updated == block_of:
            break
        block_of = updated
    cells: dict[int, set[str]] = {}
    for w, b in block_of.items():
        cells.setdefault(b, set()).add(w)
    return {w: frozenset(cells[b]) for w, b in block_of.items()}


def string_quotient(model):
    """The quotient by the fixpoint partition, built from strings as
    ``--minimize`` built it before."""
    cell_of = fixpoint_partition(model)
    name_of = {w: "+".join(sorted(cell_of[w])) for w in model.worlds}
    member_of: dict[str, str] = {}
    for w in model.worlds:
        first = min(cell_of[w])
        if member_of.setdefault(name_of[w], first) != first:
            raise AwarekitError(
                f"cannot minimize: blocks {member_of[name_of[w]]!r} and {first!r} "
                f"would both be named {name_of[w]!r}; rename worlds so that no "
                f"world id equals a '+'-join of others")
    out = awareness_model_from_fields(
        model.language_atoms, model.agents, sorted(member_of),
        {a: {(name_of[w], name_of[t]) for w, t in model.relations[a]} for a in model.agents},
        {a: {name_of[w]: model.awareness_atoms[a][w] for w in model.worlds}
         for a in model.agents},
        {p: frozenset(name_of[w] for w in hits) for p, hits in model.valuation.items()})
    return out, name_of, member_of


def views(model) -> tuple:
    return (model.language_atoms, model.agents, model.worlds, model.relations,
            model.awareness_atoms, model.valuation, model_to_data(model))


@pytest.mark.parametrize("index", range(FH_MODELS))
def test_modal_partition_matches_the_fixpoint(index):
    model = fh_models()[index]
    if index in (20, 21):  # the chains: every world is its own block
        assert len(_modal_partition(model)) == len(model.worlds)
    found = {model.worlds[i]: frozenset(model.worlds[j] for j in range(len(model.worlds))
                                        if block >> j & 1)
             for block in _modal_partition(model) for i in range(len(model.worlds))
             if block >> i & 1}
    assert found == fixpoint_partition(model)


def test_quotient_name_collision_matches_the_fixpoint():
    worlds = ["a", "b", "a+b"]
    model = awareness_model_from_fields(["p"], ["1"], worlds, {"1": [(w, w) for w in worlds]},
                                        {"1": {w: ["p"] for w in worlds}}, {"p": ["a", "b"]})
    errors = []
    for quotient in (_quotient, string_quotient):
        with pytest.raises(AwarekitError) as caught:
            quotient(model)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "would both be named 'a+b'" in errors[0]


@pytest.mark.parametrize("minimize", [False, True], ids=["restricted", "minimized"])
@pytest.mark.parametrize("index", [0, 1, 2, 5, 8, 11, 12, 20])
def test_category_members_match_string_copies(index, minimize):
    """Each member made from the top's tables equals the member restricted
    from strings, quotiented by the fixpoint with ``minimize``; so do the
    morphisms, every formula's extension, and the implicit model of the
    category, which reads string-built members through their own atom bit
    order."""
    model = fh_models()[index]
    category = build_category(model, minimize=minimize)
    onto, source, copies = {}, {}, {}
    for space, member in category.models.items():
        copy = awareness_model_from_fields(
            space, model.agents, model.worlds, model.relations,
            {a: {w: model.awareness_atoms[a][w] & space for w in model.worlds}
             for a in model.agents},
            {p: model.valuation[p] for p in sorted(space) if p in model.valuation})
        onto[space] = source[space] = {w: w for w in model.worlds}
        if minimize:
            copy, onto[space], source[space] = string_quotient(copy)
        assert views(member) == views(copy), space_key(space)
        for f in enumerate_formulas(space, model.agents, 2):
            assert fh_extension(member, f) == fh_extension(copy, f)
        copies[space] = copy
    for (large, small), morphism in category.morphisms.items():
        assert dict(morphism) == {block: onto[small][source[large][block]]
                                          for block in category.models[large].worlds}
    strings = AwarenessCategory(category.atoms, copies, category.morphisms)
    assert dumps_model(category_to_implicit(strings)) == \
        dumps_model(category_to_implicit(category))


# -- the conjunction laws -------------------------------------------------------


def reference_conjunctions(suite, agent, laws):
    """The conjunction laws on events, as the suites first checked them: per
    family of the basis, and per law, the operator on the family's
    conjunction, through the row's operator memo, against the conjunction of the
    operator on each member.  The families are rebuilt here from the basis,
    as tuples of events; a family's witness is its events' texts joined by
    ``;``."""
    lat, model = suite.lat, suite.model
    basis = event_basis(model)
    families = [combo for size in range(1, MAX_FAMILY_SIZE + 1)
                for combo in combinations(basis, size)][:MAX_FAMILIES]
    for family in families:
        joined = lat.event_and(family)
        for law, op, _ in laws:
            suite.check(law, agent, op(model, agent, joined),
                        lat.event_and([op(model, agent, e) for e in family]),
                        family=";".join(map(str, family)))


def suite_reports(im, comp) -> list[dict]:
    return [explicit_property_suite(comp).to_data(), implicit_property_suite(comp).to_data(),
            a_star_property_suite(im).to_data()]


def assert_conjunctions_match_reference(im, comp, monkeypatch) -> list[dict]:
    fast = suite_reports(im, comp)
    with monkeypatch.context() as patch:
        patch.setattr(_Suite, "conjunctions", reference_conjunctions)
        assert suite_reports(im, comp) == fast
    return fast


@pytest.mark.parametrize("name", ["fig1L", "fig1R"])
def test_conjunctions_match_reference_on_fixtures(name, monkeypatch):
    comp = {"fig1L": fig1L, "fig1R": fig1R}[name]()
    reports = assert_conjunctions_match_reference(implicit_from_complemented(comp), comp,
                                                  monkeypatch)
    assert all(report["passed"] for report in reports)


@pytest.mark.parametrize("seed", range(12))
def test_conjunctions_match_reference_on_generated_models(seed, monkeypatch):
    im = hms_transform(gen_fh(seed, GenCaps(atoms=6, worlds=12)), truncate=True)
    assert_conjunctions_match_reference(im, im.derived(), monkeypatch)


def dropping_one_state_on_joins(method):
    """A lattice operator's base method that drops the lowest base state at
    spaces of three or more atoms.  No basis event lies that high, so only
    the operator on a family's conjunction sees the bug."""
    def patched(self, row, space, *rest):
        base = method(self, row, space, *rest)
        return base & (base - 1) if space.bit_count() >= 3 else base
    return patched


@pytest.mark.parametrize("methods, laws", [
    (["_box"], ["knowledge-conjunction"]),
    (["_aware"], ["awareness-conjunction"]),
    (["_box", "_aware"], ["knowledge-conjunction", "awareness-conjunction"]),
], ids=["box", "aware", "both"])
def test_planted_operator_bug_fails_the_conjunction_laws_on_both_paths(methods, laws,
                                                                       monkeypatch):
    """Equal reports also mean the same witnesses in the same order: per
    family, the laws in turn."""
    im = hms_transform(gen_fh(1, GenCaps(atoms=6, worlds=12)), truncate=True)
    comp = im.derived()
    for method in methods:
        monkeypatch.setattr(SpaceLattice, method,
                            dropping_one_state_on_joins(getattr(SpaceLattice, method)))
    explicit = assert_conjunctions_match_reference(im, comp, monkeypatch)[0]
    failed = [v for v in explicit["violations"] if v["law"].endswith("-conjunction")]
    assert {v["law"] for v in failed} == set(laws)
    assert all(set(v["witness"]) == {"left", "right", "family"} for v in failed)


SUBSET_LAWS = {
    "knowledge-truth": {"left", "right", "event"},
    "knowledge-positive-introspection": {"left", "right", "event"},
    "weak-negative-introspection-1": {"left", "right", "event"},
    "knowledge-monotonicity": {"left", "right", "smaller", "larger"},
    "implicit-truth": {"left", "right", "event"},
    "implicit-positive-introspection": {"left", "right", "event"},
    "implicit-negative-introspection": {"left", "right", "event"},
    "implicit-monotonicity": {"left", "right", "smaller", "larger"},
}


def knowing_the_whole_space(know):
    """``_Row.know`` that knows every state of the event's base space."""
    def patched(row, event):
        lat = row.lattice
        return type(event)(event.space, lat._upspace[event.space], lat._names)
    return patched


def forgetting_the_last_state(know):
    """``_Row.know`` that drops the highest state of the true base, so that
    knowing twice knows less than knowing once."""
    def patched(row, event):
        out, lat = know(row, event), row.lattice
        base = out.up & lat._names.span_bits[out.space]
        top = 1 << base.bit_length() - 1 if base else 0
        return type(event)(out.space, lat._close(base ^ top), lat._names)
    return patched


@pytest.mark.parametrize("plant, laws", [
    (knowing_the_whole_space, ["knowledge-truth", "knowledge-monotonicity",
                               "implicit-truth", "implicit-monotonicity"]),
    (forgetting_the_last_state, ["knowledge-positive-introspection",
                                 "weak-negative-introspection-1",
                                 "implicit-positive-introspection",
                                 "implicit-negative-introspection"]),
], ids=["whole-space", "last-state"])
def test_planted_knowledge_bug_fails_the_subset_laws(plant, laws, monkeypatch):
    """The subset laws are theorems of the validated laws, so only a wrong
    operator makes one fail: each planted one is seen, with its witness."""
    comp = hms_transform(gen_fh(1, GenCaps(atoms=3, worlds=6)))
    monkeypatch.setattr(_Row, "know", plant(_Row.know))
    failed = [v for suite in (explicit_property_suite, implicit_property_suite)
              for v in suite(comp).violations if v.law in SUBSET_LAWS]
    assert sorted({v.law for v in failed}) == sorted(laws)
    assert all(set(v.witness) == SUBSET_LAWS[v.law] for v in failed)


# -- the projection laws --------------------------------------------------------


def project_states(lat, mask: int, target: int) -> int:
    """A state mask projected into the space ``target``, state by state
    through the projection table."""
    out = 0
    for i in _indices(mask):
        out |= 1 << lat._proj[i][target]
    return out


def up_states(lat, mask: int) -> int:
    """The up-closure of a state mask from the projection table: every
    state that projects onto a state of the mask."""
    return sum(1 << j for j, row in enumerate(lat._proj)
               if any(row[lat._space[i]] == i for i in _indices(mask)))


def reference_lattice(lat) -> Report:
    """`_validate_lattice` as a walk over every state: each covering map is
    onto, each covering square commutes at every state, and each atom's
    base space is the atom alone."""
    report = Report()
    states, proj, span, keys = lat.states, lat._proj, lat._span, lat._keys
    covers = sorted(((parent, parent ^ 1 << k) for parent in range(len(span))
                     for k in _indices(parent)), key=lambda pair: [keys[m] for m in pair])
    report.count(len(covers))
    for parent, target in covers:
        hit = {proj[i][target] for i in span[parent]}
        for j in span[target]:
            if j not in hit:
                report.add("projection-surjective", state=states[j],
                           source=keys[parent], target=keys[target])
    for space, refs in lat.spaces.items():
        mask = lat._masks[space]
        for x, y in combinations(sorted(space), 2):
            via_x, via_y = mask & ~lat._atom_bit[x], mask & ~lat._atom_bit[y]
            meet = via_x & via_y
            for ref in refs:
                i = lat._state_index(ref)
                report.count()
                if proj[proj[i][via_x]][meet] != proj[proj[i][via_y]][meet]:
                    report.add("projection-composition", state=ref,
                               space=space_key(space), dropped=f"{x},{y}")
    for atom in sorted(lat.atoms):
        report.count()
        space = lat.valuation[atom].space
        if space != lat._atom_bit[atom]:
            report.add("valuation-base-space", atom=atom,
                       base_space=keys[space], required=atom)
    return report


def reference_hms(model) -> Report:
    """`validate_hms` as a walk over every state: the lattice's laws, then
    per agent, confinement at every state, and reflexivity, stationarity and
    the projection laws at every space below each state's own."""
    lat = model.lattice
    report = reference_lattice(lat)
    states, spaces, proj, below, keys = (
        lat.states, lat._space, lat._proj, lat._below, lat._keys)
    checked = 0
    for agent in model.agents:
        images, levels = model._pi[agent].images, model._pi[agent].levels
        ups = functools.cache(functools.partial(up_states, lat))
        image_ups = [ups(image) for image in images]
        holders = _holders(images)
        checked += 2 * len(states)
        for i, ref in enumerate(states):
            if levels[i] < 0:
                checked -= 1
                found = {keys[spaces[j]] for j in _indices(images[i])}
                report.add("confinement-single-space", agent, state=ref,
                           spaces=";".join(sorted(found)))
                continue
            if levels[i] & ~spaces[i]:
                report.add("confinement-expressible", agent, state=ref,
                           image_space=keys[levels[i]])
        for i, ref in enumerate(states):
            mine, mine_up, space = images[i], image_ups[i], spaces[i]
            checked += mine.bit_count() + len(below[space])
            if not mine_up >> i & 1:
                report.add("generalized-reflexivity", agent, state=ref,
                           image=";".join(map(str, _refs(states, mine))))
            for j in _indices(mine & ~holders[mine]):
                report.add("stationarity", agent, state=ref, reached=states[j])
            row = proj[i]
            for target in below[space][:-1]:
                if mine_up & ~image_ups[row[target]]:
                    report.add("projections-preserve-ignorance", agent,
                               state=ref, below=keys[target])
            level = levels[i]
            if level < 0 or level & ~space:
                continue
            checked += len(below[level])
            for target in below[level]:
                if project_states(lat, mine, target) != images[row[target]]:
                    report.add("projections-preserve-knowledge", agent,
                               state=ref, below=keys[target])
    report.count(checked)
    return report


def reference_lambda_laws(lat, agent, row) -> Report:
    """`implicit._lambda_laws` as a walk over every state: strong
    confinement, reflexivity and stationarity, then the projection law at
    every space below each confined state's own."""
    states, spaces, proj, below, keys = lat.states, lat._space, lat._proj, lat._below, lat._keys
    images, levels = row.images, row.levels
    confined = [level == space for level, space in zip(levels, spaces)]
    holders = _holders(images)
    report = Report()
    checked = len(states)
    for i, ref in enumerate(states):
        mine = images[i]
        if not confined[i]:
            report.add("strong-confinement", agent, state=ref,
                       image=";".join(map(str, _refs(states, mine))))
            continue
        checked += 1 + mine.bit_count()
        if not mine >> i & 1:
            report.add("implicit-reflexivity", agent, state=ref)
        for j in _indices(mine & ~holders[mine]):
            report.add("implicit-stationarity", agent, state=ref, reached=states[j])
    for i, ref in enumerate(states):
        if not confined[i]:
            continue
        checked += len(below[spaces[i]])
        for target in below[spaces[i]]:
            if project_states(lat, images[i], target) != images[proj[i][target]]:
                report.add("projections-preserve-implicit-knowledge", agent,
                           state=ref, below=keys[target])
    report.count(checked)
    return report


def reference_lambda(model) -> Report:
    """`validate_lambda` as a walk over every state: `reference_hms`, then
    per agent Λ's laws and, at every state, the joint laws of Λ and Π."""
    lat = model.lattice
    states, spaces, keys = lat.states, lat._space, lat._keys
    report = reference_hms(model)
    checked = 0
    for agent in model.agents:
        row, pi_row = model._lambda[agent], model._pi[agent]
        images, levels, pi_images, pi_levels = row.images, row.levels, pi_row.images, pi_row.levels
        report.merge(reference_lambda_laws(lat, agent, row))
        for i, ref in enumerate(states):
            known = pi_images[i]
            checked += images[i].bit_count()
            for j in _indices(images[i]):
                if pi_images[j] != known:
                    report.add("explicit-measurability", agent, state=ref, reached=states[j])
            level = pi_levels[i]
            if level < 0 or level & ~spaces[i] or levels[i] != spaces[i]:
                continue
            projected = project_states(lat, images[i], level)
            checked += 2 * known.bit_count() + 1
            for j in _indices(known):
                if images[j] != projected:
                    report.add("implicit-measurability", agent, state=ref, reached=states[j])
                if images[j] != pi_images[j]:
                    report.add("implicit-matches-explicit-on-possibility-set", agent,
                               state=ref, reached=states[j])
            if projected != known:
                report.add("coherence", agent, state=ref, level=keys[level])
    report.count(checked)
    return report


def reference_alpha(model) -> Report:
    """`validate_alpha` as a walk over every state and every space below
    it: lack of conception, awareness measurability, and the three
    projection laws of the levels."""
    lat = model.lattice
    states, spaces, proj, below, keys = lat.states, lat._space, lat._proj, lat._below, lat._keys
    report = Report()
    for agent in model.agents:
        levels = model._alpha[agent].levels
        images = model._lambda[agent].images
        for i, ref in enumerate(states):
            level, space = levels[i], spaces[i]
            report.count()
            if level & ~space:
                report.add("lack-of-conception", agent, state=ref, level=keys[level])
                continue
            mine = images[i] & lat._names.span_bits[space]
            report.count(images[i].bit_count())
            for j in _indices(mine):
                if levels[j] != level:
                    report.add("awareness-measurability", agent, state=ref, reached=states[j])
            for target in below[space]:
                got = levels[proj[i][target]]
                report.count(3)
                if not target & ~level and got != target:
                    report.add("awareness-projects-to-level", agent, state=ref,
                               below=keys[target], got=keys[got])
                if not level & ~target and got != level:
                    report.add("awareness-constant-above-level", agent, state=ref,
                               below=keys[target], got=keys[got])
                if got & ~level:
                    report.add("awareness-monotone-under-projection", agent, state=ref,
                               below=keys[target], got=keys[got])
    return report


def reference_implicit(model) -> Report:
    """`validate_implicit` as a walk over every state: the lattice's laws,
    Λ's laws per agent, then, when all of them pass, α's."""
    lat = model.lattice
    report = reference_lattice(lat)
    for agent, row in model._lambda.items():
        report.merge(reference_lambda_laws(lat, agent, row))
    if report.ok:
        report.merge(reference_alpha(model))
    return report


def assert_projection_laws_match_reference(model) -> list[dict]:
    """Each walk's report on the model, which must equal the reference's:
    Π's when Π is primitive, and Λ's per agent."""
    reports = []
    if model._pi is not None:
        reports.append(validate_hms(model).to_data())
        assert reports[-1] == reference_hms(model).to_data()
    if model._lambda is not None:
        lat = model.lattice
        for agent, row in model._lambda.items():
            reports.append(_lambda_laws(lat, agent, row).to_data())
            assert reports[-1] == reference_lambda_laws(lat, agent, row).to_data()
    return reports


@functools.cache
def generated_lattice_models() -> tuple:
    """Per atom count from 2 to 5, the first two generated models with
    exactly that many atoms, as implicit models and complemented ones."""
    models = []
    for atoms in range(2, 6):
        caps = GenCaps(atoms=atoms, worlds=6)
        seeds = [s for s in range(100) if len(gen_fh(s, caps).language_atoms) == atoms][:2]
        for seed in seeds:
            im = hms_transform(gen_fh(seed, caps), truncate=True)
            models += [model_to_data(im), model_to_data(im.derived())]
    return tuple(json.dumps(data) for data in models)


def lattice_model_data() -> list[dict]:
    datas = [model_to_data(fig1L()), model_to_data(fig1R()),
             model_to_data(implicit_from_complemented(fig1L())),
             model_to_data(implicit_from_complemented(fig1R()))]
    return datas + [json.loads(text) for text in generated_lattice_models()]


@pytest.mark.parametrize("index", range(20))
def test_projection_laws_match_the_full_walk(index):
    data = lattice_model_data()[index]
    reports = assert_projection_laws_match_reference(data_to_model(data))
    assert all(report["passed"] for report in reports)


def corrupt_image(data, field, rng):
    """Replace one image: by another state's image, by a random set of
    states of one space at or below the state's own, or by the image with
    one member moved to another state of its space."""
    table = data[field][rng.choice(sorted(data[field]))]
    token = rng.choice(sorted(table))
    space = token.partition(":")[0]
    how = rng.randrange(3)
    if how == 0:
        table[token] = list(table[rng.choice(sorted(table))])
    elif how == 1:
        mine = set(space.split(",")) - {""}
        lower = sorted(key for key in data["spaces"] if set(key.split(",")) - {""} <= mine)
        key = rng.choice(lower)
        ids = data["spaces"][key]
        table[token] = [f"{key}:{i}" for i in rng.sample(ids, rng.randint(1, len(ids)))]
    else:
        image = sorted(table[token])
        moved = rng.choice(image)
        key = moved.partition(":")[0]
        others = sorted(f"{key}:{i}" for i in data["spaces"][key])
        table[token] = sorted(set(image) - {moved} | {rng.choice(others)})


def corrupt_alpha(data, rng):
    """Set one awareness level to a random space at or below the state's."""
    table = data["alpha"][rng.choice(sorted(data["alpha"]))]
    token = rng.choice(sorted(table))
    mine = set(token.partition(":")[0].split(",")) - {""}
    table[token] = rng.choice(sorted(key for key in data["spaces"]
                                     if set(key.split(",")) - {""} <= mine))


def derived_pi(model):
    """The complemented model over Λ and the Π that `derive_pi_star`
    builds from Λ and α, each image projected to its state's level, without
    its precondition that the implicit model validates.  Every level must
    lie below its state's space, and every Λ image in its state's space."""
    lat = model.lattice
    pi = {}
    for agent in model.agents:
        images, levels = model._lambda[agent].images, model._alpha[agent].levels
        projected = [project_states(lat, image, level) for image, level in zip(images, levels)]
        pi[agent] = _Row(lat, agent, projected, [lat._level(image) for image in projected])
    return LatticeModel(lat, model.agents, pi=pi, lambda_=model._lambda)


def n_atoms(key: str) -> int:
    return len([atom for atom in key.split(",") if atom])


CORRUPTIONS = ("pi", "lambda", "lambda_star", "alpha", "projections")


@pytest.mark.parametrize("field", CORRUPTIONS)
def test_projection_laws_match_the_full_walk_on_corrupted_models(field):
    """One entry of one field changed, 12 times per model that has the
    field.  A corrupted α is read through the Π it derives.  A corrupted
    image or α must make some projection law FAIL at a space two or more
    atoms below the state's, with the lattice's own laws passing; a
    corrupted projection must make some lattice fail its own laws, so that
    the states a broken covering square can reach are walked."""
    lower, lattice_failed = set(), 0
    for index, source in enumerate(lattice_model_data()):
        if field not in source:
            continue
        for trial in range(12):
            rng = random.Random(f"{field}:{index}:{trial}")
            data = json.loads(json.dumps(source))
            if field == "alpha":
                corrupt_alpha(data, rng)
            elif field == "projections":
                if not misroute_projection(data, rng):
                    continue
            else:
                corrupt_image(data, field, rng)
            model = data_to_model(data)
            ok = _validate_lattice(model.lattice).ok
            lattice_failed += not ok
            if field == "alpha":
                model = derived_pi(model)
            for report in assert_projection_laws_match_reference(model):
                lower.update(v["law"] for v in report["violations"] if ok and "below" in
                             v["witness"] and n_atoms(v["witness"]["state"].partition(":")[0])
                             - n_atoms(v["witness"]["below"]) >= 2)
    if field == "projections":
        assert lattice_failed
    else:
        assert lower & {"projections-preserve-knowledge", "projections-preserve-ignorance",
                        "projections-preserve-implicit-knowledge"}


def misrouted(seed: int, index: int = -2):
    """A generated model with one projection entry changed: by default the
    implicit model at 5 atoms; at ``index=-1`` its complemented model."""
    data = lattice_model_data()[index]
    assert misroute_projection(data, random.Random(seed))
    return data_to_model(data)


def reference_incoherent(lat) -> int:
    """`unawareness._incoherent` from its definition: every covering
    square compared at every state, and every chain of covering maps
    followed from every state until it reaches a state whose square fails."""
    proj, spaces = lat._proj, lat._space

    def cover(i: int, atom: int) -> int:  # the covering map that drops one atom
        return proj[i][spaces[i] & ~atom]

    broken = {i for i, space in enumerate(spaces)
              for x, y in combinations([1 << k for k in _indices(space)], 2)
              if cover(cover(i, x), y) != cover(cover(i, y), x)}

    def reaches(i: int) -> bool:
        seen, todo = {i}, [i]
        while todo:
            j = todo.pop()
            if j in broken:
                return True
            for k in _indices(spaces[j]):
                child = cover(j, 1 << k)
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
        return False

    return sum(1 << i for i in range(len(spaces)) if reaches(i))


def reference_dirty(row, explicit: bool) -> int:
    """`unawareness._dirty` from its definition, one state at a time: the
    states that project onto a bad state, each condition of badness
    decided at the state itself through the projection table.  Π's
    (``explicit``) ignorance law adds the conditions on up-closures."""
    lat, images, levels = row.lattice, row.images, row.levels
    proj, spaces = lat._proj, lat._space
    incoherent = reference_incoherent(lat)
    ups = functools.cache(functools.partial(up_states, lat))
    bad = 0
    for i, (image, level, space) in enumerate(zip(images, levels, spaces)):
        children = [space & ~(1 << k) for k in _indices(space)]
        if incoherent >> i & 1 or image & incoherent or level < 0 or level & ~space:
            bad |= 1 << i
        elif level != space:
            if not explicit or images[proj[i][level]] != image or any(
                    ups(image) & ~ups(images[proj[i][child]]) for child in children):
                bad |= 1 << i
        elif any(images[proj[i][child]] != project_states(lat, image, child)
                 or explicit and ups(image) & ~ups(project_states(lat, image, child))
                 for child in children):
            bad |= 1 << i
    return up_states(lat, bad)


def reference_alpha_walk(model, agent) -> int:
    """The states `validate_alpha` walks for one agent, from the
    definitions: the incoherent states, the states where awareness
    measurability fails, and every state that projects onto a state that
    lacks conception or fails a level law at a covering child."""
    lat = model.lattice
    levels, images = model._alpha[agent].levels, model._lambda[agent].images
    bad = failing = 0
    for i, (level, space) in enumerate(zip(levels, lat._space)):
        if level & ~space:
            bad |= 1 << i
            continue
        if any(levels[j] != level for j in _indices(images[i] & lat._names.span_bits[space])):
            failing |= 1 << i
        for child in (space & ~(1 << k) for k in _indices(space)):
            got = levels[lat._proj[i][child]]
            if (not child & ~level and got != child or not level & ~child and got != level
                    or got & ~level):
                bad |= 1 << i
    return reference_incoherent(lat) | up_states(lat, bad) | failing


def incoherent_lower_pi_data() -> dict:
    """Π at a state ``i`` of ``p,q`` whose covering square does not commute:
    through ``p`` it projects to ``:u``, through ``q`` to ``:v``.  Its image
    is its projection ``q:b1``'s, at ``q``, and every law that compares a
    state with its covering children holds; but ``:u`` and ``:v`` have
    different images (stationarity fails at ``:u``), so knowledge fails at
    ``i`` below the empty space, where the projection table reads the route
    through ``p``."""
    u, v, w, b1, b2 = ":u", ":v", ":w", "q:b1", "q:b2"
    pi = {"p,q:i": [b1, b2], b1: [b1, b2], b2: [b1, b2],
          "p:a1": [u, v, w], u: [u, v, w], v: [u, v], w: [u, v, w]}
    return {"atoms": ["p", "q"], "agents": ["1"],
            "spaces": {"": ["u", "v", "w"], "p": ["a1"], "q": ["b1", "b2"], "p,q": ["i"]},
            "projections": {"p,q->p": {"i": "a1"}, "p,q->q": {"i": "b1"},
                            "p->": {"a1": "u"}, "q->": {"b1": "v", "b2": "u"}},
            "valuation": {"p": {"base_space": "p", "base": ["a1"]},
                          "q": {"base_space": "q", "base": ["b1"]}},
            "pi": {"1": pi}}


def incoherent_alpha_data() -> dict:
    """α at ``p,q,r:x``, whose covering square does not commute: through
    ``q,r`` it projects to ``q:x``, through ``p,q`` to ``q:y``.  Its level
    is ``q,r``, every law that compares a state with its covering children
    holds, and ``q:x`` has level ``q`` as the law below ``q,r:x`` needs; but
    ``q:y`` has the empty level, as ``p,q:x`` needs, so projects-to-level
    fails at ``p,q,r:x`` below ``q``, where the projection table reads the
    route through ``p,q``.  Λ is the identity."""
    keys = ["", "p", "q", "r", "p,q", "p,r", "q,r", "p,q,r"]
    spaces = {key: ["x"] for key in keys} | {"q": ["x", "y"]}
    projections = {}
    for key in keys:
        atoms = key.split(",") if key else []
        for atom in atoms:
            child = ",".join(a for a in atoms if a != atom)
            projections[f"{key}->{child}"] = {i: "x" for i in spaces[key]}
    projections["p,q->q"] = {"x": "y"}
    alpha = {"p,q,r:x": "q,r", "p,q:x": "", "p,r:x": "r", "q,r:x": "q,r", "p:x": "",
             "q:x": "q", "q:y": "", "r:x": "r", ":x": ""}
    return {"atoms": ["p", "q", "r"], "agents": ["1"], "spaces": spaces,
            "projections": projections,
            "valuation": {atom: {"base_space": atom, "base": ["x"]} for atom in "pqr"},
            "lambda_star": {"1": {token: [token] for token in alpha}}, "alpha": {"1": alpha}}


def incoherent_image_lambda_data() -> dict:
    """Λ with one cell per space, over a lattice where only ``p,q:x`` has a
    square that does not commute: through ``p`` it projects to ``:v``,
    through ``q`` to ``:u``.  Every law holds at every covering pair, so
    only their cell's holding ``p,q:x`` makes ``p,q:i`` and ``p,q:y``
    dirty.
    α puts every state at its own space."""
    spaces = {"": ["u", "v"], "p": ["p1", "p2"], "q": ["q1", "q2", "q3"],
              "p,q": ["i", "x", "y"]}
    cells = {key: [f"{key}:{i}" for i in ids] for key, ids in spaces.items()}
    return {"atoms": ["p", "q"], "agents": ["1"], "spaces": spaces,
            "projections": {"p,q->p": {"i": "p1", "x": "p2", "y": "p2"},
                            "p,q->q": {"i": "q1", "x": "q3", "y": "q2"},
                            "p->": {"p1": "u", "p2": "v"},
                            "q->": {"q1": "u", "q2": "v", "q3": "u"}},
            "valuation": {"p": {"base_space": "p", "base": ["p1"]},
                          "q": {"base_space": "q", "base": ["q1"]}},
            "lambda_star": {"1": {token: cell for cell in cells.values() for token in cell}},
            "alpha": {"1": {token: key for key, cell in cells.items() for token in cell}}}


def failing_lattice_models() -> list:
    """Misrouted implicit and complemented models whose lattices fail
    their own laws, six of each."""
    return [model for index in (-2, -1)
            for model in [model for model in (misrouted(seed, index) for seed in range(12))
                          if not _validate_lattice(model.lattice).ok][:6]]


def test_a_lattice_failing_its_own_laws_has_the_reference_dirty_set():
    """Only the states from which a broken covering square can be reached
    are incoherent, and the dirty states of Λ and Π are those of the
    definition, a strict subset of the states: on misrouted transforms, and
    on hand-built models where each condition of badness that the lattice's
    incoherence adds is the only one that marks some state."""
    models = failing_lattice_models()
    assert len(models) == 12
    built = [incoherent_lower_pi_data(), incoherent_alpha_data(), incoherent_image_lambda_data()]
    for model in models + [data_to_model(data) for data in built]:
        lat = model.lattice
        everything = (1 << len(lat.states)) - 1
        assert _incoherent(lat) == reference_incoherent(lat) != 0
        rows = [(row, False) for row in (model._lambda or {}).values()]
        rows += [(row, True) for row in (model._pi or {}).values()]
        for row, explicit in rows:
            ups = {image: lat._close(image) for image in row.holders} if explicit else None
            dirty = _dirty(row, ups)
            assert dirty == reference_dirty(row, explicit)
            assert dirty != everything


def test_a_lattice_failing_its_own_laws_walks_the_reference_states(monkeypatch):
    """On a lattice whose projections do not compose, the awareness-function
    laws are walked at the states of the definition, a strict subset of the
    states."""
    walked = []
    monkeypatch.setattr(implicit, "_walk", lambda mask: walked.append(mask) or _indices(mask))
    for model in failing_lattice_models():
        if model._alpha is None:
            continue
        walked.clear()
        validate_alpha(model)
        assert walked == [reference_alpha_walk(model, agent) for agent in model.agents]
        assert all(mask != (1 << len(model.states)) - 1 for mask in walked)


@pytest.mark.parametrize("build, validate, reference, law, state, below", [
    (incoherent_lower_pi_data, validate_hms, reference_hms,
     "projections-preserve-knowledge", "p,q:i", ""),
    (incoherent_alpha_data, validate_alpha, reference_alpha,
     "awareness-projects-to-level", "p,q,r:x", "q"),
], ids=["pi", "alpha"])
def test_an_incoherent_state_is_walked_where_no_other_condition_marks_it(
        build, validate, reference, law, state, below):
    """A law fails at an incoherent state whose laws hold at every
    covering child, and whose projections pass theirs: only the mask of
    incoherent states makes the walk reach it."""
    model = data_to_model(build())
    lat = model.lattice
    assert _incoherent(lat) == 1 << lat._token_index[state]
    report = validate(model).to_data()
    assert report == reference(model).to_data()
    assert {"law": law, "agent": "1", "state": state, "below": below} in [
        {"law": v["law"], "agent": v["agent"], "state": v["witness"]["state"],
         "below": v["witness"].get("below")} for v in report["violations"]]


@pytest.mark.parametrize("index", range(20))
def test_validators_match_the_full_walk_on_misrouted_lattices(index):
    """One to three covering-map entries misrouted, at any level, and in
    half the trials one image or α level corrupted too: Π's laws, Λ's and
    α's equal their walks over every state.  An implicit model's Π is the
    one its α derives, when Λ is left as it was.  Some trial breaks a
    covering square, unless every square meets in a space of one state."""
    source = lattice_model_data()[index]
    fields = [field for field in ("pi", "lambda", "lambda_star", "alpha") if field in source]
    failed = 0
    for trial in range(6):
        rng = random.Random(f"misrouted:{index}:{trial}")
        data = json.loads(json.dumps(source))
        for _ in range(rng.randint(1, 3)):
            misroute_projection(data, rng)
        field = rng.choice(fields) if rng.random() < 0.5 else None
        if field == "alpha":
            corrupt_alpha(data, rng)
        elif field is not None:
            corrupt_image(data, field, rng)
        model = data_to_model(data)
        lat = model.lattice
        failed += _incoherent(lat) != 0
        for agent, row in model._lambda.items():
            assert (_lambda_laws(lat, agent, row).to_data()
                    == reference_lambda_laws(lat, agent, row).to_data())
        if model._alpha is not None:
            assert validate_alpha(model).to_data() == reference_alpha(model).to_data()
            if field != "lambda_star":
                model = derived_pi(model)
        if model._pi is not None:
            assert validate_hms(model).to_data() == reference_hms(model).to_data()
    meets = [ids for key, ids in source["spaces"].items()
             if n_atoms(key) <= len(source["atoms"]) - 2]
    assert failed or all(len(ids) == 1 for ids in meets)


def misplace_valuation(data: dict) -> None:
    """Put the first atom's valuation at the empty space."""
    data["valuation"][sorted(data["valuation"])[0]]["base_space"] = ""


def add_unreached_state(data: dict) -> None:
    """Add a state to the empty space that no covering map reaches, its own
    image and at its own level in every row."""
    data["spaces"][""].append("unreached")
    for field in ("pi", "lambda", "lambda_star", "alpha"):
        for row in data.get(field, {}).values():
            row[":unreached"] = "" if field == "alpha" else [":unreached"]


@pytest.mark.parametrize("fault, law", [
    (misplace_valuation, "valuation-base-space"),
    (add_unreached_state, "projection-surjective"),
], ids=["valuation", "onto"])
@pytest.mark.parametrize("family", ["hms", "implicit-hms"])
def test_a_lattice_whose_projections_compose_walks_what_the_passing_model_walks(
        family, fault, law, monkeypatch):
    """A copy whose only fault is one atom's valuation at the empty space,
    or a state of the empty space that no covering map reaches, fails that
    law alone.  No law the validators walk reads the valuation or needs a
    map to be onto, so Π's, Λ's and α's laws walk the states they walk on
    the passing original, aligned or renamed: none."""
    walked = []

    def counted(mask):
        walked.append(mask)
        return _indices(mask)

    monkeypatch.setattr(unawareness, "_walk", counted)
    monkeypatch.setattr(implicit, "_walk", counted)
    data = json.loads(five_atom_data(family))
    for source in (data, renamed(data)):
        copy = json.loads(json.dumps(source))
        fault(copy)
        runs = []
        for edited in (source, copy):
            model = data_to_model(edited)
            lat = model.lattice
            walked.clear()
            if model._pi is not None:
                validate_hms(model)
            for agent, row in model._lambda.items():
                _lambda_laws(lat, agent, row)
            if model._alpha is not None:
                validate_alpha(model)
            validate = validate_lambda if family == "hms" else validate_implicit
            runs.append((list(walked), {v.law for v in validate(model).violations}))
        assert runs[0][0] == runs[1][0] and not any(runs[0][0])
        assert runs[0][1] == set() and runs[1][1] == {law}


def covering_projections(row) -> int:
    """Per distinct image of a row, one per covering child of its level."""
    return len({(image, level ^ 1 << k) for image, level in zip(row.images, row.levels)
                for k in _indices(level)})


def rename_state(data: dict, key: str, old: str, new: str) -> dict:
    """The model data with state ``old`` of space ``key`` renamed ``new``
    wherever the data names it.  The model is the same up to the name, but
    a lattice that was aligned is aligned no more."""
    token = {f"{key}:{old}": f"{key}:{new}"}
    data["spaces"][key] = [new if i == old else i for i in data["spaces"][key]]
    for pair, table in data["projections"].items():
        parent, _, child = pair.partition("->")
        data["projections"][pair] = {new if parent == key and i == old else i:
                                     new if child == key and j == old else j
                                     for i, j in table.items()}
    for entry in data["valuation"].values():
        if entry["base_space"] == key:
            entry["base"] = [new if i == old else i for i in entry["base"]]
    for field in ("pi", "lambda", "lambda_star", "alpha"):
        for agent, row in data.get(field, {}).items():
            data[field][agent] = {
                token.get(t, t): value if field == "alpha" else [token.get(u, u) for u in value]
                for t, value in row.items()}
    return data


def renamed(data: dict) -> dict:
    """A copy of the data with the first state of the top space renamed."""
    data = json.loads(json.dumps(data))
    top = ",".join(data["atoms"])
    first = data["spaces"][top][0]
    return rename_state(data, top, first, f"{first}x")


@functools.cache
def five_atom_data(family: str) -> str:
    """The complemented (``hms``) or implicit (``implicit-hms``) transform
    of a generated model with exactly 5 atoms and up to 8 worlds."""
    caps = GenCaps(atoms=5, worlds=8)
    seed = next(s for s in range(100) if len(gen_fh(s, caps).language_atoms) == 5)
    im = hms_transform(gen_fh(seed, caps), truncate=True)
    return json.dumps(model_to_data(im.derived() if family == "hms" else im))


@pytest.mark.parametrize("family", ["hms", "implicit-hms"])
def test_a_passing_model_projects_each_image_once_per_covering_child(family, monkeypatch):
    """Π's laws on a complemented model and Λ's on an implicit one, at 5
    atoms: projecting at every lower space, as the full walk does, fails.
    The transform's lattice is aligned, so its images project by shifts
    and no projection is called; the same model with one state renamed,
    whose lattice is not aligned, projects each image once per covering
    child at most."""
    data = json.loads(five_atom_data(family))
    calls = []
    project = SpaceLattice._project_mask

    def counted(self, mask, target):
        calls.append((self._level(mask), target))
        return project(self, mask, target)

    monkeypatch.setattr(SpaceLattice, "_project_mask", counted)
    for source, aligned in ((data, True), (renamed(data), False)):
        # Loaded afresh, the model has a new lattice and rows, with no report kept yet.
        model = data_to_model(source)
        assert model.lattice._aligned is aligned
        calls.clear()
        if family == "hms":
            assert validate_hms(model).ok
            rows = model._pi.values()
        else:
            assert validate_implicit(model).ok
            rows = model._lambda.values()
        if aligned:
            assert not calls
            continue
        assert calls
        assert all((level & ~target).bit_count() == 1 and not target & ~level
                   for level, target in calls)
        assert len(calls) <= sum(map(covering_projections, rows))


# -- per-image decisions and aligned lattices -----------------------------------


def minimized(family: str, seed: int, caps: GenCaps = GenCaps(atoms=4, worlds=6)):
    """The minimized transform of a generated model, complemented (``hms``)
    or implicit."""
    implicit = category_to_implicit(build_category(gen_fh(seed, caps), minimize=True))
    return implicit.derived() if family == "hms" else implicit


def has_merged_blocks(model) -> bool:
    return len({tuple(ref.id for ref in refs) for refs in model.lattice.spaces.values()}) > 1


@pytest.mark.parametrize("family", ["hms", "implicit-hms"])
def test_a_passing_model_walks_no_state(family, monkeypatch):
    """Every law that a validator decides per image, per image pair or at
    covering pairs passes on a passing model, so no validator runs its laws
    state by state: not on the 5-atom transform, aligned or renamed, nor
    on minimized transforms with merged blocks, nor on the fixtures and
    generated models of the projection-law tests."""
    walked = []

    def counted(mask):
        walked.append(mask)
        return _indices(mask)

    monkeypatch.setattr(unawareness, "_walk", counted)
    monkeypatch.setattr(implicit, "_walk", counted)
    data = json.loads(five_atom_data(family))
    datas = [data, renamed(data)] + [d for d in lattice_model_data()
                                     if ("pi" in d) == (family == "hms")]
    merged = [model_to_data(model) for model in (minimized(family, seed) for seed in range(12))
              if has_merged_blocks(model)]
    assert merged
    validate = validate_lambda if family == "hms" else validate_implicit
    for source in datas + merged:
        walked.clear()
        # Loaded afresh, the model has no report kept yet.
        assert validate(data_to_model(source)).ok
        assert walked and not any(walked)


@pytest.mark.parametrize("seed", range(6))
def test_unminimized_transform_output_is_aligned(seed):
    k = gen_fh(seed, GenCaps(atoms=4, worlds=6))
    for model in (hms_transform(k), hms_transform(k, truncate=True)):
        assert model.lattice._aligned
        assert data_to_model(model_to_data(model)).lattice._aligned


def swap_covering_targets(data: dict, rng) -> None:
    """Swap the targets of two states in one covering map that maps them
    apart."""
    keys = sorted(key for key, table in data["projections"].items()
                  if len(set(table.values())) > 1)
    table = data["projections"][rng.choice(keys)]
    first = rng.choice(sorted(table))
    second = rng.choice(sorted(i for i in table if table[i] != table[first]))
    table[first], table[second] = table[second], table[first]


@functools.cache
def alignment_lattices() -> tuple:
    """Aligned lattices, of unminimized transforms, and lattices that are
    not: of minimized transforms with merged blocks, of transforms with one
    state renamed, and of transforms with two covering-map targets
    swapped."""
    aligned, unaligned = [], []
    for seed in range(8):
        k = gen_fh(seed, GenCaps(atoms=4, worlds=6))
        if len(k.worlds) < 2:
            continue
        model = hms_transform(k)
        aligned.append(model.lattice)
        data = model_to_data(model)
        unaligned.append(data_to_model(renamed(data)).lattice)
        swap_covering_targets(data, random.Random(seed))
        unaligned.append(data_to_model(data).lattice)
        for family in ("hms", "implicit-hms"):
            model = minimized(family, seed)
            if has_merged_blocks(model):
                unaligned.append(model.lattice)
    return tuple(aligned), tuple(unaligned)


def test_alignment_is_read_off_the_spaces_and_covering_maps():
    aligned, unaligned = alignment_lattices()
    assert len(aligned) >= 4 and len(unaligned) >= 12
    assert all(lat._aligned for lat in aligned)
    assert not any(lat._aligned for lat in unaligned)


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "unaligned"])
def test_project_mask_and_close_match_their_definitions(aligned):
    """Shifts and multiplies on aligned lattices, bit walks on the others:
    each must give the projection and the up-closure state by state."""
    for index, lat in enumerate(alignment_lattices()[not aligned]):
        rng = random.Random(index)
        n = len(lat.states)
        assert lat._up == [up_states(lat, 1 << i) for i in range(n)]
        for _ in range(40):
            target = rng.randrange(len(lat._span))
            mask = sum(1 << i for i in _indices(lat._upspace[target]) if rng.random() < 0.3)
            assert lat._project_mask(mask, target) == project_states(lat, mask, target)
            mask = sum(1 << i for i in range(n) if rng.random() < 0.2)
            assert lat._close(mask) == up_states(lat, mask)


def straddle_image(data: dict, field: str, rng) -> None:
    """Add a state of another space to one image of a correspondence."""
    table = data[field][rng.choice(sorted(data[field]))]
    token = rng.choice(sorted(table))
    spaces = {t.partition(":")[0] for t in table[token]}
    table[token] = sorted(set(table[token]) | {rng.choice(
        sorted(t for t in table if t.partition(":")[0] not in spaces))})


def lower_below(data: dict, rng) -> None:
    """Drop one atom of a state's awareness level from the level of every
    state it projects onto strictly below it.  Where the state's space has
    two atoms outside its level, the state keeps every law at its covering
    children but constancy above its level, which fails there."""
    model = data_to_model(data)
    lat = model.lattice
    agent = rng.choice(sorted(data["alpha"]))
    levels = model._alpha[agent].levels
    chosen = [i for i, level in enumerate(levels) if level and level != lat._space[i]]
    if not chosen:
        return
    i = rng.choice(chosen)
    atom = 1 << rng.choice(_indices(levels[i]))
    for target in lat._below[lat._space[i]][:-1]:
        j = lat._proj[i][target]
        data["alpha"][agent][lat._tokens[j]] = lat._keys[levels[j] & ~atom]


def edit_model(data: dict, rng) -> None:
    """One to three random edits, each of a field the data has: an image
    of Π or Λ, changed within a space or made to straddle two; an α level,
    set to a space at or below the state's or to any space, or an atom
    dropped from the levels below a state; or a covering-map entry."""
    fields = [field for field in ("pi", "lambda", "lambda_star", "alpha") if field in data]
    for _ in range(rng.randint(1, 3)):
        field = rng.choice(fields + ["projections"])
        draw = rng.random()
        if field == "projections":
            misroute_projection(data, rng)
        elif field == "alpha" and draw < 0.6:
            corrupt_alpha(data, rng)
        elif field == "alpha" and draw < 0.8:
            lower_below(data, rng)
        elif field == "alpha":
            table = data["alpha"][rng.choice(sorted(data["alpha"]))]
            table[rng.choice(sorted(table))] = rng.choice(sorted(data["spaces"]))
        elif draw < 0.8:
            corrupt_image(data, field, rng)
        elif len(data["spaces"]) > 1:
            straddle_image(data, field, rng)


ORACLE_SOURCES = {
    "hms": gen_hms,
    "implicit-hms": gen_implicit,
    "minimized-hms": lambda seed, caps: minimized("hms", seed, caps),
    "minimized-implicit-hms": lambda seed, caps: minimized("implicit-hms", seed, caps),
}
ORACLE_SEEDS = 80
# The laws the edits make fail, per model family.
ORACLE_LAWS = {
    "complemented": {
        "projection-surjective", "projection-composition", "confinement-single-space",
        "confinement-expressible", "generalized-reflexivity", "stationarity",
        "projections-preserve-ignorance", "projections-preserve-knowledge", "strong-confinement",
        "implicit-reflexivity", "implicit-stationarity",
        "projections-preserve-implicit-knowledge", "explicit-measurability",
        "implicit-measurability", "implicit-matches-explicit-on-possibility-set", "coherence"},
    "implicit": {
        "projection-surjective", "projection-composition", "strong-confinement",
        "implicit-reflexivity", "implicit-stationarity",
        "projections-preserve-implicit-knowledge", "lack-of-conception",
        "awareness-measurability", "awareness-projects-to-level",
        "awareness-constant-above-level", "awareness-monotone-under-projection"},
}


def assert_validators_match_the_full_walk(model) -> set[str]:
    """Every validator of the model's family against its full walk; the
    laws that failed."""
    if model._pi is not None:
        pairs = [(validate_hms, reference_hms), (validate_lambda, reference_lambda)]
    else:
        pairs = [(validate_implicit, reference_implicit), (validate_alpha, reference_alpha)]
    laws = set()
    for validate, reference in pairs:
        report = validate(model).to_data()
        assert report == reference(model).to_data(), validate.__name__
        laws.update(v["law"] for v in report["violations"])
    return laws


@pytest.mark.parametrize("family", sorted(ORACLE_SOURCES))
def test_validators_match_the_full_walk_on_edited_models(family):
    """Generated and minimized transforms with one to three random edits:
    every report, its violations, their order and ``checked``, equals a
    walk over every state written from the definitions."""
    caps = GenCaps(atoms=4, worlds=5)
    laws = set()
    for seed in range(ORACLE_SEEDS):
        data = model_to_data(ORACLE_SOURCES[family](seed, caps))
        edit_model(data, random.Random(f"{family}:{seed}"))
        laws |= assert_validators_match_the_full_walk(data_to_model(data))
    assert laws == ORACLE_LAWS["implicit" if "implicit" in family else "complemented"]


# -- the shared skeleton and the lazy projection table ------------------------


def chain_projection(data: dict, key: str, state_id: str, target_key: str) -> str:
    """The id of a state's projection into a space below its own, read off
    the file's covering maps along the canonical chain: the greatest atom
    not in the target is dropped first."""
    space, target = key.split(",") if key else [], set(target_key.split(",") if target_key else [])
    while set(space) != target:
        drop = max(atom for atom in space if atom not in target)
        child = [atom for atom in space if atom != drop]
        state_id = data["projections"][f"{','.join(space)}->{','.join(child)}"][state_id]
        space = child
    return state_id


def assert_table_matches_the_chain(data: dict) -> SpaceLattice:
    """The loaded lattice's projection table, entry by entry, against
    :func:`chain_projection`; -1 where the target is not below."""
    lat = data_to_model(data).lattice
    table = lat._proj
    for i, ref in enumerate(lat.states):
        space = lat._space[i]
        for target, key in enumerate(lat._keys):
            if target & ~space:
                assert table[i][target] == -1
                continue
            image = chain_projection(data, space_key(ref.space), ref.id, key)
            assert lat.states[table[i][target]] == StateRef(lat._names.spaces[target], image)
    return lat


@functools.cache
def table_sources() -> tuple:
    """Model data of unminimized transforms, of minimized transforms with
    merged blocks, and of transforms with one state renamed or two
    covering-map targets swapped."""
    aligned, unaligned = [], []
    for seed in range(8):
        k = gen_fh(seed, GenCaps(atoms=4, worlds=6))
        if len(k.worlds) < 2:
            continue
        data = model_to_data(hms_transform(k))
        aligned.append(data)
        unaligned.append(renamed(data))
        swapped = json.loads(json.dumps(data))
        swap_covering_targets(swapped, random.Random(seed))
        unaligned.append(swapped)
        for family in ("hms", "implicit-hms"):
            model = minimized(family, seed)
            if has_merged_blocks(model):
                unaligned.append(model_to_data(model))
    return tuple(map(json.dumps, aligned)), tuple(map(json.dumps, unaligned))


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "unaligned"])
def test_the_projection_table_follows_the_canonical_chain(aligned):
    """An aligned lattice tabulates its projections on first read, by
    index arithmetic; another tabulates them at construction from its
    covering maps.  Either table is the composite of the file's covering
    maps along the canonical chain."""
    sources = table_sources()[not aligned]
    assert len(sources) >= 4
    for text in sources:
        data = json.loads(text)
        if aligned:
            lat = data_to_model(data).lattice
            assert lat._aligned and "_proj" not in lat.__dict__
        lat = assert_table_matches_the_chain(data)
        assert lat._aligned is aligned


def aligned_family_models(seed: int) -> tuple:
    """A generated awareness model and its unminimized transforms over one
    lattice, implicit and complemented; then the implicit, the
    complemented and the complemented model's Π alone loaded from the
    files of another transform (writing a file reads the table), each
    with a lattice of its own."""
    k = gen_fh(seed, GenCaps(atoms=4, worlds=6))
    written = hms_transform(k, truncate=True)
    datas = [model_to_data(written), model_to_data(written.derived())]
    bare = model_to_data(written.derived())
    del bare["lambda"]
    im = hms_transform(k, truncate=True)
    return k, [im, im.derived()] + [data_to_model(data) for data in datas + [bare]]


@pytest.mark.parametrize("seed", range(4))
def test_passing_aligned_models_never_tabulate_projections(seed):
    """Validation of every lattice family, the property suites and the
    equivalence checks in all four directions read an aligned lattice's
    projections by index arithmetic, so none builds the table."""
    k, models = aligned_family_models(seed)
    for model in models:
        lat = model.lattice
        assert lat._aligned
        if model.family == "implicit":
            assert validate_implicit(model).ok and validate_alpha(model).ok
            assert implicit_property_suite(model.derived()).ok
            assert a_star_property_suite(model).ok
            assert equivalence_check(k, model, "implicit-hms").ok
            assert equivalence_check(model, fh_star_transform(model), "fh-star").ok
        elif model.family == "complemented":
            assert validate_lambda(model).ok
            assert implicit_property_suite(model).ok
            assert equivalence_check(k, model, "hms").ok
            assert equivalence_check(model, fh_transform(model), "fh").ok
        else:
            assert validate_hms(model).ok
        if model._pi is not None:
            assert explicit_property_suite(model).ok
        assert "_proj" not in lat.__dict__, model.family


def test_lattices_over_one_atom_set_share_the_skeleton():
    """What depends on the atoms alone is built once per atom set: two
    lattices over one set, loaded from different files, hold the same
    objects, and a lattice over another set holds others."""
    _, models = aligned_family_models(0)
    first, second = models[0].lattice, models[-1].lattice
    assert first is not second
    assert first._skeleton is second._skeleton
    for name in ("_masks", "_keys", "_key_masks", "_below", "_children", "_atom_bit"):
        assert getattr(first, name) is getattr(second, name), name
    assert first._edges() is second._edges()
    assert first._names.spaces is second._names.spaces
    other = fig1L().lattice
    assert other.atoms != first.atoms and other._skeleton is not first._skeleton


def planted_middle(model) -> tuple[str, int, int, int]:
    """An agent, a state ``i`` whose Π image lies at a level ``L`` two or
    more atoms below its space ``S``, a space ``M`` strictly between them,
    and the projection ``j`` of ``i`` into ``M``."""
    lat = model.lattice
    for agent, row in model._pi.items():
        for i, level in enumerate(row.levels):
            space = lat._space[i]
            extra = space & ~level
            if extra.bit_count() >= 2:
                middle = level | (extra & -extra)
                return agent, i, middle, lat._proj[i][middle]
    raise AssertionError("no state with a middle space")


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "renamed"])
def test_a_broken_middle_image_fails_possibility_agreement(aligned):
    """Validate a complemented transform, then change, in place, the Π
    image of a state at a space between another state's level and its
    space: the explicit suite, whose precondition report is kept, must
    report that possibility sets disagree across spaces, at that state and
    middle space.  The renamed copy's lattice is not aligned, so the suite
    reads its projection table there and shifts by index on the other."""
    data = json.loads(five_atom_data("hms"))
    model = data_to_model(data if aligned else renamed(data))
    lat = model.lattice
    assert lat._aligned is aligned
    assert validate_hms(model).ok
    agent, i, middle, j = planted_middle(model)
    assert "_proj" in lat.__dict__  # read by planted_middle
    if aligned:
        del lat.__dict__["_proj"]  # the suite must not need the table
    row = model._pi[agent]
    # Another image at the same level, so that j's level stays true.
    others = [image for image, level in zip(row.images, row.levels)
              if level == row.levels[j] and image != row.images[j]]
    row.images[j] = others[0]
    report = explicit_property_suite(model).to_data()
    failed = [v for v in report["violations"] if v["law"] == "possibility-agrees-across-spaces"]
    assert {"state": str(lat.states[i]), "middle": lat._keys[middle]} in \
        [v["witness"] for v in failed if v["agent"] == agent]
    assert ("_proj" in lat.__dict__) is not aligned
    # Every state named is j, whose image now differs from those below it,
    # or projects onto j at the middle space named.
    for v in failed:
        ref = parse_state_token(v["witness"]["state"])
        assert ref == lat.states[j] or \
            lat.project(ref, parse_space_key(v["witness"]["middle"])) == lat.states[j]
