"""The error contract for untrusted input, fuzzed at toy431 and at p434.

The loaders return or raise SidhlabInputError, and nothing else.  Both fault
oracles answer every public key, malformed or not, with a bit.  A plain
ValueError stays the caller's error and is not folded into the family.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sidhlab import SidhlabInputError
from sidhlab.countermeasure import PushforwardConfig
from sidhlab.faultsim import oracle, oracle_randomized
from sidhlab.field import FieldParams
from sidhlab.protocol import (
    ALICE,
    BOB,
    PublicKey,
    bundled_params,
    dumps_public_key,
    keygen,
    loads_params,
    loads_public_key,
    save_params,
)


@functools.cache
def setting(name):
    """(params, the victim's sk, an honest Alice key) for a bundled set."""
    ps = bundled_params(name)
    sk = ps.sample_sk(BOB, random.Random(3))
    return ps, sk, keygen(ps, ALICE, ps.sample_sk(ALICE, random.Random(4)))


def fuzz(max_examples):
    return settings(
        derandomize=True,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


VALUES = st.one_of(
    st.integers(-2, 70000).map(str),
    st.text(alphabet="0123456789abcdefx,=-+_# ", max_size=16),
)


@st.composite
def mutated(draw, text):
    """text with one to three of its lines dropped, given a new value, or
    changed in one character."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "value", "char")))
        if kind == "drop":
            del lines[i]
        elif kind == "value":
            lines[i] = lines[i].partition("=")[0] + "=" + draw(VALUES)
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + draw(st.sampled_from("0123456789abcdef,=-x# ")) + lines[i][j + 1 :]
    return "\n".join(lines) + "\n"


def _returns_or_raises_the_family(loads, text, *args):
    try:
        loads(text, *args)
    except SidhlabInputError:
        pass


class TestLoaders:
    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 60)])
    def test_mutated_params_text(self, name, examples, tmp_path):
        path = tmp_path / "params.txt"
        save_params(setting(name)[0], path)

        @fuzz(examples)
        @given(mutated(path.read_text()))
        def check(text):
            _returns_or_raises_the_family(loads_params, text)

        check()

    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 200)])
    def test_mutated_pk_text(self, name, examples):
        ps, _, pk = setting(name)

        @fuzz(examples)
        @given(mutated(dumps_public_key(ps, ALICE, pk)))
        def check(text):
            _returns_or_raises_the_family(loads_public_key, text, ps)

        check()

    def test_pk_round_trip(self, toy):
        pk = keygen(toy, BOB, 5)
        assert loads_public_key(dumps_public_key(toy, BOB, pk), toy) == (BOB, pk)

    @pytest.mark.parametrize(
        "edit, text",
        [
            (("side=alice", "side=carol"), "'carol'"),
            (("p=1af", "p=1b1"), "different parameters"),
            (("xQ=", "#xQ="), "'xQ'"),
        ],
    )
    def test_pk_file_faults(self, toy, edit, text):
        pk_text = dumps_public_key(toy, ALICE, keygen(toy, ALICE, 3)).replace(*edit)
        with pytest.raises(SidhlabInputError, match=text):
            loads_public_key(pk_text, toy)

    def test_params_file_missing_an_entry(self, toy, tmp_path):
        path = tmp_path / "params.txt"
        save_params(toy, path)
        text = "".join(l for l in path.read_text().splitlines(True) if not l.startswith("e3="))
        with pytest.raises(SidhlabInputError, match="'e3'"):
            loads_params(text)

    def test_exponent_bound(self):
        with pytest.raises(SidhlabInputError, match="1024 bits"):
            FieldParams.from_exponents(60000, 1)
        assert FieldParams.from_exponents(372, 239).p.bit_length() == 751  # SIKE p751


def public_keys(name):
    """Random triples, and the honest key with one coordinate replaced,
    moved by one, or projected to GF(p)."""
    ps, _, honest = setting(name)
    F, p = ps.field, ps.field_params.p
    element = st.builds(F, st.integers(0, p - 1), st.integers(0, p - 1))

    def edit(slot, how, x):
        old = getattr(honest, slot)
        new = {"replace": x, "nudge": old + F.one, "project": F(old.re)}[how]
        coords = {s: getattr(honest, s) for s in ("xP", "xQ", "xPQ")}
        return PublicKey(**{**coords, slot: new})

    edited = st.builds(
        edit,
        st.sampled_from(("xP", "xQ", "xPQ")),
        st.sampled_from(("replace", "nudge", "project")),
        element,
    )
    return st.one_of(st.builds(PublicKey, element, element, element), edited)


class TestOraclesAnswerEveryKey:
    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 200)])
    def test_a_bit_for_every_key(self, name, examples):
        ps, sk, _ = setting(name)

        @fuzz(examples)
        @given(public_keys(name), st.integers(0, ps.e3 - 2), st.integers(0, 2**32))
        def check(pk, i, seed):
            assert oracle(ps, sk, pk, i).bit in (0, 1)
            rng = random.Random(seed)
            for k in (0, 1, 2):
                assert oracle_randomized(ps, sk, pk, i, PushforwardConfig(k), rng) in (0, 1)

        check()

    def test_out_of_range_sk_stays_a_caller_error(self, toy):
        with pytest.raises(ValueError) as info:
            oracle(toy, 3**toy.e3, setting("toy431")[2], 0)
        assert not isinstance(info.value, SidhlabInputError)
