"""The error contract for untrusted input, fuzzed at toy431 and at p434.

The loaders return or raise SidhlabInputError, and nothing else.  The fault
oracle, plain or masked, answers every public key, malformed or not, with a
bit.  A plain ValueError stays the caller's error and is not folded into the
family.
"""

import random

import pytest

from sidhlab import SidhlabInputError
from sidhlab.countermeasure import PushforwardConfig, derive_bob_randomized
from sidhlab.faultsim import oracle
from sidhlab.field import Fp2Field
from sidhlab.protocol import (
    ALICE,
    BOB,
    PublicKey,
    dumps_params,
    dumps_public_key,
    keygen,
    loads_params,
    loads_public_key,
)

from helpers import check_each, mutated_texts, public_keys, setting


def _returns_or_raises_the_family(loads, text, *args):
    try:
        loads(text, *args)
    except SidhlabInputError:
        pass


class TestLoaders:
    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 60)])
    def test_mutated_params_text(self, name, examples, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text(dumps_params(setting(name)[0]))
        texts = mutated_texts(path.read_text(), examples, random.Random(0))
        check_each([(text,) for text in texts], lambda text: _returns_or_raises_the_family(loads_params, text))

    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 200)])
    def test_mutated_pk_text(self, name, examples):
        ps, _, pk = setting(name)
        texts = mutated_texts(dumps_public_key(ps, ALICE, pk), examples, random.Random(0))
        check_each([(text,) for text in texts], lambda text: _returns_or_raises_the_family(loads_public_key, text, ps))

    def test_pk_round_trip(self, toy):
        pk = keygen(toy, BOB, 5)
        assert loads_public_key(dumps_public_key(toy, BOB, pk), toy) == (BOB, pk)

    @pytest.mark.parametrize(
        "edit, text",
        [
            (("side=alice", "side=carol"), "'carol'"),
            (("p=1af", "p=1b1"), "different parameters"),
            (("xQ=", "#xQ="), "'xQ'"),
            (("side=alice\n", "side=alice\nside=bob\n"), "repeated 'side'"),
        ],
    )
    def test_pk_file_faults(self, toy, edit, text):
        pk_text = dumps_public_key(toy, ALICE, keygen(toy, ALICE, 3)).replace(*edit)
        with pytest.raises(SidhlabInputError, match=text):
            loads_public_key(pk_text, toy)

    def test_params_file_missing_an_entry(self, toy, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text(dumps_params(toy))
        text = "".join(l for l in path.read_text().splitlines(True) if not l.startswith("e3="))
        with pytest.raises(SidhlabInputError, match="'e3'"):
            loads_params(text)

    def test_params_file_repeating_an_entry(self, toy):
        """A second name= line is refused, not loaded under the last name."""
        with pytest.raises(SidhlabInputError, match="repeated 'name'"):
            loads_params(dumps_params(toy).replace("name=", "name=other\nname="))

    def test_exponent_bound(self):
        with pytest.raises(SidhlabInputError, match="1024 bits"):
            Fp2Field(60000, 1)
        assert Fp2Field(372, 239).p.bit_length() == 751  # SIKE p751


class TestOraclesAnswerEveryKey:
    @pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 200)])
    def test_a_bit_for_every_key(self, name, examples):
        ps, sk, _ = setting(name)
        rng = random.Random(0)

        def check(pk, i, seed):
            assert oracle(ps, sk, pk, i).bit in (0, 1)
            masked = random.Random(seed)
            for k in (0, 1, 2):
                assert oracle(ps, sk, pk, i, PushforwardConfig(k), masked).bit in (0, 1)

        check_each([(pk, i, rng.randrange(2**32)) for pk, i in public_keys(name, examples, rng)], check)

    def test_out_of_range_sk_stays_a_caller_error(self, toy):
        """In the oracle, plain and masked, and in the masked derive, checked
        before the pk is read: a malformed pk does not hide it."""
        F = toy.field
        cfg, rng = PushforwardConfig(2), random.Random(0)
        for pk in (setting("toy431")[2], PublicKey(F.zero, F.zero, F.zero)):
            for sk in (3**toy.e3, 5 + 3**toy.e3, -1):
                for call in (
                    lambda: oracle(toy, sk, pk, 0),
                    lambda: oracle(toy, sk, pk, 0, cfg, rng),
                    lambda: derive_bob_randomized(toy, sk, pk, cfg, rng),
                ):
                    with pytest.raises(ValueError, match="private scalar out of range") as info:
                        call()
                    assert not isinstance(info.value, SidhlabInputError)
