"""Hash-consed structural keys: equality, interning, digests, pickling.

:class:`~repro.tree.HCKey` is what the persistent store addresses
verdicts by (through ``key_digest``), so its equality semantics must match
:func:`~repro.tree.structurally_equal` exactly, survive pickling (workers
return keys across process boundaries), and its content digest must be
deterministic across keyers.
"""

import pickle

from repro.miniml import parse_program
from repro.store.fingerprint import key_digest
from repro.tree import HCKey, StructuralKeyer, structurally_equal

SRC = """\
let rec fact n = if n <= 1 then 1 else n * fact (n - 1)
let xs = [1; 2; 3]
let total = List.fold_left (fun a b -> a + b) 0 xs
"""

SRC_SPAN_SHIFTED = """\
let rec fact n =
  if n <= 1 then 1 else n * fact (n - 1)

let xs = [ 1 ; 2 ; 3 ]
let total = List.fold_left (fun a b -> a + b) 0 xs
"""

SRC_DIFFERENT = SRC.replace("0 xs", "1 xs")


class TestEquality:
    def test_equal_programs_equal_keys_across_keyers(self):
        k1 = StructuralKeyer()(parse_program(SRC))
        k2 = StructuralKeyer()(parse_program(SRC))
        assert k1 is not k2  # different interners
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_spans_do_not_participate(self):
        a, b = parse_program(SRC), parse_program(SRC_SPAN_SHIFTED)
        assert structurally_equal(a, b)
        assert StructuralKeyer()(a) == StructuralKeyer()(b)

    def test_different_programs_differ(self):
        k1 = StructuralKeyer()(parse_program(SRC))
        k2 = StructuralKeyer()(parse_program(SRC_DIFFERENT))
        assert k1 != k2

    def test_same_keyer_interns_to_identity(self):
        keyer = StructuralKeyer()
        k1 = keyer(parse_program(SRC))
        k2 = keyer(parse_program(SRC))
        assert k1 is k2

    def test_shared_subtree_keys_are_shared(self):
        keyer = StructuralKeyer()
        a, b = parse_program(SRC), parse_program(SRC_SPAN_SHIFTED)
        ka, kb = keyer(a), keyer(b)
        # Distinct trees, equal content: interning collapses to one key
        # object, so every downstream dict op compares by pointer.
        assert ka is kb

    def test_collision_cannot_alias(self):
        # Keys with equal hashes but different parts must stay unequal —
        # dict lookups fall back to the structural comparison.
        k1 = StructuralKeyer()(parse_program(SRC))
        forged = HCKey.__new__(HCKey)
        forged.parts = StructuralKeyer()(parse_program(SRC_DIFFERENT)).parts
        forged._hash = hash(k1)  # adversarial collision
        forged._digest = None
        assert hash(forged) == hash(k1)
        assert forged != k1

    def test_not_equal_to_raw_tuples(self):
        key = StructuralKeyer()(parse_program(SRC))
        assert (key == key.parts) is False


class TestDigest:
    def test_digest_deterministic_across_keyers(self):
        d1 = StructuralKeyer()(parse_program(SRC)).digest
        d2 = StructuralKeyer()(parse_program(SRC_SPAN_SHIFTED)).digest
        assert d1 == d2

    def test_digest_distinguishes_content(self):
        d1 = StructuralKeyer()(parse_program(SRC)).digest
        d2 = StructuralKeyer()(parse_program(SRC_DIFFERENT)).digest
        assert d1 != d2

    def test_digest_cached(self):
        key = StructuralKeyer()(parse_program(SRC))
        assert key._digest is None
        first = key.digest
        assert key._digest == first
        assert key.digest is first

    def test_key_digest_serves_hc_digest(self):
        key = StructuralKeyer()(parse_program(SRC))
        assert key_digest(key) == key.digest

    def test_key_digest_agrees_across_keyers(self):
        # The store addresses a verdict by this digest alone, so a keyer
        # that has interned other trees and a fresh one must agree on it.
        keyer = StructuralKeyer()
        interned = key_digest(keyer(parse_program(SRC)))
        assert interned == key_digest(StructuralKeyer()(parse_program(SRC)))
        assert interned != key_digest(keyer(parse_program(SRC_DIFFERENT)))


class TestPickling:
    def test_round_trip_preserves_equality_and_digest(self):
        key = StructuralKeyer()(parse_program(SRC))
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)
        assert clone.digest == key.digest

    def test_round_trip_nested_keys(self):
        key = StructuralKeyer()(parse_program(SRC))
        clone = pickle.loads(pickle.dumps(key))
        # Child keys (one per declaration and deeper) survive as HCKeys.
        child_keys = [p for p in clone.parts if isinstance(p, HCKey)] + [
            e
            for p in clone.parts
            if isinstance(p, tuple)
            for e in p
            if isinstance(e, HCKey)
        ]
        assert child_keys
        assert all(isinstance(c, HCKey) for c in child_keys)


class TestKeyerLifecycle:
    def test_clear_releases_interned_keys(self):
        keyer = StructuralKeyer()
        program = parse_program(SRC)
        keyer(program)
        assert keyer.interned > 0
        keyer.clear()
        assert keyer.interned == 0
        # Re-keying after clear still agrees with a fresh keyer.
        assert keyer(program) == StructuralKeyer()(parse_program(SRC))
