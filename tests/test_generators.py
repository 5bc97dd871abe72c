"""Instance families: constructed optima, contracts, determinism."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import schedsketch as ss


class TestChain:
    def test_counts_and_known_optimum(self):
        inst = ss.chain(m=200, q=5, h=3)
        assert inst.n == 3000
        assert inst.meta["cstar"] == 15
        assert ss.list_schedule(inst).makespan == 15  # the optimum is achievable

    def test_degenerate(self):
        inst = ss.chain(m=1, q=1, h=1)
        assert inst.n == 1 and inst.meta["cstar"] == 1

    def test_depths_consistent(self):
        inst = ss.chain(m=2, q=3, h=4)
        assert ss.compute_depths(inst.arcs, inst.n).tolist() == inst.depth.tolist()


class TestAlphaMixed:
    def test_exact_big_count(self):
        inst = ss.alpha_mixed(n=100, alpha=0.1, c=2, p_big=10, seed=0)
        assert int((inst.p >= 5).sum()) == 10
        assert inst.meta["n_big"] == 10

    def test_infeasible_alpha(self):
        with pytest.raises(ss.ParamError):
            ss.alpha_mixed(n=10, alpha=0.001, c=2, p_big=10)

    def test_no_room_for_smalls(self):
        with pytest.raises(ss.ParamError):
            ss.alpha_mixed(n=10, alpha=0.5, c=10, p_big=10)  # big range floor is 1

    def test_deterministic_under_seed(self):
        a = ss.alpha_mixed(n=50, alpha=0.2, c=3, p_big=30, h=3, seed=7)
        b = ss.alpha_mixed(n=50, alpha=0.2, c=3, p_big=30, h=3, seed=7)
        assert a.p.tolist() == b.p.tolist()
        assert a.arcs.tolist() == b.arcs.tolist()

    def test_depths_consistent_with_arcs(self):
        inst = ss.alpha_mixed(n=60, alpha=0.25, c=2, p_big=12, h=4, seed=3)
        assert ss.compute_depths(inst.arcs, inst.n).tolist() == inst.depth.tolist()

    def test_constant_small_value(self):
        inst = ss.alpha_mixed(n=40, alpha=0.5, c=10, p_big=10, small=1, seed=1)
        values = sorted(set(inst.p.tolist()))
        assert values[0] == 1


class TestLayered:
    def test_shape_and_links(self):
        inst = ss.layered(shape=[3, 4, 5], c=3, m=2, seed=0)
        assert inst.n == 12
        assert np.bincount(inst.depth, minlength=4)[1:].tolist() == [3, 4, 5]
        assert inst.arcs.shape[0] == 9  # one parent per non-source job
        assert ss.compute_depths(inst.arcs, inst.n).tolist() == inst.depth.tolist()
        assert 1 <= inst.p.min() and inst.p.max() <= 3

    def test_bad_shape(self):
        with pytest.raises(ss.ParamError):
            ss.layered(shape=[], c=2, m=1)


class TestRandomDag:
    def test_depths_recomputed(self):
        inst = ss.random_dag(n=30, h=4, density=0.3, m=2, seed=5)
        assert ss.compute_depths(inst.arcs, inst.n).tolist() == inst.depth.tolist()
        assert inst.height <= 4

    def test_determinism(self):
        a = ss.random_dag(n=20, h=3, density=0.2, m=2, seed=9)
        b = ss.random_dag(n=20, h=3, density=0.2, m=2, seed=9)
        assert a.p.tolist() == b.p.tolist() and a.arcs.tolist() == b.arcs.tolist()

    def test_size_guard(self):
        with pytest.raises(ss.ParamError):
            ss.random_dag(n=5000, h=3, density=0.1, m=1)


def test_generate_dispatch():
    inst = ss.generate("chain", m=2, q=2, h=2)
    assert inst.n == 8
    with pytest.raises(ss.ParamError):
        ss.generate("nope")


def test_arcs_topologically_grouped():
    # once an id is an arc source it never reappears as a destination
    for inst in (
        ss.chain(m=2, q=2, h=3),
        ss.layered(shape=[2, 3, 2], c=2, m=1, seed=1),
        ss.alpha_mixed(n=40, alpha=0.3, c=2, p_big=8, h=3, seed=2),
        ss.random_dag(n=25, h=4, density=0.3, m=2, seed=3),
    ):
        seen_src = set()
        for src, dst in inst.arcs:
            assert dst not in seen_src
            seen_src.add(int(src))


# Each family at a few parameter sets, among them the benchmark's `layered([20000]*3, c=50, m=100,
# seed=1)` and `chain(m=100, q=100, h=3)`; ``data/generator_digests.json`` holds their digests.
PINNED = [
    ("chain", {"m": 200, "q": 5, "h": 3}),
    ("chain", {"m": 1, "q": 1, "h": 1}),
    ("chain", {"m": 100, "q": 100, "h": 3}),
    ("chain", {"m": 2, "q": 3, "h": 4}),
    ("layered", {"shape": [20000] * 3, "c": 50, "m": 100, "seed": 1}),
    ("layered", {"shape": [3, 4, 5], "c": 3, "m": 2, "seed": 0}),
    ("layered", {"shape": [1, 7, 2, 9], "c": 1, "m": 1, "seed": 5}),
    ("layered", {"shape": [6], "c": 9, "m": 3, "seed": 2}),
    ("alpha-mixed", {"n": 60000, "alpha": 0.1, "c": 4, "p_big": 1000, "m": 100, "h": 3, "seed": 1}),
    ("alpha-mixed", {"n": 100, "alpha": 0.1, "c": 2, "p_big": 10, "seed": 0}),
    ("alpha-mixed", {"n": 24, "alpha": 0.25, "c": 3, "p_big": 1000, "m": 2, "h": 3, "seed": 5}),
    ("alpha-mixed", {"n": 40, "alpha": 0.5, "c": 10, "p_big": 10, "small": 1, "h": 2, "seed": 1}),
    ("alpha-mixed", {"n": 7, "alpha": 0.3, "c": 2, "p_big": 40, "h": 7, "seed": 4}),
    ("random-dag", {"n": 2000, "h": 4, "density": 0.002, "m": 2, "seed": 1}),
    ("random-dag", {"n": 20, "h": 3, "density": 0.3, "m": 2, "c": 6, "seed": 7}),
    ("random-dag", {"n": 60, "h": 5, "density": 1.0, "m": 1, "seed": 2}),
    ("random-dag", {"n": 100, "h": 1, "density": 0.5, "m": 1, "seed": 3}),
    ("random-dag", {"n": 1, "h": 1, "density": 0.5, "m": 1, "seed": 0}),
]
DIGESTS = Path(__file__).parent / "data" / "generator_digests.json"


def _digest(inst: ss.Instance) -> str:
    """sha256 of the instance's arrays (dtype, shape and bytes), its m and its meta."""
    h = hashlib.sha256()
    for arr in (inst.p, inst.depth, inst.arcs):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps({"m": inst.m, "meta": inst.meta}, sort_keys=True).encode())
    return h.hexdigest()


def _case_id(family: str, kwargs: dict) -> str:
    return family + ":" + ",".join(f"{k}={v}" for k, v in kwargs.items())


@pytest.mark.parametrize("family, kwargs", PINNED, ids=[_case_id(*case) for case in PINNED])
def test_instances_match_pinned_digests(family, kwargs):
    # the families' instances are bit-identical to the recorded ones: same draws, same order
    args = dict(kwargs)
    inst = ss.generate(family, seed=args.pop("seed", 0), **args)
    assert _digest(inst) == json.loads(DIGESTS.read_text())[_case_id(family, kwargs)]


if __name__ == "__main__":  # regenerate only for an intended change of an instance family
    doc = {}
    for family, kwargs in PINNED:
        args = dict(kwargs)
        doc[_case_id(family, kwargs)] = _digest(ss.generate(family, seed=args.pop("seed", 0), **args))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(doc)} digests to {DIGESTS}\n")
