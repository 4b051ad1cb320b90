import os
import subprocess
import sys
from pathlib import Path

import pytest

from modplab.catalog import cyclic_group, klein_group, sym3
from modplab.fairness import (
    DepthTriple,
    PrecisionError,
    central_refinement,
    fairness_refinement,
    overlap_depths,
    overlap_depths_bruteforce,
    verify_certificate,
    witness_search,
)
from modplab.groups import Subgroup, conjugate_intersect


def test_witness_equal_refinement_is_identity():
    S3 = sym3()
    H = Subgroup(S3, [0, 3])
    rep = witness_search(S3, H, H, H)
    assert rep.outcome == "witness-found" and rep.g == 0


def test_witness_transposition_frozen():
    # K = H = <(01)>, H' = {e}: the first conjugate of H meeting K trivially
    S3 = sym3()
    K = Subgroup(S3, [0, 3])
    rep = witness_search(S3, K, K, Subgroup.trivial(S3))
    assert rep.outcome == "witness-found"
    assert rep.g == 1 and S3.label(rep.g) == "(012)"
    # soundness: re-verify the reported equality
    assert conjugate_intersect(K, K, rep.g).members == (0,)
    assert conjugate_intersect(K, Subgroup.trivial(S3), rep.g).members == (0,)


def test_witness_exhausted_on_normal_subgroup():
    S3 = sym3()
    C3 = Subgroup(S3, [0, 1, 2])
    rep = witness_search(S3, C3, C3, Subgroup.trivial(S3))
    assert rep.outcome == "exhausted" and rep.g is None


def test_witness_containment_validation():
    S3 = sym3()
    K = Subgroup(S3, [0, 3])
    C3 = Subgroup(S3, [0, 1, 2])
    with pytest.raises(ValueError):
        witness_search(S3, K, C3, Subgroup.trivial(S3))  # H not inside K
    with pytest.raises(ValueError):
        witness_search(S3, Subgroup.full(S3), K, C3)  # H' not inside H


def test_witness_report_json():
    S3 = sym3()
    K = Subgroup(S3, [0, 3])
    rep = witness_search(S3, K, K, Subgroup.trivial(S3))
    data = rep.to_json()
    assert data == {
        "outcome": "witness-found",
        "witness": 1,
        "witness_label": "(012)",
        "K": [0, 3],
        "H": [0, 3],
        "Hprime": [0],
    }


def test_central_refinement_frozen():
    C4 = cyclic_group(4)
    got = central_refinement(C4, Subgroup.full(C4), Subgroup(C4, [0, 2]))
    assert got.members == (0,)
    V4 = klein_group()
    got2 = central_refinement(V4, Subgroup.full(V4), Subgroup.full(V4))
    assert got2.order == 2 and not got2.contains(1)  # avoids the first nontrivial element
    with pytest.raises(ValueError):
        central_refinement(sym3(), Subgroup.full(sym3()), Subgroup(sym3(), [0, 3]))


def test_central_refinement_always_exhausts():
    for G in (cyclic_group(4), cyclic_group(9), klein_group()):
        full = Subgroup.full(G)
        for H in (full, Subgroup.generate(G, [1])):
            Hp = central_refinement(G, full, H)
            assert witness_search(G, full, H, Hp).outcome == "exhausted"


def test_overlap_depths_frozen():
    assert overlap_depths(1, 1, 0) == DepthTriple(1, 1, 1)
    assert overlap_depths(1, 1, 1) == DepthTriple(3, 1, 1)
    assert overlap_depths(2, 1, 1) == DepthTriple(3, 2, 2)
    assert overlap_depths(1, 3, 1) == DepthTriple(5, 3, 1)
    with pytest.raises(ValueError):
        overlap_depths(0, 1, 0)
    with pytest.raises(ValueError):
        overlap_depths(1, 1, -1)


def test_overlap_depths_monotone():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for a in (0, 1, 2):
                base = overlap_depths(m, n, a)
                up_n = overlap_depths(m, n + 1, a)
                up_m = overlap_depths(m + 1, n, a)
                for big, small in ((up_n, base), (up_m, base)):
                    assert big.upper >= small.upper
                    assert big.torus >= small.torus
                    assert big.lower >= small.lower


def test_bruteforce_frozen():
    assert overlap_depths_bruteforce(2, 4, 1, 1, 0) == DepthTriple(1, 1, 1)
    assert overlap_depths_bruteforce(2, 4, 1, 1, 1) == DepthTriple(3, 1, 1)
    assert overlap_depths_bruteforce(3, 4, 1, 1, 1) == DepthTriple(3, 1, 1)
    assert overlap_depths_bruteforce(2, 3, 2, 1, 0) == DepthTriple(2, 2, 2)


def test_bruteforce_precision_gate():
    with pytest.raises(PrecisionError):
        overlap_depths_bruteforce(2, 2, 1, 1, 1)  # n + 2a = 3 >= N
    with pytest.raises(PrecisionError):
        overlap_depths_bruteforce(2, 2, 2, 1, 0)  # m >= N
    with pytest.raises(PrecisionError):
        overlap_depths_bruteforce(2, 5, 4, 1, 1)  # m + 2a > N
    with pytest.raises(ValueError):
        overlap_depths_bruteforce(6, 4, 1, 1, 0)
    with pytest.raises(ValueError):
        overlap_depths_bruteforce(2, 9, 1, 1, 0)  # 2^24 elements, over the cap


def test_closed_form_matches_bruteforce_grid():
    checked = 0
    for p in (2, 3):
        for N in (2, 3, 4):
            for m in (1, 2):
                for n in (1, 2):
                    for a in (0, 1):
                        if n + 2 * a >= N or m >= N or m + 2 * a > N:
                            continue
                        assert overlap_depths_bruteforce(p, N, m, n, a) == overlap_depths(m, n, a)
                        checked += 1
    assert checked == 22


def test_fairness_refinement_frozen():
    cert = fairness_refinement(1, 1, p=2)
    assert cert.n_prime == 2
    # the torus comparison max(m, n') > max(m, n) carries no a term, so it
    # certifies strictness uniformly in a (other components may join it)
    strict = [c.name for c in cert.components if c.strict_for_all_a]
    assert "torus" in strict
    assert verify_certificate(cert)
    assert fairness_refinement(2, 1).n_prime == 3
    assert fairness_refinement(1, 4).n_prime == 5
    assert fairness_refinement(3, 3).n_prime == 4


def test_certificate_strictness_over_sampled_a():
    cert = fairness_refinement(2, 2)
    for a in range(6):
        old = overlap_depths(2, 2, a)
        new = overlap_depths(2, cert.n_prime, a)
        assert new.torus > old.torus
        assert new.upper >= old.upper and new.lower >= old.lower
    assert verify_certificate(cert)  # checks a in range(12) for these depths


def test_certificate_json_schema():
    cert = fairness_refinement(1, 1, p=3)
    data = cert.to_json()
    assert data["m"] == 1 and data["n"] == 1 and data["n_prime"] == 2
    assert data["p"] == 3
    names = [c["name"] for c in data["components"]]
    assert names == ["upper", "torus", "lower"]
    torus = data["components"][1]
    assert torus["lhs_expr"] == "max(1, 2)"
    assert torus["rhs_expr"] == "max(1, 1)"
    assert torus["strict_for_all_a"] is True
    assert "reduction_note" in data


def test_depth_triple_json():
    assert overlap_depths(1, 2, 1).to_json() == {"upper": 4, "torus": 2, "lower": 1}


def test_sl2_oracle_command_does_not_import_numpy_ma():
    """numpy.ma costs 10-15 ms to import, and the first np.unique of a
    process imports it; a fresh fairness process must not pay for it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    script = (
        "import sys\n"
        "from modplab import cli\n"
        "code = cli.main('fairness --mode sl2 --p 3 --m 1 --n 1 --oracle-N 4'.split())\n"
        "assert code == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "False"
