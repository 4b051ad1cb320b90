import hashlib
import json

import numpy as np
import pytest

from modplab.catalog import (
    alt4,
    catalog_fields,
    catalog_groups,
    catalog_reps,
    cyclic_group,
    group_from_json,
    klein_group,
    load_catalog,
    sym3,
)
from modplab.groups import all_subgroups
from modplab.reps import Rep


def test_group_roster():
    orders = {name: G.order for name, G in catalog_groups().items()}
    assert orders == {
        "C2": 2,
        "C3": 3,
        "C4": 4,
        "C5": 5,
        "C6": 6,
        "C9": 9,
        "V4": 4,
        "S3": 6,
        "D4": 8,
        "Q8": 8,
        "A4": 12,
    }


# SHA-256 of each built-in group's int16 table bytes followed by its labels
# as a JSON list: a construction may change, the group and its numbering not
FROZEN_BUILTINS = {
    "C2": "c6b689fddd588159e0da6feb9a6f39e63782fcc0ec5bc10142865310912e886d",
    "C3": "3ba28b21030f4a166a8e68eee59c4ee7781c404e1be57f2c6e458709b56364d1",
    "C4": "c3ed4ac0dc9bfae17eb447d3f163e96c5fe5654e483f4573d12201f3370b5ae5",
    "C5": "a6d3a3487c05d1f83acfe67bea39e3be351c9d8a48a538f22f4a06e3e056018d",
    "C6": "036b47be2066c8e084a9681bd25feb2cdc88569f4e6fc0d7f1f92b49db80c279",
    "C9": "6fb47ec433a808fa625c86333965ea8f92712b98bd3611769413e489f9017c94",
    "V4": "47d98393fe58abd799e2da0b0b791851808d7cf5b9030d9433a1e410d78c95c9",
    "S3": "d290d81b4b0a84eede75b9909a4eba84aed8062d5ecd3b675b882271ff39ba7a",
    "D4": "42c65f697543aeb2d7bf09f8d6a21ae93ceab81474161d7cc990315643c9b716",
    "Q8": "984cbaeac68e07088b2bdd0254ef2889c7035a104e3ba69541d61af5d335ee31",
    "A4": "cd88ad7aa05cf7add2dd08915b8d8719ac11179075204e7a533c616232440ed3",
}


def test_builtin_tables_and_labels_are_frozen():
    got = {
        name: hashlib.sha256(G.table.tobytes() + json.dumps(G.labels).encode()).hexdigest()
        for name, G in catalog_groups().items()
    }
    assert all(G.table.dtype == np.int16 for G in catalog_groups().values())
    assert got == FROZEN_BUILTINS


def test_field_roster():
    fields = catalog_fields()
    assert {name: F.order for name, F in fields.items()} == {
        "F2": 2,
        "F3": 3,
        "F4": 4,
        "F5": 5,
        "F9": 9,
    }
    assert fields["F4"].modulus == (1, 1, 1)


def test_catalog_reps_validity():
    for gname in ("C2", "S3", "D4"):
        G = catalog_groups()[gname]
        for fname in ("F2", "F3"):
            F = catalog_fields()[fname]
            reps = catalog_reps(G, F)
            assert "triv" in reps
            for name, V in reps.items():
                assert isinstance(V, Rep) and V.dim <= 4, (gname, fname, name)
                Rep(V.group, V.field, V.T)  # revalidate the action


def test_catalog_reps_dim_cap():
    G = catalog_groups()["S3"]
    F = catalog_fields()["F3"]
    small = catalog_reps(G, F, max_dim=1)
    assert small and all(V.dim <= 1 for V in small.values())


def test_catalog_reps_come_back_on_the_callers_group():
    F = catalog_fields()["F2"]
    U1, U2 = [U for U in all_subgroups(klein_group()) if U.order == 2][:2]
    G1, G2 = U1.as_group(), U2.as_group()
    assert G1 == G2 and G1 is not G2  # equal tables, so one memo entry
    first, second = catalog_reps(G1, F), catalog_reps(G2, F)
    assert all(V.group is G1 for V in first.values())
    assert all(V.group is G2 for V in second.values())
    assert first.keys() == second.keys()
    assert all(np.array_equal(first[n].T, second[n].T) for n in first)


def test_group_json_roundtrip():
    for G in (sym3(), alt4(), cyclic_group(9)):
        data = json.loads(json.dumps(G.to_json()))
        back = group_from_json(data)
        assert back == G
        assert [back.label(i) for i in range(back.order)] == [
            G.label(i) for i in range(G.order)
        ]


def test_load_catalog_all_entry_forms(tmp_path):
    gfile = tmp_path / "c2.json"
    gfile.write_text(json.dumps(cyclic_group(2).to_json()))
    cat = {
        "groups": [
            {"ref": "S3"},
            "c2.json",
            {"name": "flip", "table": [[0, 1], [1, 0]]},
        ],
        "fields": [{"p": 2}, {"name": "ext", "p": 3, "k": 2}],
    }
    cfile = tmp_path / "cat.json"
    cfile.write_text(json.dumps(cat))
    loaded = load_catalog(str(cfile))
    assert {k: v.order for k, v in loaded["groups"].items()} == {"S3": 6, "c2": 2, "flip": 2}
    assert {k: v.order for k, v in loaded["fields"].items()} == {"F2": 2, "ext": 9}


def test_load_catalog_takes_a_builtin_name_for_an_equal_object(tmp_path):
    S3 = catalog_groups()["S3"]
    cat = {
        "groups": [{"name": "S3", "table": S3.table.tolist()}],  # no labels: equal all the same
        "fields": [{"name": "F4", "p": 2, "k": 2}],
    }
    cfile = tmp_path / "cat.json"
    cfile.write_text(json.dumps(cat))
    loaded = load_catalog(str(cfile))
    assert loaded["groups"]["S3"] == S3 and loaded["fields"]["F4"] == catalog_fields()["F4"]


def test_load_catalog_rejects_malformed(tmp_path):
    cases = [
        '{"groups": 7}',
        "[1, 2]",
        '{"groups": [{"nope": 1}], "fields": [{"p": 2}]}',
        '{"groups": [{"ref": "S3"}], "fields": []}',
        '{"groups": [{"ref": "NoSuchGroup"}], "fields": [{"p": 2}]}',
    ]
    for i, text in enumerate(cases):
        f = tmp_path / f"bad{i}.json"
        f.write_text(text)
        with pytest.raises(ValueError):
            load_catalog(str(f))


def test_named_group_subgroup_counts():
    # a quick structural fingerprint of each built-in
    counts = {name: len(all_subgroups(G)) for name, G in catalog_groups().items()}
    assert counts == {
        "C2": 2,
        "C3": 2,
        "C4": 3,
        "C5": 2,
        "C6": 4,
        "C9": 3,
        "V4": 5,
        "S3": 6,
        "D4": 10,
        "Q8": 6,
        "A4": 10,
    }
