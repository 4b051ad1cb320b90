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
