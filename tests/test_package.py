import dataclasses

import pathidw

REMOVED = ("DistanceField", "distance_field", "fields_for_cells", "distances_to_points",
           "neighbor_table")


def test_every_exported_name_resolves():
    for name in pathidw.__all__:
        assert hasattr(pathidw, name), name


def test_exports_have_no_duplicates():
    assert len(pathidw.__all__) == len(set(pathidw.__all__))


def test_dense_path_api_is_gone():
    for name in REMOVED:
        assert name not in pathidw.__all__
        assert not hasattr(pathidw, name)
        assert not hasattr(pathidw.pathdist, name)


def test_interp_config_fields():
    assert [f.name for f in dataclasses.fields(pathidw.InterpConfig)] == [
        "power", "n_nearest", "max_distance"]
